"""Maximum bipartite matching, König covers, and bipartite independent sets.

One partner array (``partner_map``: each vertex's partner, -1 when free) and
one alternating BFS (``_layers``) serve Hopcroft-Karp's phases, Berge's test
``has_augmenting_path`` and the König cover.

The matching search starts from a greedy matching by the Karp-Sipser rule
(Karp & Sipser, 1981): while some free vertex has exactly one free neighbour,
the lowest such vertex is matched to it; otherwise the lowest free vertex
with a free neighbour is matched to its lowest free neighbour. Hopcroft-Karp
then augments it to a maximum matching, scanning free vertices in ascending
index order and adjacency in the ascending order of ``Graph.adjacency``. So
every result here is a deterministic function of the input graph. Sides are
read from ``Graph.side``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, ParseError, _canonical_edge, data_lines

__all__ = [
    "Matching",
    "matching_from_edges",
    "parse_matching",
    "partner_map",
    "is_matching",
    "is_induced_matching",
    "maximum_matching",
    "koenig_cover",
    "maximum_independent_set_bipartite",
    "has_augmenting_path",
]


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edge set, each edge with its smaller endpoint first."""

    edges: frozenset[tuple[int, int]]


def is_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges exist in g and are pairwise vertex-disjoint."""
    adj = g.adjacency
    n = len(adj)
    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < n and v in adj[u]):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_induced_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff a matching and no host edge joins two distinct matched pairs:
    every matched neighbour of a matched vertex is its partner."""
    es = list(edges)
    if not is_matching(g, es):
        return False
    partner = partner_map(g, Matching(frozenset(es)))
    adj = g.adjacency
    return all(partner[w] in (-1, x) for e in es for x in e for w in adj[x])


def matching_from_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Matching:
    """Validate edges as a matching of g: ValueError if they are not one."""
    m = Matching(frozenset([(u, v) if u < v else (v, u) for u, v in edges]))
    partner_map(g, m)
    return m


def parse_matching(text: str, g: Graph) -> Matching:
    """Matching-file text as a matching of g: ``m <u> <v>`` lines, 1-based;
    comment lines start with ``c``. A line with an endpoint out of range, a
    non-edge or an already matched vertex is a ParseError; a repeated edge
    is not."""
    adj = g.adjacency
    n = len(adj)
    edges: set[tuple[int, int]] = set()
    matched: set[int] = set()
    for line_no, line, fields in data_lines(text):
        if len(fields) != 3 or fields[0] != "m":
            raise ParseError(line_no, f"malformed matching line {line!r}")
        try:
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
        except ValueError:
            raise ParseError(line_no, f"malformed matching line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"endpoint out of range in {line!r}")
        if v not in adj[u]:
            raise ParseError(line_no, f"not an edge of the graph in {line!r}")
        edge = _canonical_edge(u, v)
        if edge in edges:
            continue
        for w in edge:
            if w in matched:
                raise ParseError(line_no, f"vertex {w + 1} already matched in {line!r}")
        edges.add(edge)
        matched.update(edge)
    return Matching(frozenset(edges))


def partner_map(g: Graph, m: Matching) -> list[int]:
    """Each vertex's partner in m, -1 for a free vertex. Raises ValueError
    when m is not a matching of g."""
    adj = g.adjacency
    n = len(adj)
    partner = [-1] * n
    for u, v in m.edges:
        if not (0 <= u < n and v in adj[u]) or partner[u] != -1 or partner[v] != -1:
            raise ValueError("edge set is not a matching of the graph")
        partner[u], partner[v] = v, u
    return partner


def _karp_sipser(adj: tuple[tuple[int, ...], ...], partner: list[int]) -> None:
    """Fill the all-free ``partner`` with the greedy Karp-Sipser matching of
    the module docstring. Its degree-1 step never loses a maximum matching,
    so on forests and cycles the result is already maximum."""
    free_degree = [len(nbrs) for nbrs in adj]
    # heap of vertices that had one free neighbour; stale entries are skipped
    ones = [v for v, d in enumerate(free_degree) if d == 1]
    push, pop = heapq.heappush, heapq.heappop
    lowest, n = 0, len(adj)
    while True:
        if ones:
            u = pop(ones)
            if partner[u] != -1 or free_degree[u] != 1:
                continue
        else:
            while lowest < n and (partner[lowest] != -1 or free_degree[lowest] == 0):
                lowest += 1
            if lowest == n:
                return
            u = lowest
        for v in adj[u]:  # u has a free neighbour, so the loop breaks
            if partner[v] == -1:
                break
        partner[u], partner[v] = v, u
        for x in (u, v):
            for w in adj[x]:
                if partner[w] == -1:
                    free_degree[w] -= 1
                    if free_degree[w] == 1:
                        push(ones, w)


def _layers(
    adj: tuple[tuple[int, ...], ...], a_side: list[int], partner: list[int], dist: list[int]
) -> bool:
    """Alternating BFS from the free side-A vertices; True iff it reaches a
    free side-B vertex (an augmenting path exists). ``dist[u]`` becomes side-A
    vertex u's layer, ``len(adj) + 1`` if unreached; layers past the first
    free side-B vertex, ``dist[len(adj)]``, are not expanded."""
    nil = len(adj)
    inf = nil + 1
    dq: deque[int] = deque()
    for u in a_side:
        if partner[u] == -1:
            dist[u] = 0
            dq.append(u)
        else:
            dist[u] = inf
    dist[nil] = inf
    while dq:
        u = dq.popleft()
        if dist[u] < dist[nil]:
            for v in adj[u]:
                w = partner[v] if partner[v] != -1 else nil
                if dist[w] == inf:
                    dist[w] = dist[u] + 1
                    if w != nil:
                        dq.append(w)
    return dist[nil] != inf


def maximum_matching(g: Graph) -> Matching:
    """Hopcroft-Karp maximum matching from a Karp-Sipser start, pinned by
    ascending-index tie-breaks."""
    n = g.n
    a_side = [v for v, s in enumerate(g.side) if s == 0]
    adj = g.adjacency
    partner = [-1] * n
    _karp_sipser(adj, partner)
    NIL = n
    INF = n + 1
    dist = [0] * (n + 1)

    def dfs(root: int) -> None:
        # augmenting-path search along the BFS layers with an explicit stack:
        # pos[i] is the next neighbour of path[i] to try
        path, pos = [root], [0]
        while path:
            u = path[-1]
            for i in range(pos[-1], len(adj[u])):
                v = adj[u][i]
                w = partner[v] if partner[v] != -1 else NIL
                if dist[w] == dist[u] + 1:
                    pos[-1] = i + 1
                    if w == NIL:
                        for x, j in zip(path, pos):
                            partner[x] = adj[x][j - 1]
                            partner[adj[x][j - 1]] = x
                        return
                    path.append(w)
                    pos.append(0)
                    break
            else:
                dist[u] = INF
                path.pop()
                pos.pop()

    while _layers(adj, a_side, partner, dist):
        for u in a_side:
            if partner[u] == -1:
                dfs(u)
    return matching_from_edges(g, ((u, partner[u]) for u in a_side if partner[u] != -1))


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """True iff m is not a maximum matching of g (Berge). Raises
    NotBipartiteError for non-bipartite g, then ValueError when m is not a
    matching of g."""
    a_side = [v for v, s in enumerate(g.side) if s == 0]
    return _layers(g.adjacency, a_side, partner_map(g, m), [0] * (g.n + 1))


def koenig_cover(g: Graph, m: Matching) -> frozenset[int]:
    """Vertex cover of size |m| from a maximum matching (König construction):
    the unreached side-A vertices and the neighbours of the reached ones."""
    a_side = [v for v, s in enumerate(g.side) if s == 0]
    adj = g.adjacency
    dist = [0] * (g.n + 1)
    if _layers(adj, a_side, partner_map(g, m), dist):
        raise ValueError("matching admits an augmenting path; not maximum")
    cover: set[int] = set()
    for u in a_side:
        if dist[u] == g.n + 1:
            cover.add(u)
        else:
            cover.update(adj[u])
    if len(cover) != len(m.edges):
        raise RuntimeError(
            f"König cover has {len(cover)} vertices for {len(m.edges)} matching edges"
        )
    return frozenset(cover)


def maximum_independent_set_bipartite(g: Graph) -> frozenset[int]:
    """Maximum independent set of a bipartite graph via the König complement."""
    return frozenset(range(g.n)) - koenig_cover(g, maximum_matching(g))
