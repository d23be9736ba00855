"""Maximum bipartite matching, König covers, and bipartite independent sets.

A ``Matching`` is its partner array (each vertex's partner, -1 when free),
filled by the builders here; its edge set is derived. One alternating BFS
(``_layers``) over that array serves Hopcroft-Karp's phases, Berge's test
``has_augmenting_path`` and the König cover; the layers of Hopcroft-Karp's
last phase give ``maximum_independent_set_bipartite`` its cover.

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
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graph import Graph, ParseError

__all__ = [
    "Matching",
    "matching_from_edges",
    "parse_matching",
    "is_matching",
    "is_induced_matching",
    "maximum_matching",
    "koenig_cover",
    "maximum_independent_set_bipartite",
    "has_augmenting_path",
]


@dataclass(frozen=True)
class Matching:
    """Each vertex's partner, -1 when the vertex is free. Built only here, by
    ``matching_from_edges``, ``parse_matching`` and ``maximum_matching``."""

    partner: tuple[int, ...]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each matched pair once, smaller end first."""
        return frozenset([(u, v) for u, v in enumerate(self.partner) if u < v])


def _partner(g: Graph, m: Matching) -> tuple[int, ...]:
    """m's partner array; ValueError unless it has one entry per vertex of g
    and pairs each matched vertex with a neighbour paired back to it."""
    partner, adj = m.partner, g.adjacency
    if len(partner) == len(adj):
        for v, p in enumerate(partner):
            if p != -1 and (p not in adj[v] or partner[p] != v):
                break
        else:
            return partner
    raise ValueError("edge set is not a matching of the graph")


def _pairs(g: Graph, edges: Iterable[tuple[int, int]]) -> Optional[list[int]]:
    """Each vertex's partner under the edges, -1 when free; None unless they
    are pairwise vertex-disjoint edges of g."""
    adj = g.adjacency
    n = len(adj)
    partner = [-1] * n
    for u, v in edges:
        if not (0 <= u < n and v in adj[u]) or partner[u] != -1 or partner[v] != -1:
            return None
        partner[u], partner[v] = v, u
    return partner


def is_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges exist in g and are pairwise vertex-disjoint."""
    return _pairs(g, edges) is not None


def is_induced_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff a matching and no host edge joins two distinct matched pairs:
    every matched neighbour of a matched vertex is its partner."""
    partner, adj = _pairs(g, edges), g.adjacency
    return partner is not None and all(
        partner[w] in (-1, x) for x, p in enumerate(partner) if p != -1 for w in adj[x])


def matching_from_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Matching:
    """Validate edges as a matching of g, an edge given twice once:
    ValueError if they are not one."""
    partner = _pairs(g, {(u, v) if u < v else (v, u) for u, v in edges})
    if partner is None:
        raise ValueError("edge set is not a matching of the graph")
    return Matching(tuple(partner))


def parse_matching(text: str, g: Graph) -> Matching:
    """Matching-file text as a matching of g: ``m <u> <v>`` lines, 1-based;
    comment lines start with ``c``. A line with an endpoint out of range, a
    non-edge or an already matched vertex is a ParseError; a repeated edge
    is not."""
    adj = g.adjacency
    n = len(adj)
    partner = [-1] * n
    lines = text.splitlines()

    def line(line_no: int) -> str:
        return lines[line_no - 1].strip()

    for line_no, fields in enumerate(map(str.split, lines), start=1):
        if not fields or fields[0][0] == "c":
            continue
        try:
            tag, a, b = fields
            u, v = int(a) - 1, int(b) - 1
        except ValueError:
            tag = ""
        if tag != "m":
            raise ParseError(line_no, f"malformed matching line {line(line_no)!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"endpoint out of range in {line(line_no)!r}")
        if v not in adj[u]:
            raise ParseError(line_no, f"not an edge of the graph in {line(line_no)!r}")
        if partner[u] != v:
            if partner[u] != -1 or partner[v] != -1:
                w = min(w for w in (u, v) if partner[w] != -1)
                raise ParseError(line_no, f"vertex {w + 1} already matched in {line(line_no)!r}")
            partner[u], partner[v] = v, u
    return Matching(tuple(partner))


def _karp_sipser(adj: tuple[tuple[int, ...], ...], partner: list[int]) -> None:
    """Fill the all-free ``partner`` with the greedy Karp-Sipser matching of
    the module docstring. Its degree-1 step never loses a maximum matching,
    so on forests and cycles the result is already maximum."""
    free_degree = list(map(len, adj))
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
        for w in adj[u]:
            if partner[w] == -1:
                free_degree[w] -= 1
                if free_degree[w] == 1:
                    push(ones, w)
        for w in adj[v]:
            if partner[w] == -1:
                free_degree[w] -= 1
                if free_degree[w] == 1:
                    push(ones, w)


def _layers(
    adj: tuple[tuple[int, ...], ...], a_side: list[int], partner: Sequence[int], dist: list[int]
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


def _hopcroft_karp(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Hopcroft-Karp from a Karp-Sipser start, pinned by ascending-index
    tie-breaks: side A, the partner array, and the layers of the last
    ``_layers`` call, the one that found no augmenting path."""
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
    return a_side, partner, dist


def maximum_matching(g: Graph) -> Matching:
    """Hopcroft-Karp maximum matching from a Karp-Sipser start, pinned by
    ascending-index tie-breaks."""
    return Matching(tuple(_hopcroft_karp(g)[1]))


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """True iff m is not a maximum matching of g (Berge). Raises
    NotBipartiteError for non-bipartite g, then ValueError when m is not a
    matching of g."""
    a_side = [v for v, s in enumerate(g.side) if s == 0]
    return _layers(g.adjacency, a_side, _partner(g, m), [0] * (g.n + 1))


def koenig_cover(g: Graph, m: Matching) -> frozenset[int]:
    """Vertex cover of size |m| from a maximum matching (König construction):
    the unreached side-A vertices and the neighbours of the reached ones."""
    a_side = [v for v, s in enumerate(g.side) if s == 0]
    dist = [0] * (g.n + 1)
    partner = _partner(g, m)
    if _layers(g.adjacency, a_side, partner, dist):
        raise ValueError("matching admits an augmenting path; not maximum")
    return _cover(g, a_side, partner, dist)


def _cover(g: Graph, a_side: list[int], partner: Sequence[int], dist: list[int]) -> frozenset[int]:
    """The König cover read from the layers of an alternating BFS that found
    no augmenting path; RuntimeError unless it has one vertex per matched pair."""
    adj = g.adjacency
    cover: set[int] = set()
    for u in a_side:
        if dist[u] == g.n + 1:
            cover.add(u)
        else:
            cover.update(adj[u])
    size = (g.n - partner.count(-1)) // 2
    if len(cover) != size:
        raise RuntimeError(f"König cover has {len(cover)} vertices for {size} matching edges")
    return frozenset(cover)


def maximum_independent_set_bipartite(g: Graph) -> frozenset[int]:
    """Maximum independent set of a bipartite graph via the König complement,
    its cover read from the layers of Hopcroft-Karp's last BFS."""
    return frozenset(range(g.n)) - _cover(g, *_hopcroft_karp(g))
