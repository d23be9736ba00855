"""Isomorphism-free graph catalogs for exhaustive desk-scale testing.

Each catalog level grows from the one below by vertex augmentation: a parent
P on n-1 vertices gets a new vertex n-1 joined to a subset S of its vertices.
S is nonempty for connected graphs, nonempty and inside one side of P's
bipartition for connected bipartite graphs, and any subset for all graphs.

Canonical deletion (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998) prunes the children before they are canonized. A vertex is
deletable when removing it leaves a graph of the same kind: a non-cut vertex
for the connected kinds, any vertex for all graphs. A child is kept only if
no deletable vertex outranks the new one by the isomorphism invariant
(degree, then sorted neighbour degrees). No class is lost: in any graph G of
the kind, take a deletable vertex w of largest rank. G - w is isomorphic to
some parent P, so G arises as P + S with the new vertex in w's place, and
that child passes. Ties and automorphic subsets still give isomorphic
children, so the survivors are deduplicated by canonical form, and each level
is sorted by that form: its content and order do not depend on how the
children were generated.

The canonical form is the lexicographically smallest adjacency bitstring over
the orderings explored by color refinement with individualization (twin
vertices are collapsed, so highly symmetric graphs stay cheap). Refinement
ends in an equitable partition: all vertices of a cell have equally many
neighbours in each cell. After the search individualizes a vertex v, it
refines only what v can split (after McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014). The first round is known without
signatures: each cell splits into the non-neighbours and the neighbours of v.
Full refinement goes on from that round only when it splits more than v off
its cell. Every node sees the colour ranks that refining from scratch gives,
so the forms, and the catalogs sorted by them, do not depend on the shortcut.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .exact import InstanceTooLarge
from .graph import Graph, new_graph

__all__ = [
    "canonical_form",
    "canonical_graph",
    "connected_graphs",
    "connected_bipartite_graphs",
    "all_graphs",
]


def _dense_ranks(keys: list[int]) -> list[int]:
    ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [ranking[key] for key in keys]


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    # 1-dimensional color refinement; color values are ranks of sorted
    # (color, neighbour-color multiset) signatures, hence label-invariant.
    # Ranks sort by the old colour first, so no round reorders two cells.
    # It stops at a fixed point, an equitable partition in dense ranks; a
    # discrete partition is one, so the round that reaches it is the last.
    while True:
        sigs = []
        for v in range(n):
            w = adj[v]
            neigh = []
            while w:
                b = w & -w
                neigh.append(colors[b.bit_length() - 1])
                w ^= b
            neigh.sort()
            sigs.append((colors[v], tuple(neigh)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors or len(ranking) == n:
            return new
        colors = new


def _individualize(n: int, adj: tuple[int, ...], colors: list[int], v: int) -> list[int]:
    """The colouring ``_refine`` reaches from ``colors`` with v given a
    colour above all others; ``colors`` must be a fixed point of ``_refine``.

    The first round needs no signatures. ``colors`` is equitable, so the
    vertices of a cell share one neighbour-colour multiset, and the only
    change to it is v's colour, seen by v's neighbours. So each cell splits
    into the non-neighbours of v, then the neighbours: in a neighbour's sorted
    multiset one entry of v's old colour becomes the top colour, so where the
    two first differ the neighbour's entry is larger. v sorts after every
    cell. The round's ranks are the dense ranks of 2c + [u ~ v], with 2n for v.

    If the round adds at most one cell, or leaves the partition discrete, it
    is equitable and so a fixed point. A v alone in its cell splits nothing,
    since every cell sees all of it or none. Otherwise one new cell means v
    only left its cell: every other cell is all adjacent or all not adjacent
    to v, so its vertices see {v}, and what is left of v's cell, equally
    often. More new cells can split others, and ``_refine`` goes on from the
    round.
    """
    a = adj[v]
    keys = [2 * c + (a >> u & 1) for u, c in enumerate(colors)]
    keys[v] = 2 * n
    new = _dense_ranks(keys)
    # new[v] is the top rank, one less than the number of cells
    if new[v] <= max(colors) + 1 or new[v] == n - 1:
        return new
    return _refine(n, adj, new)


def _row_bits(adj_v: int, order: list[int]) -> int:
    row = 0
    for j, w in enumerate(order):
        if (adj_v >> w) & 1:
            row |= 1 << j
    return row


def canonical_form(g: Graph) -> tuple:
    """Hashable isomorphism invariant: (n, canonical adjacency rows)."""
    return (g.n, _canonical_rows(g))


def _canonical_rows(g: Graph) -> tuple[int, ...]:
    n = g.n
    if n == 0:
        return ()
    adj = g.adjacency_masks
    best: list[int] | None = None

    def complete_discrete(order: list[int], rows: list[int], better: bool,
                          colors: list[int]) -> None:
        # all cells are singletons: one forced extension, the vertices not
        # yet ordered (the lowest colours) in colour order
        nonlocal best
        ext = sorted(range(n), key=colors.__getitem__)[:n - len(order)]
        added = 0
        pruned = False
        for v in ext:
            row = _row_bits(adj[v], order)
            if not better and best is not None:
                br = best[len(order)]
                if row > br:
                    pruned = True
                    break
                if row < br:
                    better = True
            order.append(v)
            rows.append(row)
            added += 1
        if not pruned and (better or best is None):
            best = list(rows)
        if added:
            del order[-added:]
            del rows[-added:]

    def search(order: list[int], rows: list[int], better: bool, colors: list[int]) -> None:
        # colors are dense ranks, and the ordered vertices hold the top ones:
        # individualizing gives v the top rank, and neither that step nor
        # _refine reorders two cells. So colour 0 is the first cell of the
        # vertices not yet ordered, and a top colour of n - 1 means discrete.
        if n - 1 in colors:
            complete_discrete(order, rows, better, colors)
            return
        cell = [v for v in range(n) if colors[v] == 0]
        # collapse twins: a transposition of u,v with equal neighbourhoods
        # (ignoring each other) is an automorphism fixing everything else
        kept: list[int] = []
        for v in cell:
            dup = False
            for u in kept:
                strip = ~((1 << u) | (1 << v))
                if adj[u] & strip == adj[v] & strip:
                    dup = True
                    break
            if not dup:
                kept.append(v)
        for v in kept:
            row = _row_bits(adj[v], order)
            child_better = better
            if not child_better and best is not None:
                br = best[len(order)]
                if row > br:
                    continue
                if row < br:
                    child_better = True
            order.append(v)
            rows.append(row)
            search(order, rows, child_better, _individualize(n, adj, colors, v))
            order.pop()
            rows.pop()

    # the first round from all colours equal ranks the vertices by degree
    colors = _refine(n, adj, _dense_ranks([a.bit_count() for a in adj]))
    search([], [], False, colors)
    if best is None:
        raise RuntimeError("canonical search finished without a labeling")
    return tuple(best)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    return _form_graph(canonical_form(g))


def _form_graph(form: tuple) -> Graph:
    # row i holds i's neighbours below i, so every list fills in ascending order
    n, rows = form
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        while row:
            b = row & -row
            j = b.bit_length() - 1
            adjacency[i].append(j)
            adjacency[j].append(i)
            row ^= b
    return Graph(tuple(map(tuple, adjacency)))


# catalog kind -> largest n the catalog builds; beyond it the work is out of
# desk reach, so asking for more is over the cutoff
_LIMITS = {"connected": 8, "bipartite": 10, "all": 6}
# (kind, n) -> catalog; each kind starts from its single smallest graph
_cache: dict[tuple[str, int], list[Graph]] = {
    ("connected", 1): [new_graph(1, [])], ("bipartite", 1): [new_graph(1, [])],
    ("all", 0): [new_graph(0, [])]}


def _classes(kind: str, n: int, children: Callable[[], Iterable[Graph]]) -> list[Graph]:
    """One canonical representative per isomorphism class among ``children()``,
    sorted by canonical form and built once per (kind, n)."""
    if n > _LIMITS[kind]:
        raise InstanceTooLarge(n, _LIMITS[kind])
    if (kind, n) not in _cache:
        forms: dict[tuple, Graph] = {}
        for child in children():
            form = canonical_form(child)
            if form not in forms:
                forms[form] = _form_graph(form)
        _cache[kind, n] = [forms[form] for form in sorted(forms)]
    return _cache[kind, n]


def _is_cut_vertex(adj: Sequence[int], u: int) -> bool:
    """True iff the graph with masks adj is disconnected once u is deleted."""
    rest = ((1 << len(adj)) - 1) & ~(1 << u)
    seen = frontier = rest & -rest
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = adj[b.bit_length() - 1] & rest & ~seen
        seen |= new
        frontier |= new
    return seen != rest


def _neighbour_degrees(adj_v: int, deg: list[int]) -> list[int]:
    return sorted(d for w, d in enumerate(deg) if (adj_v >> w) & 1)


def _last_is_deletion_candidate(adj: Sequence[int], connected: bool) -> bool:
    """The canonical-deletion test: False iff some deletable vertex outranks
    the last one by (degree, sorted neighbour degrees).

    Deletable means a non-cut vertex when ``connected``, else any vertex. The
    rank is an isomorphism invariant, so the test's verdict is too.
    """
    v = len(adj) - 1
    deg = [a.bit_count() for a in adj]
    key: list[int] | None = None
    for u in range(v):
        if deg[u] < deg[v]:
            continue
        if deg[u] == deg[v]:
            if key is None:
                key = _neighbour_degrees(adj[v], deg)
            if _neighbour_degrees(adj[u], deg) <= key:
                continue
        if not connected or not _is_cut_vertex(adj, u):
            return False
    return True


def _attach(parent: Graph, vertices: list[int], connected: bool = True) -> Iterator[Graph]:
    """parent plus a new vertex joined to each subset of ``vertices`` (nonempty
    when ``connected``) that passes the canonical-deletion test."""
    new = parent.n
    masks = list(parent.adjacency_masks) + [0]
    for attach in range(1 if connected else 0, 1 << len(vertices)):
        nbrs = [v for i, v in enumerate(vertices) if (attach >> i) & 1]
        adj = list(masks)
        for v in nbrs:
            adj[v] |= 1 << new
            adj[new] |= 1 << v
        if _last_is_deletion_candidate(adj, connected):
            # vertices ascend and the new vertex is the largest: tuples stay sorted
            adjacency = list(parent.adjacency)
            for v in nbrs:
                adjacency[v] += (new,)
            yield Graph((*adjacency, tuple(nbrs)))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        return []
    return _classes("connected", n, lambda: (
        child for parent in connected_graphs(n - 1)
        for child in _attach(parent, list(range(n - 1)))))


def connected_bipartite_graphs(n: int) -> list[Graph]:
    """All connected bipartite graphs on exactly n vertices, up to isomorphism.

    Augmentation attaches the new vertex inside a single side of the parent's
    bipartition, which is the only way to stay bipartite.
    """
    if n < 1:
        return []
    return _classes("bipartite", n, lambda: (
        child for parent in connected_bipartite_graphs(n - 1) for color in (0, 1)
        for child in _attach(parent, [v for v, s in enumerate(parent.side) if s == color])))


def all_graphs(n: int) -> list[Graph]:
    """Every graph on exactly n vertices up to isomorphism (n <= 6).

    Augmentation joins the new vertex to any subset of the parent's vertices,
    the empty one included, so isolated vertices arise too.
    """
    if n < 0:
        return []
    return _classes("all", n, lambda: (
        child for parent in all_graphs(n - 1)
        for child in _attach(parent, list(range(n - 1)), connected=False)))
