"""Isomorphism-free graph catalogs for exhaustive desk-scale testing.

Connected graphs are generated by vertex augmentation: every connected graph
on n vertices arises from a connected graph on n-1 vertices (delete a
non-cutvertex) by attaching a new vertex to a nonempty neighbour set, so
augmenting each catalog level and deduplicating by canonical form is
exhaustive. The canonical form is the lexicographically smallest adjacency
bitstring over the orderings explored by color refinement with
individualization (twin vertices are collapsed, so highly symmetric graphs
stay cheap).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .exact import InstanceTooLarge
from .graph import Graph, new_graph

__all__ = [
    "canonical_form",
    "canonical_graph",
    "connected_graphs",
    "connected_bipartite_graphs",
    "all_graphs",
]


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    # 1-dimensional color refinement; color values are ranks of sorted
    # (color, neighbour-color multiset) signatures, hence label-invariant.
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
        if new == colors:
            return colors
        colors = new


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

    def finish(rows: list[int], better: bool) -> None:
        nonlocal best
        if better or best is None:
            best = list(rows)

    def complete_discrete(order: list[int], rows: list[int], better: bool,
                          remaining: list[int], colors: list[int]) -> None:
        # all remaining cells are singletons: one forced extension
        nonlocal best
        ext = sorted(remaining, key=lambda v: colors[v])
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
        if not pruned:
            finish(rows, better)
        if added:
            del order[-added:]
            del rows[-added:]

    def search(order: list[int], rows: list[int], better: bool,
               remaining: set[int], colors: list[int]) -> None:
        nonlocal best
        if not remaining:
            finish(rows, better)
            return
        color_count = len({colors[v] for v in remaining})
        if color_count == len(remaining):
            complete_discrete(order, rows, better, list(remaining), colors)
            return
        cmin = min(colors[v] for v in remaining)
        cell = sorted(v for v in remaining if colors[v] == cmin)
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
            remaining.discard(v)
            child_colors = list(colors)
            child_colors[v] = n + len(order)
            child_colors = _refine(n, adj, child_colors)
            search(order, rows, child_better, remaining, child_colors)
            remaining.add(v)
            order.pop()
            rows.pop()

    colors = _refine(n, adj, [0] * n)
    search([], [], False, set(range(n)), colors)
    if best is None:
        raise RuntimeError("canonical search finished without a labeling")
    return tuple(best)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    return _form_graph(canonical_form(g))


def _form_graph(form: tuple) -> Graph:
    n, rows = form
    edges = []
    for i, row in enumerate(rows):
        w = row
        while w:
            b = w & -w
            edges.append((b.bit_length() - 1, i))
            w ^= b
    return new_graph(n, edges)


# catalog kind -> largest n the catalog builds; beyond it the work is out of
# desk reach, so asking for more is over the cutoff
_LIMITS = {"connected": 8, "bipartite": 10, "all": 6}
# (kind, n) -> catalog; each kind starts from its single one-vertex graph
_cache: dict[tuple[str, int], list[Graph]] = {
    ("connected", 1): [new_graph(1, [])], ("bipartite", 1): [new_graph(1, [])]}


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


def _attach(parent: Graph, vertices: list[int]) -> Iterator[Graph]:
    """parent plus a new vertex joined to each nonempty subset of ``vertices``."""
    n = parent.n + 1
    for attach in range(1, 1 << len(vertices)):
        yield Graph(n, parent.edges | {(v, n - 1) for i, v in enumerate(vertices)
                                       if (attach >> i) & 1})


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
    """Every graph on exactly n vertices up to isomorphism (brute force, n <= 6)."""
    if n < 0:
        return []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _classes("all", n, lambda: (
        Graph(n, frozenset(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))
        for mask in range(1 << len(pairs))))
