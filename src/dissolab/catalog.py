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
    rows = _canonical_rows(g)
    edges = []
    for i, row in enumerate(rows):
        w = row
        while w:
            b = w & -w
            edges.append((b.bit_length() - 1, i))
            w ^= b
    return new_graph(g.n, edges)


_connected_cache: dict[int, list[Graph]] = {}
_bipartite_cache: dict[int, list[Graph]] = {}


def _dedup_sorted(forms: dict[tuple, Graph]) -> list[Graph]:
    return [forms[k] for k in sorted(forms)]


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        return []
    if n in _connected_cache:
        return _connected_cache[n]
    if n == 1:
        result = [new_graph(1, [])]
    else:
        forms: dict[tuple, Graph] = {}
        new_vertex = n - 1
        for parent in connected_graphs(n - 1):
            base = list(parent.edge_list)
            for attach in range(1, 1 << (n - 1)):
                edges = list(base)
                w = attach
                while w:
                    b = w & -w
                    edges.append((b.bit_length() - 1, new_vertex))
                    w ^= b
                child = Graph(n, frozenset(edges))
                key = canonical_form(child)
                if key not in forms:
                    forms[key] = canonical_graph(child)
        result = _dedup_sorted(forms)
    _connected_cache[n] = result
    return result


def connected_bipartite_graphs(n: int) -> list[Graph]:
    """All connected bipartite graphs on exactly n vertices, up to isomorphism.

    Augmentation attaches the new vertex inside a single side of the parent's
    bipartition, which is the only way to stay bipartite.
    """
    if n < 1:
        return []
    if n in _bipartite_cache:
        return _bipartite_cache[n]
    if n == 1:
        result = [new_graph(1, [])]
    else:
        forms: dict[tuple, Graph] = {}
        new_vertex = n - 1
        for parent in connected_bipartite_graphs(n - 1):
            base = list(parent.edge_list)
            for color in (0, 1):
                side = [v for v, s in enumerate(parent.side) if s == color]
                if not side:
                    continue
                for attach in range(1, 1 << len(side)):
                    edges = list(base)
                    w = attach
                    while w:
                        b2 = w & -w
                        edges.append((side[b2.bit_length() - 1], new_vertex))
                        w ^= b2
                    child = Graph(n, frozenset(edges))
                    key = canonical_form(child)
                    if key not in forms:
                        forms[key] = canonical_graph(child)
        result = _dedup_sorted(forms)
    _bipartite_cache[n] = result
    return result


def all_graphs(n: int) -> list[Graph]:
    """Every graph on exactly n vertices up to isomorphism (brute force, n <= 6)."""
    if n < 0:
        return []
    if n > 6:
        raise ValueError("all_graphs enumerates 2^(n choose 2) labelings; n <= 6 only")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    forms: dict[tuple, Graph] = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph(n, frozenset(edges))
        key = canonical_form(g)
        if key not in forms:
            forms[key] = canonical_graph(g)
    return _dedup_sorted(forms)
