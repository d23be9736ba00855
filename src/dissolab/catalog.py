"""Isomorphism-free graph catalogs for exhaustive desk-scale testing.

Each catalog level grows from the one below by vertex augmentation: a parent
P on n-1 vertices gets a new vertex n-1 joined to a subset S of its vertices.
S is nonempty for connected graphs, nonempty and inside one side of P's
bipartition for connected bipartite graphs, and any subset for all graphs.

Only the first subset of each orbit of P's automorphism group is tried, as
one orbit gives isomorphic children. The group is the one P's canonical
search met (below), kept with each level until the next level is built.

Canonical deletion (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998) prunes the children before they are canonized. A vertex is
deletable when removing it leaves a graph of the same kind: a non-cut vertex
for the connected kinds, any vertex for all graphs. A child is kept only if
no deletable vertex outranks the new one by the isomorphism invariant
(degree, then sorted neighbour degrees). No class is lost: in any graph G of
the kind, take a deletable vertex w of largest rank. G - w is isomorphic to
some parent P, so G arises as P + S with the new vertex in w's place, and
that child passes, or one in its orbit does: the test ranks vertices by an
invariant with the new vertex fixed, so all subsets of an orbit get one
verdict. Ties and the orbits the search misses still give isomorphic
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
The search keeps the automorphisms it meets: a leaf whose rows equal the
best rows maps the best order onto its own, and a collapsed twin pair (u, v)
is the transposition (u v). They generate a subgroup of the automorphism
group, often all of it; any subgroup keeps the catalogs whole.
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


class _Form(tuple):
    """``(n, rows)``, compared, hashed and sorted as that tuple, with the
    ``automorphisms`` the search met: permutations of the canonical labels,
    ``perm[i]`` the image of i."""

    automorphisms: tuple[tuple[int, ...], ...] = ()


def canonical_form(g: Graph) -> tuple:
    """Hashable isomorphism invariant: (n, canonical adjacency rows), with
    the automorphisms its search met (see ``_Form``)."""
    n = g.n
    if n == 0:
        return _Form((0, ()))
    adj = g.adjacency_masks
    best: list[int] | None = None
    best_order: tuple[int, ...] = ()
    # automorphisms in g's labels as pairs (a, b): a[i] maps to b[i], and
    # every vertex not in a is fixed
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def complete_discrete(order: list[int], rows: list[int], better: bool,
                          colors: list[int]) -> None:
        # all cells are singletons: one forced extension, the vertices not
        # yet ordered (the lowest colours) in colour order
        nonlocal best, best_order
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
        if not pruned:
            if better or best is None:
                best = list(rows)
                best_order = tuple(order)
            else:
                # equal rows: best_order[i] -> order[i] preserves adjacency
                found.add((best_order, tuple(order)))
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
                    found.add(((u, v), (v, u)))
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
    form = _Form((n, tuple(best)))
    # relabel canonically: canonical vertex i is best_order[i]
    pos = {v: i for i, v in enumerate(best_order)}
    perms = set()
    for a, b in found:
        perm = list(range(n))
        for u, v in zip(a, b):
            perm[pos[u]] = pos[v]
        perms.add(tuple(perm))
    form.automorphisms = tuple(perms)
    return form


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
# (kind, n) -> (that catalog, each member's automorphisms from its search);
# only the top level built of each kind keeps them
_groups: dict[tuple[str, int], tuple[list[Graph], list[tuple]]] = {}


def _classes(kind: str, n: int, parents: Callable[[int], list[Graph]],
             candidates: Callable[[Graph], Iterable[int]]) -> list[Graph]:
    """One canonical representative per isomorphism class among the children
    of ``parents(n - 1)``, each joined to the ``candidates`` of its parent;
    sorted by canonical form and built once per (kind, n)."""
    if n > _LIMITS[kind]:
        raise InstanceTooLarge(n, _LIMITS[kind])
    if (kind, n) not in _cache:
        level = parents(n - 1)
        # each level is extended once, so its groups go now; without them
        # (a level given from outside) every subset is tried
        below, groups = _groups.pop((kind, n - 1), (None, None))
        if below is not level:
            groups = [()] * len(level)
        forms: dict[tuple, Graph] = {}
        for parent, group in zip(level, groups):
            for child in _attach(parent, group, candidates(parent), kind != "all"):
                form = canonical_form(child)
                if form not in forms:
                    forms[form] = _form_graph(form)
        ordered = sorted(forms)
        _cache[kind, n] = [forms[form] for form in ordered]
        _groups[kind, n] = (_cache[kind, n], [form.automorphisms for form in ordered])
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
    out = []
    while adj_v:
        b = adj_v & -adj_v
        out.append(deg[b.bit_length() - 1])
        adj_v ^= b
    out.sort()
    return out


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


def _orbit_representatives(masks: Iterable[int], group: Sequence[Sequence[int]],
                            n: int) -> list[int]:
    """The first of ``masks`` (subsets of n vertices, closed under ``group``)
    in each orbit of the group that the permutations of ``group`` generate."""
    if not group:
        return list(masks)
    tables = []
    for perm in group:
        # table[x] is the image of x, filled for x < 2^(v+1) at step v
        table = [0]
        for v in range(n):
            bit = 1 << perm[v]
            table += [y | bit for y in table]
        tables.append(table)
    seen = bytearray(1 << n)
    kept = []
    for x in masks:
        if not seen[x]:
            kept.append(x)
            seen[x] = 1
            stack = [x]
            while stack:
                y = stack.pop()
                for table in tables:
                    if not seen[z := table[y]]:
                        seen[z] = 1
                        stack.append(z)
    return kept


def _attach(parent: Graph, group: Sequence[Sequence[int]], masks: Iterable[int],
            connected: bool = True) -> Iterator[Graph]:
    """parent plus a new vertex joined to the first of ``masks`` in each orbit
    of ``group`` (automorphisms of parent), where it passes the
    canonical-deletion test."""
    new = parent.n
    bit = 1 << new
    base = parent.adjacency_masks
    for attach in _orbit_representatives(masks, group, new):
        adj = [a | bit if attach >> v & 1 else a for v, a in enumerate(base)]
        adj.append(attach)
        if _last_is_deletion_candidate(adj, connected):
            nbrs = tuple(v for v in range(new) if attach >> v & 1)
            # nbrs ascend and the new vertex is the largest: tuples stay sorted
            adjacency = list(parent.adjacency)
            for v in nbrs:
                adjacency[v] += (new,)
            yield Graph((*adjacency, nbrs))


def _side_subsets(g: Graph) -> list[int]:
    """The nonempty subsets of each side of g's bipartition, both sides in
    one list, since an automorphism may swap them."""
    masks = []
    for color in (0, 1):
        side = sum(1 << v for v, s in enumerate(g.side) if s == color)
        sub = 0
        while sub := (sub - side) & side:  # the next subset in ascending order
            masks.append(sub)
    return masks


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        return []
    return _classes("connected", n, connected_graphs, lambda p: range(1, 1 << p.n))


def connected_bipartite_graphs(n: int) -> list[Graph]:
    """All connected bipartite graphs on exactly n vertices, up to isomorphism.

    Augmentation attaches the new vertex inside a single side of the parent's
    bipartition, which is the only way to stay bipartite.
    """
    if n < 1:
        return []
    return _classes("bipartite", n, connected_bipartite_graphs, _side_subsets)


def all_graphs(n: int) -> list[Graph]:
    """Every graph on exactly n vertices up to isomorphism (n <= 6).

    Augmentation joins the new vertex to any subset of the parent's vertices,
    the empty one included, so isolated vertices arise too.
    """
    if n < 0:
        return []
    return _classes("all", n, all_graphs, lambda p: range(1 << p.n))
