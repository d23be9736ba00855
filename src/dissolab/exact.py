"""Exhaustive oracles: dissociation number, independence number, induced
matching number, and the inequality-chain report tying them together.

They are the ground truth the approximation, recognizer, and gadget modules
are tested against, so they stay deliberately simple. Three branch-and-bound
searches over bitmask sets do the work, all with greedy rules for vertices
whose fate is forced. Each tries the counting bound (chosen plus undecided)
first and a tighter bound only where that fails to prune. A bound prunes
only subtrees that cannot strictly beat the incumbent, and a search records
only strictly larger sets. The ``diss`` search starts from the greedy
dissociation set of ``_greedy_dissociation``, so its witness is that set
unless the search finds a strictly larger one; the other two start from
the empty set. Two steps are written once and shared:
``_star_pack_bound`` (the ``diss`` and ``nu_s`` searches) and
``_max_degree_vertex``, the branch choice of the ``diss`` search and the
kernel (lowest index on ties):

* ``_max_independent_set``, the one independent-set kernel, behind ``alpha``
  and the ``diss`` detour. Its leaf rule takes vertices of residual degree
  0 or 1; its cycle rule, once every residual degree is 2, takes the branch
  vertex without the exclude branch; its universal rule, once the branch
  vertex is adjacent to every other vertex, records it as a leaf and drops
  every such vertex in one step, where branching would exclude them one at
  a time (Fomin, Grandoni & Kratsch, 2009). Its bound is a greedy clique
  cover.
* the ``diss`` search in ``dissociation_number_exact``, started from a
  maximal dissociation set taken first fit in ascending degree order, and
  bounded by stars around the chosen vertices and by a packing of disjoint
  vertex sets whose non-edges form a matching, each admitting two vertices
  of a dissociation set: 3-vertex paths, and the K6 less a perfect matching
  of each fig4 clause block. This is the 3-path vertex cover view
  ``diss = n - psi_3`` (Bresar et al., 2011): such a set of s vertices
  needs s - 2 of them in the cover.
* the ``nu_s`` search in ``induced_matching_number_exact``: the ``diss``
  search restricted to sets in which every chosen vertex has exactly one
  chosen neighbour, over the vertices of g rather than the edge-conflict
  graph. It branches on a residual leaf where it finds one. On top of the
  ``diss`` bounds it bounds the pairs by a degree sum.

The sweeps that apply the greedy rules are incremental: a vertex is
examined again only after a neighbour has changed state, in the ascending
order of a full pass. So they settle the same vertices, in the same order,
as repeated full passes would, and give the same search tree with fewer
vertex visits.

``diss_via_induced_matchings`` enumerates maximal induced matchings, as
independent sets of the edge-conflict graph (Cameron, 1989), and runs the
kernel on each ``G - M`` that ``alpha(G) + |M|`` does not rule out, with the
best value so far as the kernel's floor; it stays as the reference for
``diss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graph import Graph
from .matching import Matching, is_induced_matching, matching_from_edges

__all__ = [
    "InstanceTooLarge",
    "InvariantReport",
    "EXACT_CUTOFF",
    "is_dissociation_set",
    "is_independent_set",
    "dissociation_number_exact",
    "independence_number_exact",
    "induced_matching_number_exact",
    "diss_via_induced_matchings",
    "check_inequality_chain",
    "matching_number_bruteforce",
    "SOLVERS",
]

# default vertex cutoff of every oracle, in the library and on the command line
EXACT_CUTOFF = 40


class InstanceTooLarge(Exception):
    """A graph over the oracle cutoff; a RuntimeError means a solver bug instead."""

    def __init__(self, n: int, cutoff: int):
        super().__init__(f"instance has {n} vertices, cutoff is {cutoff}")
        self.n = n
        self.cutoff = cutoff


def is_dissociation_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex of s has at most one neighbour inside s."""
    chosen = set(s)
    adj = g.adjacency
    for v in chosen:
        if len(chosen.intersection(adj[v])) > 1:
            return False
    return True


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two vertices of s are adjacent."""
    chosen = set(s)
    adj = g.adjacency
    for v in chosen:
        if not chosen.isdisjoint(adj[v]):
            return False
    return True


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def _union(masks: Sequence[int], mask: int) -> int:
    """The union of ``masks[v]`` over the vertices v of ``mask``."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= masks[bit.bit_length() - 1]
    return out


def _star_pack_bound(
    adj: Sequence[int], undecided: int, free: int, bound: int, floor: int
) -> tuple[int, int]:
    """Tighten the counting ``bound`` by stars and packed vertex sets.

    Needs that no undecided vertex has two chosen neighbours and that no
    vertex of ``free`` (the unpaired chosen ones) has a chosen one. Then the
    undecided neighbours of the vertices of free form disjoint stars, each
    admitting one vertex. Among the other undecided vertices, disjoint sets
    S whose non-edges form a matching are packed: any three vertices of S
    span at least two edges, so a dissociation set takes at most 2 of S,
    and S subtracts |S| - 2. Each S starts from the lowest vertex v left
    with two neighbours left, and its two lowest ones a and c, and grows by
    the lowest vertex adjacent to all of S, else by the lowest one that
    misses exactly one member, which misses no other member. Stops once the
    bound is at most ``floor``. Returns the bound and the undecided
    vertices outside the stars.
    """
    stars = 0
    w = free
    while w:
        bit = w & -w
        w ^= bit
        nu = adj[bit.bit_length() - 1] & undecided
        if nu:
            bound -= nu.bit_count() - 1
            stars |= nu
    rest = undecided ^ stars
    if bound <= floor:
        return bound, rest
    left = w = rest
    while w:
        bit = w & -w
        w ^= bit
        if not left & bit:
            continue
        nv = adj[bit.bit_length() - 1]
        nb = nv & left
        if nb & (nb - 1):
            a = nb & -nb
            nb ^= a
            c = nb & -nb
            members = bit | a | c
            left ^= members
            bound -= 1
            na = adj[a.bit_length() - 1]
            nc = adj[c.bit_length() - 1]
            # near: the vertices that may join, which miss at most one
            # member, and only one that misses no other member (when a and
            # c miss each other, only v); full: those adjacent to every member
            if na & c:
                near = (nv & (na | nc) | na & nc) & left
            else:
                near = na & nc & left
            full = near & nv & na & nc
            while near:
                if full:
                    # x misses no member, so what else of full misses x
                    # still misses only one
                    x = full & -full
                    nx = adj[x.bit_length() - 1]
                    near = (near & nx | full) ^ x
                    full &= nx
                else:
                    # x and the member it misses now miss each other, so no
                    # other vertex may miss either
                    x = near & -near
                    nx = adj[x.bit_length() - 1]
                    near &= nx & adj[(members & ~nx).bit_length() - 1]
                members |= x
                left ^= x
                bound -= 1
            if bound <= floor:
                break
    return bound, rest


def _max_degree_vertex(adj: Sequence[int], mask: int) -> tuple[int, int]:
    """The vertex of ``mask`` with the most neighbours in ``mask``, lowest
    index on ties, and that degree."""
    bv = -1
    bd = -1
    w = mask
    while w:
        bit = w & -w
        w ^= bit
        v = bit.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d > bd:
            bd = d
            bv = v
    return bv, bd


def _greedy_dissociation(adj: Sequence[int], n: int) -> tuple[int, int]:
    """A maximal dissociation set of the graph on vertices 0..n-1, as
    (size, mask).

    One first-fit pass in ascending (degree, index) order: v joins when it
    has no chosen neighbour, or one chosen neighbour that has none. A vertex
    that fails to join fails for good, since the chosen set only grows, so
    the set is maximal. Degree order takes pendants first: on an IS gadget
    it takes every pendant, then the (k - 1)K2 block, which is optimal, so
    the search there only proves it in a few nodes.
    """
    chosen = 0
    for v in sorted(range(n), key=lambda v: adj[v].bit_count()):
        cn = adj[v] & chosen
        if not cn or (not cn & (cn - 1) and not adj[cn.bit_length() - 1] & chosen):
            chosen |= 1 << v
    return chosen.bit_count(), chosen


def dissociation_number_exact(
    g: Graph, *, cutoff: int = EXACT_CUTOFF
) -> tuple[int, frozenset[int]]:
    """Exact diss(g) with a witness.

    The incumbent starts as the greedy set of ``_greedy_dissociation``,
    and only a strictly larger set replaces it, so the witness is the
    greedy set unless the search finds a larger one. Where the root bound
    already meets the greedy value, as on the fig4 gadgets, the search
    takes one node. Branches on a maximum-residual-degree vertex (lowest
    index on ties); chosen vertices carry at most one chosen neighbour, and
    pairing two chosen vertices excludes all their other neighbours.
    Vertices with no undecided neighbour are settled at once (safe by a
    direct exchange argument). A residual leaf is not: taken, it would
    leave its neighbour a one-vertex star, which the bound credits nothing,
    where undecided it can end a packed 3-vertex path. A node is pruned
    when chosen plus undecided, less all but one undecided neighbour of
    each unpaired chosen vertex, less all but two vertices of each set
    packed among the other undecided vertices, cannot beat the best set
    found. A packed set has non-edges that form a matching, so any three of
    its vertices span a 3-vertex path or a triangle.
    """
    n = g.n
    if n > cutoff:
        raise InstanceTooLarge(n, cutoff)
    if n == 0:
        return 0, frozenset()
    adj = g.adjacency_masks
    best_size, best_mask = _greedy_dissociation(adj, n)

    def rec(undecided: int, chosen: int, free: int, dirty: int) -> None:
        nonlocal best_size, best_mask
        # sweep: settle vertices with two chosen neighbours or no undecided
        # one, in ascending passes over w. Invariant: an undecided vertex in
        # neither w nor dirty has had no neighbour change state since it
        # last failed to settle, so it would fail again and is skipped
        w = dirty & undecided
        while w:
            dirty = 0
            while w:
                bit = w & -w
                w ^= bit
                if not undecided & bit:
                    continue  # settled earlier in this pass
                v = bit.bit_length() - 1
                touched = adj[v]
                du = touched & undecided
                cn = touched & chosen
                if cn & (cn - 1):
                    # two chosen neighbours: v can never join
                    undecided ^= bit
                elif du == 0:
                    undecided ^= bit
                    if cn == 0:
                        chosen |= bit
                        free |= bit
                    elif cn & free:
                        # pair v with its chosen neighbour
                        u = cn.bit_length() - 1
                        chosen |= bit
                        free &= ~cn
                        gone = undecided & adj[u]
                        undecided ^= gone
                        touched |= adj[u] | _union(adj, gone)
                    # else: neighbour already paired, v stays out
                else:
                    continue
                # later vertices join this pass, earlier ones the next
                touched &= undecided
                w |= touched & -bit
                dirty |= touched & (bit - 1)
            w = dirty & undecided
        size = chosen.bit_count()
        if size > best_size:
            best_size = size
            best_mask = chosen
        bound = size + undecided.bit_count()
        if bound <= best_size:
            return
        # the sweep leaves no undecided vertex two chosen neighbours, and
        # pairing drops the undecided neighbours of both partners
        bound, _ = _star_pack_bound(adj, undecided, free, bound, best_size)
        if bound <= best_size:
            return
        bv, _ = _max_degree_vertex(adj, undecided)
        bit = 1 << bv
        cn = adj[bv] & chosen
        undecided ^= bit
        # each child revisits the neighbours of the vertices it decides
        if cn == 0:
            rec(undecided, chosen | bit, free | bit, adj[bv])
        elif cn & (cn - 1) == 0 and cn & free:
            u = cn.bit_length() - 1
            gone = undecided & (adj[bv] | adj[u])
            rec(
                undecided ^ gone,
                chosen | bit,
                free & ~cn,
                adj[bv] | adj[u] | _union(adj, gone),
            )
        rec(undecided, chosen, free, adj[bv])

    rec((1 << n) - 1, 0, 0, (1 << n) - 1)
    witness = _mask_to_set(best_mask)
    if not is_dissociation_set(g, witness):
        raise RuntimeError("dissociation search returned a set that is not a dissociation set")
    return best_size, witness


def _max_independent_set(adj: tuple[int, ...], avail0: int, floor: int = -1) -> tuple[int, int]:
    """Maximum independent set among the vertices of ``avail0``: (size, mask).

    ``adj[v]`` is the neighbour mask of v, which never holds v itself. Only
    sets larger than ``floor`` are recorded: when none is, the result is
    ``(floor, 0)``.
    """
    best_size = floor
    best_mask = 0

    def rec(avail: int, chosen: int, dirty: int) -> None:
        nonlocal best_size, best_mask
        # sweep in ascending order over w: taking a vertex of degree 0
        # changes no other degree, and taking a leaf changes only those of
        # its partner's neighbours, so only they are rescanned
        w = dirty & avail
        while w:
            bit = w & -w
            w ^= bit
            v = bit.bit_length() - 1
            d = adj[v] & avail
            if d == 0:
                avail ^= bit
                chosen |= bit
            elif d & (d - 1) == 0:
                # leaf: taking it is always optimal
                avail &= ~(bit | d)
                chosen |= bit
                w = (w | adj[d.bit_length() - 1]) & avail
        size = chosen.bit_count()
        if size > best_size:
            best_size = size
            best_mask = chosen
        if size + avail.bit_count() <= best_size:
            return
        # clique cover bound: an independent set takes one vertex per clique,
        # so prune once avail is covered by best_size - size cliques. Each
        # grows from the lowest uncovered vertex, adding the lowest vertex
        # adjacent to all of it
        room = best_size - size
        uncovered = avail
        while uncovered and room:
            room -= 1
            clique = uncovered & -uncovered
            cand = adj[clique.bit_length() - 1] & uncovered
            while cand:
                bit = cand & -cand
                clique |= bit
                cand &= adj[bit.bit_length() - 1]
            uncovered &= ~clique
        if not uncovered:
            return
        bv, max_deg = _max_degree_vertex(adj, avail)
        bit = 1 << bv
        top = avail.bit_count() - 1
        if max_deg == top:
            # universal rule. bv is adjacent to every other vertex, and it is
            # the lowest-index universal vertex: a non-universal vertex misses
            # some vertex other than bv, so its degree is lower. Branching
            # would take the include leaf {bv}, then run down the exclude
            # chain through the other universal vertices U in ascending
            # order; their include leaves have size + 1 too, so they never
            # strictly beat the incumbent. Inside that chain a vertex can
            # settle only as a leaf hanging off the last universal vertex,
            # and such a vertex is isolated in avail - U, so it is taken
            # either way. The chain thus ends at the node avail - U with
            # everything dirty, and jumping there finds the same first
            # strictly improving sets.
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = chosen | bit
            rest = avail ^ bit
            w = rest & -(bit << 1)
            while w:
                b = w & -w
                w ^= b
                if (adj[b.bit_length() - 1] & avail).bit_count() == top:
                    rest ^= b
            rec(rest, chosen, rest)
            return
        # the include branch rescans everything: rescanning only the
        # neighbours of N(bv) gives the same tree, yet made alpha on
        # G(n, p) with n = 26-36 about a quarter slower
        rest = avail & ~(bit | adj[bv])
        rec(rest, chosen | bit, rest)
        # all degrees 2: disjoint cycles, and any vertex lies in some maximum set
        if max_deg > 2:
            rec(avail ^ bit, chosen, adj[bv])

    rec(avail0, 0, avail0)
    return best_size, best_mask


def independence_number_exact(
    g: Graph, *, cutoff: int = EXACT_CUTOFF
) -> tuple[int, frozenset[int]]:
    """Exact independence number with a witness (branch and bound)."""
    n = g.n
    if n > cutoff:
        raise InstanceTooLarge(n, cutoff)
    size, mask = _max_independent_set(g.adjacency_masks, (1 << n) - 1)
    witness = _mask_to_set(mask)
    if not is_independent_set(g, witness):
        raise RuntimeError("independent set search returned a set that is not independent")
    return size, witness


def _edge_conflicts(g: Graph) -> tuple[list[tuple[int, int]], list[int]]:
    """Conflict masks for edges: sharing a vertex or joined by a host edge."""
    edges = list(g.edge_list)
    adj = g.adjacency_masks
    incident = [0] * g.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    conflict = []
    for i, (u, v) in enumerate(edges):
        # edge uv meets every edge touching N[u] | N[v], which is N(u) | N(v)
        conflict.append(_union(incident, adj[u] | adj[v]) & ~(1 << i))
    return edges, conflict


def induced_matching_number_exact(
    g: Graph, *, cutoff: int = EXACT_CUTOFF
) -> tuple[int, Matching]:
    """Exact induced matching number with a witness.

    An induced matching is a dissociation set in which every chosen vertex
    has exactly one chosen neighbour, its partner: the 1-regular case of
    Gupta, Raman & Saurabh (2012). So this is the ``diss`` search over the
    vertices of g, with its state and branching, that records only sets in
    which every chosen vertex is paired. A free chosen vertex must find its
    partner among its undecided neighbours, and a residual leaf branches
    into pairing with its neighbour or dropping that neighbour. The bounds,
    in vertices, are the counting, star and packing bounds of ``diss``,
    then a degree sum on the pairs among undecided vertices without a
    chosen neighbour.
    """
    n = g.n
    if n > cutoff:
        raise InstanceTooLarge(n, cutoff)
    adj = g.adjacency_masks
    best_size = 0
    best_mask = 0

    def rec(undecided: int, chosen: int, free: int, dirty: int) -> None:
        nonlocal best_size, best_mask
        # sweep, incremental as in the diss search, over the undecided and
        # the free chosen vertices. Pairing two vertices drops every
        # undecided neighbour of both, so no undecided vertex ever has a
        # paired chosen neighbour
        live = undecided | free
        w = dirty & live
        while w:
            dirty = 0
            while w:
                bit = w & -w
                w ^= bit
                v = bit.bit_length() - 1
                touched = adj[v]
                du = touched & undecided
                if free & bit:
                    if du == 0:
                        return  # v can never be paired
                    if du & (du - 1):
                        continue
                    # one candidate partner x left: the pair is forced,
                    # unless another chosen neighbour keeps x out
                    x = du.bit_length() - 1
                    if adj[x] & chosen != bit:
                        return
                    undecided ^= du
                    chosen |= du
                    free ^= bit
                    gone = undecided & (touched | adj[x])
                    undecided ^= gone
                    touched |= adj[x] | _union(adj, gone)
                elif not undecided & bit:
                    continue  # settled earlier in this pass
                else:
                    cn = touched & chosen
                    if cn & (cn - 1):
                        undecided ^= bit  # two chosen neighbours
                    elif du == 0:
                        undecided ^= bit
                        if cn:
                            # its free chosen neighbour u is its only way
                            # in, and u may as well take v as any partner
                            chosen |= bit
                            free ^= cn
                            gone = undecided & adj[cn.bit_length() - 1]
                            undecided ^= gone
                            touched |= _union(adj, cn | gone)
                        # else: no partner left, v stays out
                    else:
                        continue
                # later vertices join this pass, earlier ones the next
                live = undecided | free
                touched &= live
                w |= touched & -bit
                dirty |= touched & (bit - 1)
            w = dirty & live
        size = chosen.bit_count()
        if not free and size > best_size:
            best_size = size
            best_mask = chosen
        # an induced matching has an even number of vertices, so a bound b
        # on its size prunes once b <= best_size + 1
        bound = size + undecided.bit_count()
        if bound <= best_size + 1:
            return
        # the star and packing bounds of the diss search. The sweep leaves
        # every free vertex an undecided neighbour, and no undecided vertex
        # two chosen ones, so each free vertex adds exactly one vertex of
        # its star: the undecided vertices outside the stars form rest
        bound, rest = _star_pack_bound(adj, undecided, free, bound, best_size + 1)
        if bound <= best_size + 1:
            return
        # pairs inside rest that would not beat the incumbent; a vertex of
        # rest with no neighbour in rest can pair only with a star vertex,
        # whose partner is already fixed, so it stays out of every set
        room = (best_size - size - free.bit_count()) >> 1
        if room >= 0:
            degrees = []
            w = rest
            while w:
                bit = w & -w
                w ^= bit
                d = (adj[bit.bit_length() - 1] & rest).bit_count()
                if d:
                    degrees.append(d)
                else:
                    rest ^= bit
            # degree-sum bound: room + 1 pairs need their 2(room + 1)
            # degrees, less room + 1 for the pair edges, within the edges
            # of rest
            need = 2 * room + 2
            if len(degrees) < need:
                return
            degrees.sort()
            if sum(degrees[:need]) - room - 1 > sum(degrees) >> 1:
                return
        # branch vertex: a residual leaf of rest whose neighbour is in rest
        # too, else max residual degree; lowest index on ties
        bv = -1
        bd = -1
        leaf = 0
        w = undecided
        while w:
            bit = w & -w
            w ^= bit
            v = bit.bit_length() - 1
            nb = adj[v] & undecided
            d = nb.bit_count()
            if d == 1 and nb & rest and bit & rest:
                leaf = bit
                break
            if d > bd:
                bd = d
                bv = v
        if leaf:
            # a set in which x has another partner can swap it for the leaf,
            # so pair leaf-x or leave x out, and the sweep drops the leaf;
            # when x is a leaf too, the edge is a component of its own and
            # the pair is always taken
            xb = adj[leaf.bit_length() - 1] & undecided
            x = xb.bit_length() - 1
            others = undecided ^ leaf ^ xb
            gone = others & adj[x]
            rec(others ^ gone, chosen | leaf | xb, free, _union(adj, gone | xb))
            if gone:
                rec(undecided ^ xb, chosen, free, adj[x])
            return
        bit = 1 << bv
        cn = adj[bv] & chosen
        undecided ^= bit
        # each child revisits the neighbours of the vertices it decides
        if cn == 0:
            rec(undecided, chosen | bit, free | bit, adj[bv] | bit)
        else:
            # the sweep left bv one chosen neighbour, and it is free
            u = cn.bit_length() - 1
            gone = undecided & (adj[bv] | adj[u])
            rec(
                undecided ^ gone,
                chosen | bit,
                free ^ cn,
                _union(adj, bit | cn | gone),
            )
        rec(undecided, chosen, free, adj[bv])

    rec((1 << n) - 1, 0, 0, (1 << n) - 1)
    picked = [(u, v) for u, v in g.edge_list if best_mask >> u & best_mask >> v & 1]
    if 2 * len(picked) != best_size or not is_induced_matching(g, picked):
        raise RuntimeError("induced matching search returned a non-induced matching")
    return best_size >> 1, matching_from_edges(g, picked)


def diss_via_induced_matchings(
    g: Graph, *, cutoff: int = EXACT_CUTOFF
) -> int:
    """max over induced matchings M (empty included) of alpha(g - M).

    alpha(g - M) is monotone in M (removing more edges never shrinks it),
    so only maximal induced matchings need evaluating; the empty matching
    is the maximal one exactly when g has no edges. Removing an edge raises
    alpha by at most 1, so alpha(g - M) <= alpha(g) + |M|: a matching whose
    bound cannot beat the best so far is skipped, and the kernel runs on the
    others with that best as its floor.
    """
    if g.n > cutoff:
        raise InstanceTooLarge(g.n, cutoff)
    edges, conflict = _edge_conflicts(g)
    k = len(edges)
    base_adj = g.adjacency_masks
    full_vertices = (1 << g.n) - 1
    if k == 0:
        return g.n
    full_edges = (1 << k) - 1
    alpha, _ = _max_independent_set(base_adj, full_vertices)
    best = alpha

    def evaluate(chosen: int) -> None:
        nonlocal best
        if alpha + chosen.bit_count() <= best:
            return
        masks = list(base_adj)
        w = chosen
        while w:
            bit = w & -w
            w ^= bit
            u, v = edges[bit.bit_length() - 1]
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
        best, _ = _max_independent_set(tuple(masks), full_vertices, best)

    def rec(avail: int, chosen: int, blocked: int) -> None:
        # take each available edge in turn, else leave it out; a loop, not
        # a second call, so the depth is the matching's size, not the edge count
        while avail:
            bit = avail & -avail
            e = bit.bit_length() - 1
            rec(avail & ~bit & ~conflict[e], chosen | bit, blocked | conflict[e])
            avail ^= bit
        if full_edges & ~chosen & ~blocked:
            return  # extendable: a strictly better superset is visited elsewhere
        evaluate(chosen)

    rec(full_edges, 0, 0)
    return best


# invariant -> (graph, cutoff) -> (value, witness); looked up at call time, so
# a rebinding of these functions (by a tracer, say) reaches every caller
SOLVERS = {
    "diss": lambda g, cutoff: dissociation_number_exact(g, cutoff=cutoff),
    "alpha": lambda g, cutoff: independence_number_exact(g, cutoff=cutoff),
    "nu_s": lambda g, cutoff: induced_matching_number_exact(g, cutoff=cutoff),
}


# prediction name -> relation over value(invariant), in the order solve prints
# them; the paper shows that deciding each of the first four is NP-hard
EQUALITIES = {
    "diss_eq_2alpha": lambda value: value("diss") == 2 * value("alpha"),
    "diss_eq_2nus": lambda value: value("diss") == 2 * value("nu_s"),
    "diss_eq_alpha": lambda value: value("diss") == value("alpha"),
    "diss_eq_alpha_plus_nus": lambda value: value("diss") == value("alpha") + value("nu_s"),
    "alpha_plus_nus_eq_2alpha":
        lambda value: value("alpha") + value("nu_s") == 2 * value("alpha"),
}


def chain_equalities(values: Mapping[str, int]) -> dict[str, bool]:
    """The EQUALITIES flags of solved diss, alpha and nu_s values.

    The chain max(alpha, 2 nu_s) <= diss <= alpha + nu_s <= 2 alpha is
    checked first, and a violation, which would mean a solver bug, raises
    RuntimeError.
    """
    diss, alpha, nu_s = values["diss"], values["alpha"], values["nu_s"]
    if not max(alpha, 2 * nu_s) <= diss <= alpha + nu_s <= 2 * alpha:
        raise RuntimeError(
            "max(alpha, 2 nu_s) <= diss <= alpha + nu_s <= 2 alpha fails for "
            f"diss={diss} alpha={alpha} nu_s={nu_s}"
        )
    return {name: relation(values.__getitem__) for name, relation in EQUALITIES.items()}


@dataclass(frozen=True)
class InvariantReport:
    """diss/alpha/nu_s with witnesses and the EQUALITIES flags."""

    diss: int
    alpha: int
    nu_s: int
    diss_witness: frozenset[int]
    alpha_witness: frozenset[int]
    nu_s_witness: Matching
    equalities: Mapping[str, bool]


def check_inequality_chain(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> InvariantReport:
    """All three invariants by SOLVERS, with their chain_equalities."""
    solved = {name: solve(g, cutoff) for name, solve in SOLVERS.items()}
    values = {name: value for name, (value, _) in solved.items()}
    return InvariantReport(**values, **{f"{name}_witness": w for name, (_, w) in solved.items()},
                           equalities=chain_equalities(values))


def matching_number_bruteforce(g: Graph) -> int:
    """Matching number by memoized exhaustive search (independent of HK)."""
    adj = g.adjacency_masks
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            if adj[v] & avail:
                break
            avail ^= bit
        else:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        bit = avail & -avail
        v = bit.bit_length() - 1
        best = rec(avail ^ bit)
        w = adj[v] & avail
        while w:
            b2 = w & -w
            w ^= b2
            best = max(best, 1 + rec(avail ^ bit ^ b2))
        memo[avail] = best
        return best

    return rec((1 << g.n) - 1)
