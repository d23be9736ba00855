import hashlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from dissolab import exact
from dissolab.catalog import all_graphs, connected_graphs
from dissolab.corpus import join_input_corpus, random_graph_corpus
from dissolab.exact import (
    EXACT_CUTOFF,
    InstanceTooLarge,
    _edge_conflicts,
    _max_independent_set,
    check_inequality_chain,
    diss_via_induced_matchings,
    dissociation_number_exact,
    independence_number_exact,
    induced_matching_number_exact,
    is_dissociation_set,
    is_independent_set,
    matching_number_bruteforce,
)
from dissolab.matching import is_induced_matching
from dissolab.graph import new_graph, random_graph
from dissolab.reductions import (
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    parse_cnf,
)

from strategies import graphs


# edges x-p, x-z, y-z, z-q, q-r as 0-1, 0-2, 3-2, 2-4, 4-5
NESTED_NEIGHBOURHOODS = new_graph(6, [(0, 1), (0, 2), (3, 2), (2, 4), (4, 5)])


def c5():
    return new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def c6():
    return new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def relabelled(n, edges, seed):
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return new_graph(n, [(label[u], label[v]) for u, v in edges])


def naive_diss(g):
    for r in range(g.n, -1, -1):
        for sub in combinations(range(g.n), r):
            if is_dissociation_set(g, sub):
                return r
    return 0


def naive_alpha(g):
    for r in range(g.n, -1, -1):
        for sub in combinations(range(g.n), r):
            if is_independent_set(g, sub):
                return r
    return 0


def naive_nus(g):
    best = 0
    for r in range(len(g.edge_list), 0, -1):
        for sub in combinations(g.edge_list, r):
            if is_induced_matching(g, sub):
                return r
    return best


class TestDissociationSetPredicate:
    def test_c6_valid(self):
        assert is_dissociation_set(c6(), {0, 1, 3, 4})

    def test_degree_two_invalid(self):
        assert not is_dissociation_set(c6(), {0, 1, 2})

    def test_empty_set(self):
        assert is_dissociation_set(c6(), set())


class TestDissociationNumber:
    def test_k2(self):
        assert dissociation_number_exact(new_graph(2, [(0, 1)]))[0] == 2

    def test_c6(self):
        value, witness = dissociation_number_exact(c6())
        assert value == 4 == naive_diss(c6())
        assert is_dissociation_set(c6(), witness) and len(witness) == 4

    def test_c5(self):
        assert dissociation_number_exact(c5())[0] == 3

    def test_cutoff(self):
        g = new_graph(EXACT_CUTOFF + 1, [])
        with pytest.raises(InstanceTooLarge):
            dissociation_number_exact(g)
        assert dissociation_number_exact(g, cutoff=g.n)[0] == g.n


class TestDissociationBounds:
    """The star and P3 bounds must never prune a subtree holding a better set."""

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("n", [12, 14, 16, 18, 20])
    def test_random_graphs_match_detour(self, n, p):
        for seed in range(3):
            g = random_graph(n, p, 1000 * n + seed)
            assert dissociation_number_exact(g)[0] == diss_via_induced_matchings(g)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "stars,paths",
        [((3,), (14,)), ((4,), (14,)), ((2, 3), (6, 7)), ((3, 3), (11,))],
        ids=["s3-p14", "s4-p14", "s23-p67", "s33-p11"],
    )
    def test_stars_and_paths(self, stars, paths, seed):
        # taking a star centre first leaves a worse incumbent to beat; a
        # chosen path vertex with undecided neighbours makes a star, and the
        # inner vertices of a path the sweep leaves undecided pack into P3s
        edges = []
        start = 0
        for k in stars:
            edges += [(start, start + i) for i in range(1, k + 1)]
            start += k + 1
        for k in paths:
            edges += [(start + i, start + i + 1) for i in range(k - 1)]
            start += k
        g = relabelled(start, edges, seed)
        value, witness = dissociation_number_exact(g)
        assert value == naive_diss(g) == len(witness)

    @pytest.mark.parametrize(
        "corpus",
        [lambda: [g for n in range(1, 8) for g in connected_graphs(n)],
         lambda: [random_graph(n, p, 100 * n + seed) for n in range(4, 13)
                  for p in (0.2, 0.4, 0.6, 0.8) for seed in range(3)]],
        ids=["connected-n7", "gnp-n12"],
    )
    def test_root_bound_never_below_diss(self, corpus):
        # at the root nothing is chosen and nothing is settled, so the bound
        # is n less the packing alone, and no set it packs may admit fewer
        # vertices of a dissociation set than it is credited with
        for g in corpus():
            everything = (1 << g.n) - 1
            bound, _ = exact._star_pack_bound(g.adjacency_masks, everything, 0, g.n, -1)
            assert bound >= naive_diss(g)


class TestGreedyDissociation:
    """The starting incumbent of the diss search."""

    @pytest.mark.parametrize(
        "corpus",
        [lambda: [g for n in range(1, 8) for g in connected_graphs(n)],
         lambda: [random_graph(n, p, 100 * n + seed) for n in range(2, 15)
                  for p in (0.1, 0.2, 0.3, 0.5, 0.7) for seed in range(3)]],
        ids=["connected-n7", "gnp-n14"],
    )
    def test_maximal_dissociation_set(self, corpus):
        # the detour shares no code with the greedy or the diss search
        for g in corpus():
            size, mask = exact._greedy_dissociation(g.adjacency_masks, g.n)
            chosen = {v for v in range(g.n) if mask >> v & 1}
            assert size == len(chosen) and is_dissociation_set(g, chosen)
            for v in set(range(g.n)) - chosen:
                assert not is_dissociation_set(g, chosen | {v})
            assert size <= diss_via_induced_matchings(g)


class TestIndependenceNumber:
    def test_c6(self):
        value, witness = independence_number_exact(c6())
        assert value == 3 and is_independent_set(c6(), witness)

    def test_edgeless(self):
        assert independence_number_exact(new_graph(4, []))[0] == 4

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            independence_number_exact(new_graph(EXACT_CUTOFF + 1, []))

    @pytest.mark.parametrize("seed", range(3))
    def test_disjoint_cycles(self, seed):
        # C3..C13 side by side, relabelled: no degree above 2, so no exclude branch runs
        lengths = range(3, 14)
        edges = []
        start = 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        g = relabelled(start, edges, seed)
        value, witness = independence_number_exact(g, cutoff=g.n)
        assert value == sum(k // 2 for k in lengths) == len(witness)
        assert is_independent_set(g, witness)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("a", range(3, 7))
    @pytest.mark.parametrize("b", range(3, 7))
    def test_cycles_joined_by_hub(self, a, b, seed):
        # hub 0 meets C_a once and C_b twice, so cycles are left below a branch;
        # relabelling varies which degree-3 vertex is branched on
        cycle_a = [(1 + i, 1 + (i + 1) % a) for i in range(a)]
        cycle_b = [(1 + a + i, 1 + a + (i + 1) % b) for i in range(b)]
        hub = [(0, 1), (0, 1 + a), (0, 1 + a + b // 2)]
        g = relabelled(1 + a + b, cycle_a + cycle_b + hub, seed)
        value, witness = independence_number_exact(g)
        assert value == naive_alpha(g) == len(witness)
        assert is_independent_set(g, witness)


class TestInducedMatchingNumber:
    def test_k2(self):
        assert induced_matching_number_exact(new_graph(2, [(0, 1)]))[0] == 1

    def test_c6(self):
        value, matching = induced_matching_number_exact(c6())
        assert value == 2 and is_induced_matching(c6(), matching.edges)

    def test_c5(self):
        assert induced_matching_number_exact(c5())[0] == 1

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            induced_matching_number_exact(new_graph(EXACT_CUTOFF + 1, []))

    def test_never_builds_edge_conflicts(self, monkeypatch):
        # the search runs on the vertices of g; only the detour and the
        # reference below build the edge-conflict graph
        def refuse(g):
            raise RuntimeError("nu_s built the edge-conflict graph")

        monkeypatch.setattr(exact, "_edge_conflicts", refuse)
        assert induced_matching_number_exact(c6())[0] == 2

    def test_nested_neighbourhoods(self):
        # N(y) ⊆ N(x) with x, y non-adjacent, yet the only maximum induced
        # matching uses x: a rule dropping x here would give 1
        value, matching = induced_matching_number_exact(NESTED_NEIGHBOURHOODS)
        assert value == 2 and matching.edges == {(0, 1), (4, 5)}


class TestChainReport:
    def test_k2_flags(self):
        r = check_inequality_chain(new_graph(2, [(0, 1)]))
        assert (r.diss, r.alpha, r.nu_s) == (2, 1, 1)
        assert r.equalities["diss_eq_2alpha"] and r.equalities["diss_eq_2nus"]
        assert r.equalities["diss_eq_alpha_plus_nus"]
        assert r.equalities["alpha_plus_nus_eq_2alpha"]
        # diss(K2)=2 but alpha(K2)=1, so this one flag is off
        assert not r.equalities["diss_eq_alpha"]

    def test_c6_flags(self):
        r = check_inequality_chain(c6())
        assert (r.diss, r.alpha, r.nu_s) == (4, 3, 2)
        assert r.equalities["diss_eq_2nus"]
        assert not (
            r.equalities["diss_eq_2alpha"]
            or r.equalities["diss_eq_alpha"]
            or r.equalities["diss_eq_alpha_plus_nus"]
            or r.equalities["alpha_plus_nus_eq_2alpha"]
        )

    def test_c5_flags(self):
        r = check_inequality_chain(c5())
        assert (r.diss, r.alpha, r.nu_s) == (3, 2, 1)
        assert r.equalities["diss_eq_alpha_plus_nus"]
        assert not (r.equalities["diss_eq_2alpha"] or r.equalities["diss_eq_2nus"]
                    or r.equalities["diss_eq_alpha"])


def unpruned_detour(g):
    """max of alpha(g - M) over every maximal induced matching M, each
    evaluated in full: the detour's enumeration without its prune."""
    edges, conflict = _edge_conflicts(g)
    full = (1 << len(edges)) - 1
    if not edges:
        return g.n
    values = []

    def rec(avail, chosen, blocked):
        while avail:
            bit = avail & -avail
            e = bit.bit_length() - 1
            rec(avail & ~bit & ~conflict[e], chosen | bit, blocked | conflict[e])
            avail ^= bit
        if not full & ~chosen & ~blocked:
            masks = list(g.adjacency_masks)
            for e in range(len(edges)):
                if chosen >> e & 1:
                    u, v = edges[e]
                    masks[u] &= ~(1 << v)
                    masks[v] &= ~(1 << u)
            values.append(_max_independent_set(tuple(masks), (1 << g.n) - 1)[0])

    rec(full, 0, 0)
    return max(values)


@given(graphs(max_n=9))
@settings(max_examples=200, deadline=None)
def test_kernel_floor_is_returned_unless_beaten(g):
    full = (1 << g.n) - 1
    alpha, witness = _max_independent_set(g.adjacency_masks, full)
    for floor in range(-1, alpha + 2):
        size, mask = _max_independent_set(g.adjacency_masks, full, floor)
        if floor >= alpha:
            assert (size, mask) == (floor, 0)
        else:
            assert size == alpha == mask.bit_count()
            assert is_independent_set(g, {v for v in range(g.n) if mask >> v & 1})


class TestInducedMatchingDetour:
    @pytest.mark.parametrize(
        "graph,expected",
        [(new_graph(2, [(0, 1)]), 2), (c6(), 4), (c5(), 3)],
        ids=["k2", "c6", "c5"],
    )
    def test_examples(self, graph, expected):
        assert diss_via_induced_matchings(graph) == expected

    def test_matches_diss_on_small_catalog(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                assert diss_via_induced_matchings(g) == dissociation_number_exact(g)[0]

    @pytest.mark.parametrize(
        "corpus",
        [lambda: [g for n in range(1, 8) for g in connected_graphs(n)],
         lambda: [random_graph(n, p, seed) for n in (8, 12, 16, 20, 22)
                  for p in (0.1, 0.2, 0.3, 0.5) for seed in (1, 2)]],
        ids=["connected-n7", "random-n22"],
    )
    def test_matches_unpruned_enumeration(self, corpus):
        for g in corpus():
            assert diss_via_induced_matchings(g) == unpruned_detour(g)

    def test_kernel_calls_capped(self, monkeypatch):
        # counts calls, not time: 3035 when every maximal induced matching
        # runs the kernel, 1210 with the alpha(g) + |M| prune and the floor
        calls = []
        kernel = exact._max_independent_set

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(exact, "_max_independent_set", counting)
        assert diss_via_induced_matchings(random_graph(30, 0.2, 1)) == 15
        assert len(calls) <= 1500

    def test_depth_is_not_the_edge_count(self):
        # K_50 has 1225 edges; with one recursive call per excluded edge
        # the enumeration passed Python's recursion limit
        k50 = new_graph(50, list(combinations(range(50), 2)))
        assert diss_via_induced_matchings(k50, cutoff=50) == 2


@given(graphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_solvers_match_naive_enumeration(g):
    assert dissociation_number_exact(g)[0] == naive_diss(g)
    assert independence_number_exact(g)[0] == naive_alpha(g)


def with_every_graph(max_n):
    """Add every graph with at most ``max_n`` vertices as a hypothesis example."""
    def add(test):
        for n in range(max_n + 1):
            for g in all_graphs(n):
                test = example(g)(test)
        return test
    return add


@with_every_graph(6)
@given(graphs(max_n=6))
@settings(max_examples=150, deadline=None)
def test_nus_matches_naive_enumeration(g):
    # n <= 6 keeps the edge-subset scan of the naive oracle cheap
    assert induced_matching_number_exact(g)[0] == naive_nus(g)


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_detour_equals_diss(g):
    assert diss_via_induced_matchings(g) == dissociation_number_exact(g)[0]


def test_matching_bruteforce_examples():
    assert matching_number_bruteforce(c6()) == 3
    assert matching_number_bruteforce(new_graph(4, [(0, 1), (1, 2), (2, 3)])) == 2
    k33 = new_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert matching_number_bruteforce(k33) == 3


def test_detour_cutoff():
    with pytest.raises(InstanceTooLarge):
        diss_via_induced_matchings(new_graph(EXACT_CUTOFF + 1, []))


def test_independent_sets_of_g_minus_matching_stay_below_diss():
    # every matching M gives alpha(g - M) <= diss(g); sample greedy matchings
    from dissolab.graph import SplitMix64, remove_edges
    from dissolab.corpus import random_graph_corpus

    rng = SplitMix64(8080)
    for g in random_graph_corpus(80, 10, 4040):
        diss = dissociation_number_exact(g)[0]
        for _ in range(3):
            used = set()
            matching = []
            for u, v in sorted(g.edge_list, key=lambda _: rng.next_u64()):
                if u not in used and v not in used:
                    matching.append((u, v))
                    used.update((u, v))
            alpha_m = independence_number_exact(remove_edges(g, matching))[0]
            assert alpha_m <= diss


# fig3 gadgets: a satisfiable formula (24 vertices) and all eight sign
# patterns over three variables (32 vertices); fig4 gadgets: a satisfiable
# formula (24 vertices) and the eight sign patterns (48 vertices)
FIG3_CNF = "p cnf 5 6\n1 2 3 0\n-1 4 5 0\n2 -3 -4 0\n-2 3 5 0\n1 -4 -5 0\n-1 -2 4 0\n"
UNSAT_CNF = "p cnf 3 8\n" + "".join(
    f"{'-' * (s & 1)}1 {'-' * (s >> 1 & 1)}2 {'-' * (s >> 2 & 1)}3 0\n" for s in range(8))
FIG4_CNF = "p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n"


def fig3():
    return gadget_diss_2alpha(parse_cnf(FIG3_CNF)).graph


def fig4():
    return gadget_diss_alpha(parse_cnf(FIG4_CNF)).graph


def fig4_unsat():
    return gadget_diss_alpha(parse_cnf(UNSAT_CNF)).graph


def is_gadget():
    # 34 vertices: the 11 padded vertices, each with a pendant, are joined
    # to all 12 vertices of the (k - 1)K2 block
    g = new_graph(5, [(0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    return gadget_diss_alpha_plus_nus(g, 1).graph


def sparse_g60():
    return random_graph(60, 0.1, 1)


def join_p9():
    # the 9-vertex path joined to K9: every clique vertex is universal
    return gadget_join_kn(new_graph(9, [(i, i + 1) for i in range(8)])).graph


def gadget_pin_graphs():
    # the fig3, unsatisfiable fig3, fig4 and IS test gadgets and the corpus
    # of the universal-vertex pin
    return [fig3(), gadget_diss_2alpha(parse_cnf(UNSAT_CNF)).graph, fig4(),
            is_gadget()] + universal_pin_graphs()


def sparse_pin_graphs():
    return [random_graph(n, p, seed)
            for n in (20, 36, 44) for p in (0.05, 0.1) for seed in range(6)]


def universal_pin_graphs():
    # the 212 IS gadgets, 40 join gadgets and 18 dense graphs
    graphs = [gadget_diss_alpha_plus_nus(g, k).graph
              for n in range(6) for g in all_graphs(n) for k in range(1, 5)]
    graphs += [gadget_join_kn(g).graph for g in join_input_corpus(40, 12, 3)]
    graphs += [random_graph(n, p, seed)
               for n in (12, 18, 24) for p in (0.5, 0.9) for seed in range(3)]
    return graphs


@pytest.mark.parametrize(
    "corpus",
    [lambda: [g for n in range(1, 8) for g in connected_graphs(n)],
     lambda: [g for n in range(7) for g in all_graphs(n)],
     lambda: [gadget_diss_alpha_plus_nus(g, k).graph
              for n in range(6) for g in all_graphs(n) for k in range(1, 5)],
     lambda: [fig3(), gadget_diss_2alpha(parse_cnf(UNSAT_CNF)).graph, fig4(),
              is_gadget()],
     sparse_pin_graphs,
     lambda: [NESTED_NEIGHBOURHOODS]],
    ids=["connected-n7", "all-n6", "is-gadgets", "fig-gadgets", "sparse", "nested"],
)
def test_nus_matches_kernel_on_edge_conflicts(corpus):
    # an induced matching is an independent set of the edge-conflict graph
    # (Cameron, 1989), so the independent-set kernel there is a reference
    # for the search over the vertices of g that shares none of its rules
    for g in corpus():
        edges, conflict = _edge_conflicts(g)
        expected = _max_independent_set(tuple(conflict), (1 << len(edges)) - 1)[0]
        value, matching = induced_matching_number_exact(g, cutoff=g.n)
        assert value == expected
        assert len(matching.edges) == value and is_induced_matching(g, matching.edges)


@pytest.mark.parametrize(
    "solve,expected",
    # diss re-recorded for the first-fit greedy incumbent and the sweep
    # without its residual-leaf rule: same values, 142 of the 1299
    # witnesses moved, 8569 -> 7069 nodes
    [(dissociation_number_exact,
      "4b04d227965f0803b65ff849295eaaee0128a51271ce22172e09aba6d63a77fa"),
     (independence_number_exact,
      "667b1d7e51672b87906b02c59e8999a839e77def2ae4aea644ab1076fef600c8"),
     # re-recorded for the nu_s search over the vertices of g: same
     # values, other optimal witnesses
     (induced_matching_number_exact,
      "5584ce96b93d72cb7d3675d59623630c03c7af4855eac9b05f7b1d68326a6242")],
    ids=["diss", "alpha", "nu_s"],
)
def test_witnesses_pinned(solve, expected):
    # a search may prune only subtrees that cannot beat its incumbent, so a
    # tighter bound must leave every value and every witness as it is; one
    # digest per solver, so that a change to one search re-records only its own
    graphs = random_graph_corpus(300, 22, 5)
    graphs += [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [fig3(), gadget_diss_2alpha(parse_cnf(UNSAT_CNF)).graph, fig4()]
    digest = hashlib.sha256()
    for g in graphs:
        value, witness = solve(g, cutoff=g.n)
        items = sorted(getattr(witness, "edges", witness))
        digest.update(repr((value, items)).encode())
    assert digest.hexdigest() == expected


def traced_solve(solve, g):
    """solve(g) and the number of calls of the ``rec`` closures of
    dissolab.exact it made."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == exact.__file__:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = solve(g, cutoff=g.n)
    finally:
        sys.setprofile(previous)
    return result, count


def search_nodes(solve, g):
    """Calls of the ``rec`` closures of dissolab.exact while solving g."""
    return traced_solve(solve, g)[1]


@pytest.mark.parametrize(
    "solve,graph,cap",
    [(dissociation_number_exact, fig3, 5),
     (induced_matching_number_exact, fig3, 150),
     (independence_number_exact, fig3, 25),
     (dissociation_number_exact, fig4, 5),
     (dissociation_number_exact, fig4_unsat, 5),
     (induced_matching_number_exact, fig4, 90),
     (dissociation_number_exact, is_gadget, 5),
     (induced_matching_number_exact, is_gadget, 45),
     (dissociation_number_exact, sparse_g60, 8000),
     (independence_number_exact, join_p9, 6)],
    ids=["diss-fig3", "nus-fig3", "alpha-fig3", "diss-fig4", "diss-fig4-unsat", "nus-fig4",
         "diss-isgadget", "nus-isgadget", "diss-g60", "alpha-join"],
)
def test_search_nodes_capped(solve, graph, cap):
    # diss takes 1 node on fig3, fig4 and the unsatisfiable fig4: the greedy
    # incumbent already holds an optimum there, and the root bound proves it.
    # Started from an empty incumbent the search takes 47, 1729 and
    # 1,619,121 nodes, reaching its first optimum late in depth-first order,
    # so the three diss caps guard the greedy incumbent; with it, but with
    # only 3-vertex paths packed, fig3 and fig4 take 69 and 6223, so they
    # guard the packing too. diss takes 3 nodes on is_gadget, against 35
    # with a greedy that takes the least residual degree first, 23 with a
    # sweep that takes residual leaves, and 49 from an empty incumbent; and
    # 6541 on G(60, 0.1), against 17,185 with that sweep and 11,733 from an
    # empty incumbent. alpha takes 7 nodes on fig3, against 124 with the
    # counting bound alone, and 2 on join_p9, against 19 without the
    # kernel's universal rule. The nu_s search over the vertices of g takes
    # 16, 29 and 21, against 1847, 4989 and 29 with the counting bound
    # alone, and 165 on fig4 when only 3-vertex paths are packed, so
    # nus-fig4 guards the packing. So a lost bound or rule fails here even
    # though every value and witness stays the same; only nus-isgadget,
    # whose 29 nodes stay within its cap, guards no rule
    assert search_nodes(solve, graph()) <= cap


@pytest.mark.parametrize(
    "solve,expected",
    # diss re-recorded for the first-fit greedy incumbent and the sweep
    # without its residual-leaf rule: same values, 26 of the 36 witnesses
    # moved, 11722 -> 9002 nodes. nu_s was re-recorded for the bound that
    # packs sets whose non-edges form a matching and for the search without
    # its pair-clique bound: same values and witnesses, 4495 -> 4061 nodes
    [(dissociation_number_exact,
      "e476ced4c539f5121df900a4808c26d4618e0cce60edaa74e1bd03d713448865"),
     (independence_number_exact,
      "0ccfdfd42ee2a2a849ff9328fbceb895e2916077d69bea2709ca73605dafded6"),
     (induced_matching_number_exact,
      "7f7186803daae3d8e247adfe8e99665447936db3cf60266888213bc4fb53908c")],
    ids=["diss", "alpha", "nu_s"],
)
def test_search_trees_pinned_on_sparse_graphs(solve, expected):
    # the sweeps settle vertices in a fixed order, and that order decides
    # which leaves go free and which pair; on sparse graphs above n = 22 a
    # sweep that skips a vertex it should revisit can keep every value yet
    # move a witness or the number of nodes, so pin all three
    digest = hashlib.sha256()
    for g in sparse_pin_graphs():
        (value, witness), nodes = traced_solve(solve, g)
        items = sorted(getattr(witness, "edges", witness))
        digest.update(repr((value, items, nodes)).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "solve,expected",
    [(independence_number_exact,
      "06349a2b64cd8f5a95754c70a5aaf6e5688c674be0c5214aa18df1ec9d5beb57"),
     # re-recorded for the nu_s search over the vertices of g, which has no
     # universal vertices to meet: same values, other optimal witnesses
     (induced_matching_number_exact,
      "c599500bbc598fc177684211c2ca930f00132530f3fb6ec396bdeb0a1b5a5d46")],
    ids=["alpha", "nu_s"],
)
def test_witnesses_pinned_on_graphs_with_universal_vertices(solve, expected):
    # on IS gadgets, join gadgets and dense graphs the kernel meets vertices
    # adjacent to every other one, at the root or deep in the search, where
    # a rule that drops them must leave the incumbent as the one-at-a-time
    # branching leaves it
    digest = hashlib.sha256()
    for g in universal_pin_graphs():
        value, witness = solve(g, cutoff=g.n)
        digest.update(repr((value, sorted(getattr(witness, "edges", witness)))).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "solve,expected",
    [(independence_number_exact,
      "8fde26ea5aee9f71818e165443a2be0c366c7b876ff07d33224c8f6333ed6bf4"),
     # re-recorded for the nu_s search over the vertices of g: same
     # values, other optimal witnesses
     (induced_matching_number_exact,
      "38e61062ae1361ac376fdd6b7c0c500bc276b73f55d74564f812b387f0df2fc3")],
    ids=["alpha", "nu_s"],
)
def test_witnesses_pinned_on_sparse_graphs(solve, expected):
    # the corpus of the search-tree pins without their node counts: a change
    # that is meant to cut nodes re-records those, but must leave this
    digest = hashlib.sha256()
    for g in sparse_pin_graphs():
        value, witness = solve(g, cutoff=g.n)
        items = sorted(getattr(witness, "edges", witness))
        digest.update(repr((value, items)).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "solve,expected",
    # diss re-recorded as on sparse graphs: same values, 17 of the 274
    # witnesses moved, 4586 -> 1854 nodes. nu_s re-recorded for the packing
    # as on sparse graphs: same values and witnesses, 3988 -> 4676 nodes
    [(dissociation_number_exact,
      "e221cec2816c0e396c227a43d3a193257ab402e081084fc435377021532c5ad1"),
     (independence_number_exact,
      "32034e3235f6ae1609397a13e3ebee079894012c924b503d58c0108381d0fd38"),
     (induced_matching_number_exact,
      "b65592a756aee9604232a6b1000c884c80c5e5ee105c3747d4a5c97f04f03bd4")],
    ids=["diss", "alpha", "nu_s"],
)
def test_search_trees_pinned_on_gadgets(solve, expected):
    # the search-tree pin of the clique-built graphs: the fig3, fig4 and IS
    # test gadgets and the corpus of the universal-vertex pin, 274 graphs
    # on which diss, alpha and nu_s take 1854, 646 and 4676 nodes. A rewrite
    # of a bound or a branch rule that is meant to change nothing must
    # leave every value, witness and node count here as it is
    digest = hashlib.sha256()
    for g in gadget_pin_graphs():
        (value, witness), nodes = traced_solve(solve, g)
        items = sorted(getattr(witness, "edges", witness))
        digest.update(repr((value, items, nodes)).encode())
    assert digest.hexdigest() == expected


def test_diss_witnesses_pinned_on_gadgets():
    # the corpus of the gadget search-tree pin without its node counts, for
    # diss, whose witnesses there no other pin covers: a bound that is meant
    # to cut nodes re-records that pin, but must leave this one. Re-recorded
    # for the first-fit greedy incumbent and the sweep without its
    # residual-leaf rule: same values, 17 of the 274 witnesses moved, and
    # the search-tree pin went from 4586 to 1854 nodes
    digest = hashlib.sha256()
    for g in gadget_pin_graphs():
        value, witness = dissociation_number_exact(g, cutoff=g.n)
        digest.update(repr((value, sorted(witness))).encode())
    assert digest.hexdigest() == "e9694434e22b9d7ad9c74ed76f92e3d04967168c5b8e039de35627a23012482f"
