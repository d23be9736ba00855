import hashlib

import pytest

from dissolab.exact import (
    dissociation_number_exact,
    independence_number_exact,
    is_dissociation_set,
)
from dissolab.graph import NotBipartiteError, new_graph, remove_edges
from dissolab.matching import Matching, matching_from_edges, maximum_matching
from dissolab.recognizer import (
    Extremal,
    NotExtremal,
    NotExtremalReason,
    SixClass,
    build_2sat,
    check_component_lengths,
    check_path_path_edges,
    decompose_alternating,
    label_path_components,
    recognize_extremal,
)
from dissolab.catalog import connected_bipartite_graphs
from dissolab.corpus import random_bipartite_corpus
from dissolab.twosat import solve_2sat

from strategies import planted_pair


def c6():
    return new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def _structured_instance(seed):
    """Disjoint 6k-cycles and (4 mod 6)-paths plus cross strays, bipartite.

    Every component is 2-colored by global vertex parity (consecutive
    indices, even cycle sizes), so parity-crossing strays keep the graph
    bipartite.
    """
    from dissolab.graph import SplitMix64

    rng = SplitMix64(seed)
    edges = []
    base = 0
    for _ in range(2 + rng.next_below(3)):
        kind = rng.next_below(4)
        if kind == 0:
            k = 6
            edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        elif kind == 1:
            k = 12
            edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        elif kind == 2:
            k = 5
            edges += [(base + i, base + i + 1) for i in range(k - 1)]
        else:
            k = 11
            edges += [(base + i, base + i + 1) for i in range(k - 1)]
        base += k
    n = base
    present = {(min(u, v), max(u, v)) for u, v in edges}
    target = rng.next_below(4) + 1
    added = 0
    tries = 0
    while added < target and tries < 50:
        tries += 1
        u, v = rng.next_below(n), rng.next_below(n)
        if u == v or (u % 2) == (v % 2):
            continue
        e = (min(u, v), max(u, v))
        if e not in present:
            present.add(e)
            added += 1
    return new_graph(n, sorted(present))


def c6_chord_matching():
    # (0, 3) is an edge of C6 plus that chord, but not of C6
    return matching_from_edges(new_graph(6, c6().edge_list + ((0, 3),)), [(0, 3)])


def c6_matchings(g):
    m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5)])
    m2 = matching_from_edges(g, [(1, 2), (3, 4), (0, 5)])
    return m, m2


def path_graph(k, offset=0):
    return [(offset + i, offset + i + 1) for i in range(k - 1)]


def rotated_instance():
    """Extremal: the recognize-file-rotated golden case, numbered from 0."""
    g = new_graph(11, [(0, 5), (0, 9), (1, 4), (1, 6), (2, 3), (2, 6), (2, 8), (3, 7),
                       (4, 7), (8, 9), (8, 10)])
    return g, matching_from_edges(g, [(0, 9), (1, 6), (2, 3), (4, 7), (8, 10)])


class TestDecompose:
    def test_c6_single_cycle(self):
        g = c6()
        m, m2 = c6_matchings(g)
        d = decompose_alternating(g, m, m2)
        assert not d.paths and len(d.cycles) == 1
        cyc = d.cycles[0]
        assert len(cyc) == 6
        assert cyc[0] == 0 and cyc[1] == 1  # starts with its M edge

    def test_p4_single_path(self):
        g = new_graph(4, path_graph(4))
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        m2 = matching_from_edges(g, [(1, 2)])
        d = decompose_alternating(g, m, m2)
        assert not d.cycles and len(d.paths) == 1
        assert d.paths[0] == (0, 1, 2, 3)

    def test_isolated_vertices_are_trivial_paths(self):
        g = new_graph(2, [])
        empty = matching_from_edges(g, [])
        d = decompose_alternating(g, empty, empty)
        assert len(d.paths) == 2 and all(len(p) - 1 == 0 for p in d.paths)

    def test_overlapping_matchings_rejected(self):
        g = c6()
        m = matching_from_edges(g, [(0, 1)])
        with pytest.raises(ValueError, match="overlap"):
            decompose_alternating(g, m, m)
        # overlap is reported before the edge set is checked against g
        fake = Matching((2, -1, 0, -1, -1, -1))  # (0, 2) is no edge of C6
        with pytest.raises(ValueError, match="overlap"):
            decompose_alternating(g, fake, fake)
        with pytest.raises(ValueError, match="not a matching"):
            decompose_alternating(g, m, fake)

    @pytest.mark.parametrize("chord_first", [True, False])
    def test_matching_of_another_graph_rejected(self, chord_first):
        g = c6()
        chord, other = c6_chord_matching(), matching_from_edges(g, [(1, 2)])
        pair = (chord, other) if chord_first else (other, chord)
        with pytest.raises(ValueError, match="not a matching"):
            decompose_alternating(g, *pair)

    def test_matching_of_another_order_rejected(self):
        g = c6()
        m = matching_from_edges(g, [(0, 1)])
        m7 = matching_from_edges(new_graph(7, g.edge_list), [(2, 3)])
        for pair in [(m, m7), (m7, m)]:
            with pytest.raises(ValueError, match="not a matching"):
                decompose_alternating(g, *pair)

    def test_components_partition_vertices(self):
        g = new_graph(11, path_graph(6) + path_graph(5, 6))
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        m2 = matching_from_edges(g, [(1, 2), (3, 4), (7, 8), (9, 10)])
        d = decompose_alternating(g, m, m2)
        seen = [v for comp in d.paths + d.cycles for v in comp]
        assert sorted(seen) == list(range(11))

    def test_path_read_from_m_covered_endpoint(self):
        # path 10-8-9-0-5: its lower endpoint 5 is covered by M' only
        g, m = rotated_instance()
        d = decompose_alternating(g, m, maximum_matching(remove_edges(g, m.edges)))
        assert list(d.paths) == [(10, 8, 9, 0, 5)]

    def test_cycle_starts_at_lowest_side_a_vertex(self):
        # the cycle's lowest vertex 1 is on side B; from its lowest side-A
        # vertex 3 the walk follows the M edge 3-2
        g, m = rotated_instance()
        d = decompose_alternating(g, m, maximum_matching(remove_edges(g, m.edges)))
        assert g.side[1] == 1 and g.side[3] == 0
        assert list(d.cycles) == [(3, 2, 6, 1, 4, 7)]

    def test_stray_edges_in_edge_list_order(self):
        # K33 as C6 plus its three chords; M + M' is the C6
        g = new_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(2, 5), (1, 4), (0, 3)])
        d = decompose_alternating(g, *c6_matchings(g))
        assert d.stray == ((0, 3), (1, 4), (2, 5))

    @pytest.mark.parametrize("shift", range(6))
    def test_cycle_orientation_independent_of_labels(self, shift):
        # a 6-cycle relabeled by rotation: start at the lowest side-A vertex,
        # then its M partner, whichever way the labels run
        k = 6
        order = [(i + shift) % k for i in range(k)]
        g = new_graph(k, [(order[i], order[(i + 1) % k]) for i in range(k)])
        m = matching_from_edges(g, [(order[i], order[i + 1]) for i in range(0, k, 2)])
        m2 = matching_from_edges(g, [(order[i + 1], order[(i + 2) % k]) for i in range(0, k, 2)])
        (cyc,) = decompose_alternating(g, m, m2).cycles
        anchor = min(v for v in range(k) if g.side[v] == 0)
        assert cyc[0] == anchor
        assert frozenset(cyc[:2]) in {frozenset(e) for e in m.edges}
        assert sorted(cyc) == list(range(k))


class TestLengthChecks:
    def test_c6_ok(self):
        g = c6()
        d = decompose_alternating(g, *c6_matchings(g))
        assert check_component_lengths(d) is None

    def test_p4_bad_path(self):
        g = new_graph(4, path_graph(4))
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        m2 = matching_from_edges(g, [(1, 2)])
        failure = check_component_lengths(
            decompose_alternating(g, m, m2)
        )
        assert failure is not None
        assert failure.reason is NotExtremalReason.BAD_PATH_LENGTH

    def test_isolated_vertex_bad_path(self):
        g = new_graph(1, [])
        empty = matching_from_edges(g, [])
        failure = check_component_lengths(
            decompose_alternating(g, empty, empty)
        )
        assert failure is not None
        assert failure.reason is NotExtremalReason.BAD_PATH_LENGTH

    def test_bad_cycle_length(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        m2 = matching_from_edges(g, [(1, 2), (0, 3)])
        failure = check_component_lengths(
            decompose_alternating(g, m, m2)
        )
        assert failure is not None
        assert failure.reason is NotExtremalReason.BAD_CYCLE_LENGTH


def p5_with_matchings():
    g = new_graph(5, path_graph(5))
    m = matching_from_edges(g, [(0, 1), (2, 3)])
    m2 = matching_from_edges(g, [(1, 2), (3, 4)])
    return g, m, m2


class TestPathLabeling:
    def test_a_start_pattern(self):
        g, m, m2 = p5_with_matchings()
        d = decompose_alternating(g, m, m2)
        labels = label_path_components(g, d)
        assert [labels[v].value for v in range(5)] == ["A1", "B1", "A4", "B2", "A2"]

    def test_b_start_mirrored_pattern(self):
        # path 1-0-2-3-4: endpoint 1 sits on side B
        g = new_graph(5, [(1, 0), (0, 2), (2, 3), (3, 4)])
        assert g.side[1] == 1
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        m2 = matching_from_edges(g, [(0, 2), (3, 4)])
        d = decompose_alternating(g, m, m2)
        labels = label_path_components(g, d)
        order = d.paths[0]
        assert order == (1, 0, 2, 3, 4)
        assert [labels[v].value for v in order] == ["B1", "A1", "B4", "A2", "B2"]

    def test_no_paths_empty_labeling(self):
        g = c6()
        m, m2 = c6_matchings(g)
        d = decompose_alternating(g, m, m2)
        assert label_path_components(g, d) == {}

    def test_unvalidated_component_raises(self):
        g = new_graph(1, [])
        empty = matching_from_edges(g, [])
        d = decompose_alternating(g, empty, empty)
        with pytest.raises(RuntimeError, match="unvalidated"):
            label_path_components(g, d)


class TestPathPathEdges:
    def two_paths(self, stray):
        edges = path_graph(5) + path_graph(5, 5) + [stray]
        g = new_graph(10, edges)
        m = matching_from_edges(g, [(0, 1), (2, 3), (5, 6), (7, 8)])
        m2 = matching_from_edges(g, [(1, 2), (3, 4), (6, 7), (8, 9)])
        d = decompose_alternating(g, m, m2)
        labels = label_path_components(g, d)
        return d, labels

    def test_violation_reported_with_edge(self):
        # A1 of one path joined to B2 of the other
        d, labels = self.two_paths((0, 8))
        failure = check_path_path_edges(d, labels)
        assert failure is not None
        assert failure.reason is NotExtremalReason.PATH_EDGE_VIOLATION
        assert "(0, 8)" in failure.detail

    def test_edge_into_blocked_class_ok(self):
        d, labels = self.two_paths((0, 7))  # 7 lands in B4
        assert labels[7] is SixClass.B4
        assert check_path_path_edges(d, labels) is None

    def test_vacuous_without_paths(self):
        g = c6()
        m, m2 = c6_matchings(g)
        assert check_path_path_edges(decompose_alternating(g, m, m2), {}) is None


class TestBuildTwoSat:
    def test_c6_only_at_most_one_clauses(self):
        g = c6()
        m, m2 = c6_matchings(g)
        d = decompose_alternating(g, m, m2)
        formula, var_map = build_2sat(g, d, {})
        assert formula.var_count == 3
        assert len(formula.clauses) == 3
        assert set(var_map) == {(0, 1), (0, 2), (0, 3)}
        assert solve_2sat(formula) is not None

    def test_two_cycles_stray_edge_adds_binary_clause(self):
        edges = (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            + [(6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 6)]
            + [(0, 7)]
        )
        g = new_graph(12, edges)
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
        m2 = matching_from_edges(g, [(1, 2), (3, 4), (0, 5), (7, 8), (9, 10), (6, 11)])
        d = decompose_alternating(g, m, m2)
        formula, var_map = build_2sat(g, d, {})
        assert formula.var_count == 6
        binary = [cl for cl in formula.clauses if all(pol for _, pol in cl)]
        assert len(binary) == 1
        # endpoint 0 sits at position 0 of its cycle (anchor 1); endpoint 7
        # at position 1 of the other cycle (anchor with distance 3 mod 6)
        lit_vars = {var for var, _ in binary[0]}
        assert var_map[(0, 1)] in lit_vars
        assert var_map[(1, 3)] in lit_vars

    def test_stray_edge_forces_third_rotation(self):
        # the stray edge 2-8 joins cycle position 1 (side B) to the path's A1
        g, m = rotated_instance()
        m2 = maximum_matching(remove_edges(g, m.edges))
        d = decompose_alternating(g, m, m2)
        labels = label_path_components(g, d)
        assert labels[8] is SixClass.A1
        formula, var_map = build_2sat(g, d, labels)
        assert formula.clauses[3:] == (((var_map[(0, 3)], True),),)
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal)
        assert outcome.classes[2] is SixClass.B4

    def test_stray_edge_to_blocked_path_vertex_adds_nothing(self):
        edges = (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            + path_graph(5, 6)
            + [(1, 8)]
        )
        g = new_graph(11, edges)
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        m2 = matching_from_edges(g, [(1, 2), (3, 4), (0, 5), (7, 8), (9, 10)])
        d = decompose_alternating(g, m, m2)
        labels = label_path_components(g, d)
        assert labels[8] is SixClass.A4
        formula, _ = build_2sat(g, d, labels)
        assert len(formula.clauses) == 3  # at-most-one clauses only


class TestRecognizeExtremal:
    def test_c6_fixture(self):
        g = c6()
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal)
        assert len(outcome.max_dissociation_set) == 4
        assert outcome.ell == 1
        # confirmed against the oracles before pinning
        assert dissociation_number_exact(g)[0] == 4
        gm = remove_edges(g, m.edges)
        assert independence_number_exact(gm)[0] == 3

    def test_c6_pinned_set(self):
        g = c6()
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5)])
        outcome = recognize_extremal(g, m)
        assert outcome.max_dissociation_set == frozenset({1, 2, 4, 5})

    def test_p4_fixture(self):
        g = new_graph(4, path_graph(4))
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, NotExtremal)
        # here M' = {(1,2)} is smaller than M, so the size check fires
        assert outcome.reason is NotExtremalReason.MATCHING_SIZE_MISMATCH
        assert dissociation_number_exact(g)[0] == 3  # and 3*3 != 4*alpha(g-M)

    def test_2k2_fixture(self):
        g = new_graph(4, [(0, 1), (2, 3)])
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, NotExtremal)
        assert outcome.reason is NotExtremalReason.MATCHING_SIZE_MISMATCH

    def test_empty_graph_extremal(self):
        g = new_graph(0, [])
        outcome = recognize_extremal(g, matching_from_edges(g, []))
        assert isinstance(outcome, Extremal)
        assert outcome.max_dissociation_set == frozenset()

    def test_non_maximum_matching(self):
        g = c6()
        outcome = recognize_extremal(g, matching_from_edges(g, [(0, 1)]))
        assert isinstance(outcome, NotExtremal)
        assert outcome.reason is NotExtremalReason.NOT_MAXIMUM_MATCHING

    def test_not_bipartite_raises(self):
        g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotBipartiteError):
            recognize_extremal(g, matching_from_edges(g, [(0, 1)]))

    def test_invalid_matching_rejected(self):
        g = c6()
        fake = Matching((2, -1, 0, -1, -1, -1))  # (0, 2) is no edge of C6
        with pytest.raises(ValueError):
            recognize_extremal(g, fake)

    def test_matching_of_another_graph_rejected(self):
        with pytest.raises(ValueError, match="not a matching"):
            recognize_extremal(c6(), c6_chord_matching())

    def test_unit_clause_instance_extremal(self):
        edges = (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            + path_graph(5, 6)
            + [(0, 9)]
        )
        g = new_graph(11, edges)
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal)
        # the stray edge forces rotation 1, pushing vertex 0 into A4
        assert outcome.classes[0] is SixClass.A4
        assert len(outcome.max_dissociation_set) == dissociation_number_exact(g)[0]

    def test_conflicting_unit_clauses_unsat(self):
        edges = (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            + path_graph(5, 6)
            + path_graph(5, 11)
            + [(0, 9), (2, 14)]
        )
        g = new_graph(16, edges)
        m = matching_from_edges(
            g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (11, 12), (13, 14)]
        )
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, NotExtremal)
        assert outcome.reason is NotExtremalReason.TWO_SAT_UNSAT
        diss = dissociation_number_exact(g)[0]
        alpha_m = independence_number_exact(remove_edges(g, m.edges))[0]
        assert 3 * diss != 4 * alpha_m

    def test_two_cycles_joined_extremal(self):
        edges = (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            + [(6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 6)]
            + [(0, 6)]
        )
        g = new_graph(12, edges)
        m = matching_from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal)
        diss = dissociation_number_exact(g)[0]
        assert len(outcome.max_dissociation_set) == diss

    def test_c6_other_perfect_matching_also_extremal(self):
        g = c6()
        m = matching_from_edges(g, [(1, 2), (3, 4), (0, 5)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal)
        assert len(outcome.max_dissociation_set) == 4

    def test_c4_bad_cycle_length(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = matching_from_edges(g, [(0, 1), (2, 3)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, NotExtremal)
        assert outcome.reason is NotExtremalReason.BAD_CYCLE_LENGTH

    @pytest.mark.parametrize(
        "k,extremal", [(6, True), (8, False), (10, False), (12, True)]
    )
    def test_even_cycles(self, k, extremal):
        g = new_graph(k, [(i, (i + 1) % k) for i in range(k)])
        m = matching_from_edges(g, [(i, i + 1) for i in range(0, k, 2)])
        outcome = recognize_extremal(g, m)
        assert isinstance(outcome, Extremal) == extremal
        diss = dissociation_number_exact(g)[0]
        alpha_m = independence_number_exact(remove_edges(g, m.edges))[0]
        assert (3 * diss == 4 * alpha_m) == extremal

    def test_agrees_with_oracle_on_random_corpus(self):
        for g in random_bipartite_corpus(60, 13, 321):
            m = maximum_matching(g)
            outcome = recognize_extremal(g, m)
            diss = dissociation_number_exact(g)[0]
            alpha_m = independence_number_exact(remove_edges(g, m.edges))[0]
            assert isinstance(outcome, Extremal) == (3 * diss == 4 * alpha_m)
            if isinstance(outcome, Extremal):
                s = outcome.max_dissociation_set
                assert is_dissociation_set(g, s) and len(s) == diss

    def test_agrees_with_oracle_on_structured_instances(self):
        # unions of 6k-cycles and (4 mod 6)-paths with random stray edges
        # hit the extremal case often, unlike uniform random graphs
        from dissolab.checks import check_recognizer

        extremal = 0
        checked = 0
        for seed in range(150):
            g = _structured_instance(seed)
            if g.n > 26:
                continue
            checked += 1
            detail = check_recognizer(g, cutoff=40)
            assert detail is None, (seed, detail)
            m = maximum_matching(g)
            if isinstance(recognize_extremal(g, m), Extremal):
                extremal += 1
        assert checked > 50 and extremal > 10  # both outcomes well represented


def _outcome_key(outcome):
    if isinstance(outcome, Extremal):
        members = [sorted(v for v, c in outcome.classes.items() if c is cls)
                   for cls in SixClass]
        return (outcome.ell, sorted(outcome.max_dissociation_set), members)
    return (outcome.reason.value, outcome.detail)


def test_outcomes_pinned():
    # reason and detail of every rejection, and ell, set and classes of every
    # extremal pair: a refactor of the stages must leave all of them as they are
    pairs = [(g, maximum_matching(g)) for n in range(1, 9) for g in connected_bipartite_graphs(n)]
    pairs += [(g, maximum_matching(g)) for g in random_bipartite_corpus(200, 16, 7)]
    pairs += [(g, maximum_matching(g)) for g in map(_structured_instance, range(60))]
    for seed in range(12):
        g, planted, _ = planted_pair(60 + 20 * seed, 3 * seed, seed)
        pairs += [(g, matching_from_edges(g, planted)), (g, maximum_matching(g))]
    digest = hashlib.sha256()
    for g, m in pairs:
        digest.update(repr(_outcome_key(recognize_extremal(g, m))).encode())
    assert digest.hexdigest() == (
        "789ba994456562fd3b9023d5b3ece862097c4cacf45a428a102d2913e31cafc8")
