import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissolab.catalog import connected_bipartite_graphs
from dissolab.exact import is_dissociation_set, is_independent_set, matching_number_bruteforce
from dissolab.graph import NotBipartiteError, new_graph, random_bipartite
from dissolab.matching import (
    Matching,
    has_augmenting_path,
    is_induced_matching,
    is_matching,
    koenig_cover,
    matching_from_edges,
    maximum_independent_set_bipartite,
    maximum_matching,
    parse_matching,
)

from strategies import bipartite_graphs, graphs, planted_pair


def c6():
    return new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def k33():
    return new_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def c6_chord_matching():
    # (0, 3) is an edge of C6 plus that chord, but not of C6
    return matching_from_edges(new_graph(6, c6().edge_list + ((0, 3),)), [(0, 3)])


class TestMaximumMatching:
    def test_shuffled_long_path_no_recursion_error(self):
        # augmenting paths as long as the path, in no particular vertex order
        n = 4000
        label = list(range(n))
        random.Random(4).shuffle(label)
        g = new_graph(n, [(label[i], label[i + 1]) for i in range(n - 1)])
        m = maximum_matching(g)
        assert len(m.edges) == n // 2
        assert not has_augmenting_path(g, m)

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelled_paths_and_cycles(self, seed):
        # the greedy start alone is maximum here; Hopcroft-Karp must keep it so
        rng = random.Random(seed)
        edges, size, n = [], 0, 0
        while n < 3000:
            if rng.random() < 0.4:  # an even cycle, so the graph stays bipartite
                k = 2 * rng.randrange(2, 20)
                edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            else:
                k = rng.randrange(1, 40)
                edges += [(n + i, n + i + 1) for i in range(k - 1)]
            size, n = size + k // 2, n + k
        label = list(range(n))
        rng.shuffle(label)
        g = new_graph(n, [(label[u], label[v]) for u, v in edges])
        m = maximum_matching(g)
        assert len(m.edges) == size and not has_augmenting_path(g, m)
        assert maximum_matching(new_graph(n, g.edge_list)) == m

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_pairs_with_extra_edges(self, seed):
        g, planted, _ = planted_pair(3000, 300 * seed, seed)
        m = maximum_matching(g)
        assert len(m.edges) == len(planted) and not has_augmenting_path(g, m)
        assert maximum_matching(new_graph(g.n, g.edge_list)) == m

    def test_c6_size(self):
        g = c6()
        m = maximum_matching(g)
        assert len(m.edges) == 3 == matching_number_bruteforce(g)

    def test_c6_pinned_value(self):
        # frozen output of the deterministic tie-break rule
        g = c6()
        m = maximum_matching(g)
        assert sorted(m.edges) == [(0, 1), (2, 3), (4, 5)]

    def test_edgeless(self):
        g = new_graph(4, [])
        assert maximum_matching(g).edges == frozenset()

    def test_odd_cycle_raises(self):
        c5 = new_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(NotBipartiteError):
            maximum_matching(c5)

    def test_p4(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3)])
        m = maximum_matching(g)
        assert len(m.edges) == 2 == matching_number_bruteforce(g)

    @given(bipartite_graphs(max_side=5))
    @settings(max_examples=150)
    def test_agrees_with_bruteforce(self, g):
        m = maximum_matching(g)
        assert len(m.edges) == matching_number_bruteforce(g)
        assert not has_augmenting_path(g, m)

    def test_agrees_with_bruteforce_up_to_12(self):
        from dissolab.corpus import random_bipartite_corpus

        for g in random_bipartite_corpus(60, 12, 77):
            m = maximum_matching(g)
            assert len(m.edges) == matching_number_bruteforce(g)


class TestKoenigCover:
    def test_c6_cover(self):
        g = c6()
        cover = koenig_cover(g, maximum_matching(g))
        assert len(cover) == 3
        assert all(u in cover or v in cover for u, v in g.edge_list)

    def test_empty(self):
        g = new_graph(3, [])
        assert koenig_cover(g, maximum_matching(g)) == frozenset()

    def test_k33_perfect_matching(self):
        g = k33()
        cover = koenig_cover(g, maximum_matching(g))
        assert len(cover) == 3

    def test_non_maximum_matching_rejected(self):
        g = c6()
        small = matching_from_edges(g, [(0, 1)])
        with pytest.raises(ValueError):
            koenig_cover(g, small)

    def test_non_maximum_matchings(self):
        # seeded graphs on up to 5 + 5 vertices, each with a random matching:
        # edges in shuffled order, each kept with probability 0.6 while both
        # ends are free, so both maximum and short matchings occur
        short_seen = maximum_seen = 0
        for seed in range(400):
            rng = random.Random(seed)
            g = random_bipartite(rng.randrange(1, 6), rng.randrange(1, 6), rng.random(), seed)
            edges = list(g.edge_list)
            rng.shuffle(edges)
            kept: list[tuple[int, int]] = []
            matched: set[int] = set()
            for u, v in edges:
                if u not in matched and v not in matched and rng.random() < 0.6:
                    kept.append((u, v))
                    matched.update((u, v))
            m = matching_from_edges(g, kept)
            short = len(m.edges) < matching_number_bruteforce(g)
            assert has_augmenting_path(g, m) == short
            if short:
                short_seen += 1
                with pytest.raises(ValueError):
                    koenig_cover(g, m)
            else:
                maximum_seen += 1
                cover = koenig_cover(g, m)
                assert len(cover) == len(m.edges)
                assert all(u in cover or v in cover for u, v in g.edge_list)
        assert short_seen > 50 and maximum_seen > 50

    @pytest.mark.parametrize("check", [has_augmenting_path, koenig_cover])
    def test_error_order(self, check):
        # a non-bipartite graph is reported before a bad matching
        fake = Matching((2, 2, 0, -1, -1, -1))  # 0 and 1 both matched to 2
        with pytest.raises(NotBipartiteError):
            check(new_graph(3, [(0, 1), (1, 2), (0, 2)]), fake)
        with pytest.raises(ValueError, match="not a matching"):
            check(c6(), fake)

    @pytest.mark.parametrize("check", [has_augmenting_path, koenig_cover])
    def test_matching_of_another_graph_rejected(self, check):
        with pytest.raises(ValueError, match="not a matching"):
            check(c6(), c6_chord_matching())

    @pytest.mark.parametrize("check", [has_augmenting_path, koenig_cover])
    @pytest.mark.parametrize("n", [5, 7])
    def test_matching_of_another_order_rejected(self, check, n):
        # (0, 1) is an edge of both graphs, which differ in their order
        other = new_graph(n, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match="not a matching"):
            check(c6(), matching_from_edges(other, [(0, 1), (2, 3)]))

    @given(bipartite_graphs(max_side=5))
    @settings(max_examples=100)
    def test_cover_properties(self, g):
        m = maximum_matching(g)
        cover = koenig_cover(g, m)
        assert len(cover) == len(m.edges)
        assert all(u in cover or v in cover for u, v in g.edge_list)


class TestIndependentSet:
    def test_c6(self):
        assert len(maximum_independent_set_bipartite(c6())) == 3

    def test_edgeless(self):
        assert maximum_independent_set_bipartite(new_graph(5, [])) == frozenset(range(5))

    def test_k33(self):
        s = maximum_independent_set_bipartite(k33())
        assert len(s) == 3

    def test_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            maximum_independent_set_bipartite(new_graph(3, [(0, 1), (1, 2), (0, 2)]))

    @staticmethod
    def koenig_complement(g):
        # the reference: the cover built from a separate alternating BFS
        return frozenset(range(g.n)) - koenig_cover(g, maximum_matching(g))

    def test_complement_of_koenig_cover_on_catalog(self):
        catalog = [g for n in range(1, 9) for g in connected_bipartite_graphs(n)]
        assert len(catalog) == 254
        for g in catalog:
            assert maximum_independent_set_bipartite(g) == self.koenig_complement(g)

    @given(bipartite_graphs(max_side=6))
    @settings(max_examples=200)
    def test_complement_of_koenig_cover(self, g):
        assert maximum_independent_set_bipartite(g) == self.koenig_complement(g)

    @given(bipartite_graphs(max_side=5))
    @settings(max_examples=100)
    def test_independent_and_sized(self, g):
        s = maximum_independent_set_bipartite(g)
        assert all(not g.has_edge(u, v) for u in s for v in s if u < v)
        assert len(s) == g.n - matching_number_bruteforce(g)

    @given(bipartite_graphs(max_side=5))
    @settings(max_examples=100)
    def test_matches_exact_solver(self, g):
        from dissolab.exact import independence_number_exact

        assert len(maximum_independent_set_bipartite(g)) == independence_number_exact(g)[0]


class TestPredicates:
    def test_induced_example(self):
        assert is_induced_matching(c6(), [(0, 1), (3, 4)])

    def test_connected_pairs_not_induced(self):
        g = c6()
        assert is_matching(g, [(0, 1), (2, 3)])
        assert not is_induced_matching(g, [(0, 1), (2, 3)])

    def test_shared_vertex_not_matching(self):
        assert not is_matching(c6(), [(0, 1), (1, 2)])

    def test_missing_edge_not_matching(self):
        assert not is_matching(c6(), [(0, 2)])

    @pytest.mark.parametrize("edge", [(5, -1), (-1, 5), (0, 6), (6, 0)])
    def test_out_of_range_end_not_matching(self, edge):
        # (5, 0) is an edge of C6: a negative end must not index from the back
        assert not is_matching(c6(), [edge])

    def test_factory_validates(self):
        with pytest.raises(ValueError):
            matching_from_edges(c6(), [(0, 1), (1, 2)])

    def test_out_of_range_edge_not_matching(self):
        # (0, 5) is an edge of C6: partner -6 must not index the partner
        # array from its end, nor partner 6 raise IndexError
        for partner in [(5, -1, -1, -1, -1, -6), (6, -1, -1, -1, -1, -1)]:
            with pytest.raises(ValueError, match="not a matching"):
                has_augmenting_path(c6(), Matching(partner))

    def test_parse_matching_merges_repeated_lines(self):
        g = c6()
        repeated = parse_matching("m 1 2\nm 3 4\nc again\nm 2 1\nm 1 2\n", g)
        assert repeated.edges == parse_matching("m 1 2\nm 3 4\n", g).edges
        assert repeated.edges == frozenset({(0, 1), (2, 3)})

    @given(graphs(max_n=8), st.lists(st.integers(min_value=0, max_value=7), max_size=10))
    @settings(max_examples=300)
    def test_set_checks_agree_with_pairwise_definitions(self, g, picks):
        # picks may repeat a vertex or be empty
        s = [v for v in picks if v < g.n]
        distinct = set(s)
        assert is_independent_set(g, s) == all(
            not g.has_edge(u, v) for u in distinct for v in distinct if u < v)
        assert is_dissociation_set(g, s) == all(
            sum(g.has_edge(u, v) for v in distinct) <= 1 for u in distinct)
        pairs = [e for e in zip(s[::2], s[1::2]) if e[0] != e[1]]
        expected = is_matching(g, pairs) and all(
            not g.has_edge(x, y) for i, (a, b) in enumerate(pairs)
            for c, d in pairs[i + 1:] for x in (a, b) for y in (c, d))
        assert is_induced_matching(g, pairs) == expected
        assert is_induced_matching(g, pairs[::-1]) == expected

    def test_factory_induced_flag(self):
        # the factory accepts any matching; inducedness is a separate test
        g = c6()
        assert is_induced_matching(g, matching_from_edges(g, [(0, 1), (3, 4)]).edges)
        assert not is_induced_matching(g, matching_from_edges(g, [(0, 1), (2, 3)]).edges)
