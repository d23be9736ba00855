import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dissolab.graph import (
    NotBipartiteError,
    ParseError,
    SplitMix64,
    _parse_canonical,
    _parse_lines,
    bipartition,
    new_graph,
    parse_edge_list,
    random_bipartite,
    random_graph,
    remove_edges,
    render_edge_list,
    to_dot,
)

from strategies import graphs


def c6():
    return new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


class TestConstruction:
    def test_k2(self):
        g = new_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1

    def test_c6(self):
        assert c6().m == 6

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            new_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            new_graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_equality_is_structural(self):
        assert new_graph(3, [(2, 0)]) == new_graph(3, [(0, 2)])

    def test_has_edge_out_of_range(self):
        g = c6()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(-1, 0) and not g.has_edge(0, -1)
        assert not g.has_edge(0, g.n) and not g.has_edge(g.n, 0)


def doubled_corpus():
    """Seeded random and random bipartite graphs, each rebuilt by new_graph
    from every edge twice, once reversed, in shuffled order."""
    for i in range(600):
        if i % 2:
            n = i % 31
            g = random_graph(n, min(1.0, (1 + i % 5) / (n + 1)), i)
        else:
            g = random_bipartite(i % 13, i % 17, (1 + i % 7) / 8, i)
        pairs = list(g.edge_list) + [(v, u) for u, v in g.edge_list]
        random.Random(i).shuffle(pairs)
        yield new_graph(g.n, pairs)


# sha256 over the views of every graph of doubled_corpus()
VIEWS_DIGEST = "4bac9df32f3666c226986535eba8e4cbce9e8b4621d59dbe36b3e0fc0427bcc3"


def test_views_digest():
    h = hashlib.sha256()
    for g in doubled_corpus():
        try:
            colouring = ("side", g.side)
        except NotBipartiteError as err:
            colouring = ("cycle", err.cycle)
        h.update(repr((g.n, g.m, g.edge_list, g.adjacency, g.adjacency_masks,
                       render_edge_list(g), colouring)).encode() + b"\n")
    assert h.hexdigest() == VIEWS_DIGEST


class TestBipartition:
    def test_c6(self):
        assert c6().side == (0, 1, 0, 1, 0, 1)

    def test_k3_witness(self):
        with pytest.raises(NotBipartiteError) as err:
            new_graph(3, [(0, 1), (1, 2), (0, 2)]).side
        assert err.value.cycle == (0, 1, 2)

    def test_isolated_vertices_on_side_a(self):
        assert new_graph(3, []).side == (0, 0, 0)

    def test_component_rule(self):
        # two components; each lowest index lands on side A
        assert new_graph(4, [(0, 1), (2, 3)]).side == (0, 1, 0, 1)

    def test_side_is_memoised(self):
        g = c6()
        assert g.side is g.side

    @given(graphs(max_n=8))
    def test_valid_or_witnessed(self, g):
        try:
            side = g.side
        except NotBipartiteError as err:
            cycle = err.cycle
            assert len(cycle) % 2 == 1
            for i, v in enumerate(cycle):
                assert g.has_edge(v, cycle[(i + 1) % len(cycle)])
        else:
            assert len(side) == g.n and set(side) <= {0, 1}
            for u, v in g.edge_list:
                assert side[u] != side[v]


def witness_corpus():
    """Seeded relabelled G(n, p), n in 3..60 with about 0.5 to 3 expected
    neighbours per vertex, that are not bipartite."""
    for i in range(2000):
        n = 3 + i % 58
        g = random_graph(n, min(1.0, (1 + i % 6) / (2 * n)), i)
        perm = list(range(n))
        random.Random(i).shuffle(perm)
        h = new_graph(n, [(perm[u], perm[v]) for u, v in g.edge_list])
        try:
            h.side
        except NotBipartiteError as err:
            yield h, err.cycle


# sha256 over "<n> <cycle>" lines of the odd-cycle witness on witness_corpus()
WITNESS_DIGEST = "ad41fa71e04ec6f4312f9323540fca0cd1e265b2843c693f1c24de7ea27f17d8"


def test_odd_cycle_witness_digest():
    h = hashlib.sha256()
    count = 0
    for g, cycle in witness_corpus():
        h.update(f"{g.n} {cycle}\n".encode())
        count += 1
    assert count > 1000
    assert h.hexdigest() == WITNESS_DIGEST


class TestRemoveEdges:
    def test_c6_minus_edge_is_path(self):
        g = remove_edges(c6(), [(0, 1)])
        assert g.m == 5
        degrees = sorted(len(g.adjacency[v]) for v in range(6))
        assert degrees == [1, 1, 2, 2, 2, 2]

    def test_k2_minus_edge(self):
        g = remove_edges(new_graph(2, [(0, 1)]), [(0, 1)])
        assert g.m == 0 and g.n == 2

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            remove_edges(c6(), [(0, 2)])

    def test_shares_the_tuples_of_free_vertices(self):
        from dissolab.matching import maximum_matching

        for i in range(40):
            g = random_bipartite(3 + i % 7, 2 + i % 5, 0.4, i)
            m = maximum_matching(g)
            h = remove_edges(g, m.edges)
            matched = {v for e in m.edges for v in e}
            assert h.m == g.m - len(m.edges)
            for v in range(g.n):
                if v not in matched:
                    assert h.adjacency[v] is g.adjacency[v]
            # g - M is coloured by its own components, not by g's
            assert h.side == bipartition(h)
        g = c6()
        h = remove_edges(g, [(0, 1), (2, 3), (4, 5)])
        assert h.side == (0, 0, 1, 0, 1, 1) != g.side

    def test_smallest_non_edge_named(self):
        with pytest.raises(ValueError) as err:
            remove_edges(c6(), [(0, 3), (0, 2)])
        assert str(err.value) == "not an edge: (0, 2)"
        with pytest.raises(ValueError) as err:
            remove_edges(c6(), [(0, 2), (0, 3)])
        assert str(err.value) == "not an edge: (0, 2)"

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (0, 6), (6, 0)])
    def test_out_of_range_end_named(self, edge):
        # C6 has the edges (5, 0) and (0, 5): no end may index from the back
        with pytest.raises(ValueError) as err:
            remove_edges(c6(), [(0, 1), edge])
        assert str(err.value) == f"not an edge: {tuple(sorted(edge))}"

    def test_repeated_edge_dropped_once(self):
        g = remove_edges(c6(), [(0, 1), (2, 3), (1, 0), (0, 1)])
        assert g == new_graph(6, [(1, 2), (3, 4), (4, 5), (5, 0)])


TEXT_VARIANTS = ("canonical", "shuffled", "reversed", "repeated", "comment", "blank",
                 "crlf", "n_up", "n_down", "loop")


def edge_list_variant(g, variant, rng):
    """render_edge_list(g) with one change of the named kind."""
    header, *edges = render_edge_list(g).splitlines()
    n, m = g.n, g.m
    i = rng.randrange(len(edges) + 1)
    if variant == "shuffled":
        rng.shuffle(edges)
    elif variant == "reversed" and edges:
        _, u, v = edges[i % len(edges)].split()
        edges[i % len(edges)] = f"e {v} {u}"
    elif variant == "repeated" and edges:
        edges.insert(i, edges[i % len(edges)])
        m += rng.randrange(2)  # the line counts, or the header is one short
    elif variant in ("comment", "blank"):
        edges.insert(i, "c note" if variant == "comment" else "")
    elif variant in ("n_up", "n_down"):
        n += rng.randrange(1, 4) * (1 if variant == "n_up" else -1)
    elif variant == "loop" and n:
        edges.insert(i, f"e {i % n + 1} {i % n + 1}")
        m += 1
    end = "\r\n" if variant == "crlf" else "\n"
    return end.join([f"p edge {n} {m}"] + edges) + end


def read_or_error(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc)


class TestEdgeListFormat:
    def test_parse_k2(self):
        assert parse_edge_list("p edge 2 1\ne 1 2\n") == new_graph(2, [(0, 1)])

    def test_comments_and_blanks(self):
        text = "c a comment\n\np edge 3 1\nc another\ne 1 3\n"
        assert parse_edge_list(text) == new_graph(3, [(0, 2)])

    def test_whitespace_and_glued_comment(self):
        # tabs, leading blanks, CRLF ends, and a comment with no blank after its c
        text = "cfoo 1 2\r\n  p edge 3 2\r\n\te\t1\t2\r\n e 3  2 \r\n"
        assert parse_edge_list(text) == new_graph(3, [(0, 1), (1, 2)])

    def test_repeated_edge_lines_merge_but_count(self):
        text = "p edge 3 3\ne 1 2\ne 1 2\ne 2 1\n"
        assert parse_edge_list(text) == new_graph(3, [(0, 1)])
        with pytest.raises(ParseError, match="line 3: header declares 1 edges, found 2"):
            parse_edge_list("p edge 3 1\ne 1 2\ne 2 1\n")

    def test_repeated_canonical_line_merges_but_counts(self):
        assert parse_edge_list("p edge 3 3\ne 1 2\ne 1 2\ne 2 3\n") == new_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ParseError, match="^line 4: header declares 2 edges, found 3$"):
            parse_edge_list("p edge 3 2\ne 1 2\ne 1 2\ne 2 3\n")

    @pytest.mark.parametrize("header", ["p edge -1 0", "p edge 2 -1"])
    def test_negative_count_in_header(self, header):
        with pytest.raises(ParseError, match="^line 1: negative count in header$"):
            parse_edge_list(header + "\n")

    def test_crlf_canonical_file(self):
        text = render_edge_list(c6())
        assert parse_edge_list(text.replace("\n", "\r\n")) == parse_edge_list(text) == c6()

    @pytest.mark.parametrize("line", ["e +1 2", "e 01 2", "e 1 +2"])
    def test_signed_and_zero_padded_endpoints(self, line):
        # int() reads both forms as 1 and 2
        assert parse_edge_list(f"p edge 2 1\n{line}\n") == new_graph(2, [(0, 1)])

    def test_edge_before_header(self):
        with pytest.raises(ParseError, match="line 1.*before header"):
            parse_edge_list("e 1 2\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("p edge x y\n")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_edge_list("p edge 2 1\ne 1 3\n")

    def test_absurd_vertex_count(self):
        # rejected at the header, before anything of that size is allocated
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("p edge 100000000000 1\ne 1 2\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2"):
            parse_edge_list("p edge 3 2\ne 1 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p edge 2 0\np edge 2 0\n", "line 2: duplicate header"),
            ("p edge 2 1\ne 1\n", "line 2: malformed edge line 'e 1'"),
            ("p edge 2 1\ne 1\n2\n", "line 2: malformed edge line 'e 1'"),
            ("p edge 2 1 e 1 2\n\n", "line 1: malformed header 'p edge 2 1 e 1 2'"),
            ("p edge 2 1\ne 0 2\n", "line 2: endpoint out of range in 'e 0 2'"),
            ("p edge 2 1\ne 1 2 3\n", "line 2: malformed edge line 'e 1 2 3'"),
            ("c x\ne 1\np edge 2 1\n", "line 2: edge before header"),
            ("p edge 2 1\ne 1 2\np edge 2 1\n", "line 3: duplicate header"),
            ("p edge 2 1\ne 1 x\n", "line 2: malformed edge line 'e 1 x'"),
            ("p edge 2 1\ne 2 2\n", "line 2: loop edge in 'e 2 2'"),
            ("p edge 2 1\nx 1 2\n", "line 2: unrecognized line 'x 1 2'"),
            ("x edge 2 1\ne 1 2\n", "line 1: unrecognized line 'x edge 2 1'"),
            ("p cnf 2 1\ne 1 2\n", "line 1: malformed header 'p cnf 2 1'"),
            # end-of-input errors name the last line
            ("c only a comment\n\n", "line 2: missing header"),
            ("", "line 1: missing header"),
        ],
    )
    def test_parse_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_edge_list(text)
        assert _parse_canonical(text) is None

    @given(graphs(max_n=12), st.sampled_from(TEXT_VARIANTS), st.randoms(use_true_random=False))
    @settings(max_examples=400)
    def test_bulk_reader_agrees_with_line_reader(self, g, variant, rng):
        text = edge_list_variant(g, variant, rng)
        expected = read_or_error(_parse_lines, text)
        assert read_or_error(parse_edge_list, text) == expected
        bulk = _parse_canonical(text)  # never raises
        assert bulk is None or bulk == expected
        if variant == "canonical":  # a sparse header is left to the line reader
            assert bulk == (g if g.n <= 2 * g.m else None)

    def test_render_empty(self):
        assert render_edge_list(new_graph(0, [])) == "p edge 0 0\n"

    @given(graphs(max_n=9))
    def test_round_trip(self, g):
        assert parse_edge_list(render_edge_list(g)) == g

    def test_render_is_canonical_fixpoint(self):
        text = "c x\np edge 4 2\ne 4 1\ne 2 1\n"
        rendered = render_edge_list(parse_edge_list(text))
        assert rendered == render_edge_list(parse_edge_list(rendered))


class TestDot:
    def test_k2(self):
        out = to_dot(new_graph(2, [(0, 1)]))
        assert "0 -- 1;" in out and out.startswith("graph g {")

    def test_empty_graph_header_only(self):
        assert to_dot(new_graph(0, [])) == "graph g {\n}\n"

    def test_unknown_vertex_in_labeling(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            to_dot(new_graph(2, [(0, 1)]), labeling={5: "A1"})

    def test_recognizer_labels_rendered(self):
        from dissolab.matching import maximum_matching
        from dissolab.recognizer import Extremal, recognize_extremal

        g = c6()
        outcome = recognize_extremal(g, maximum_matching(g))
        assert isinstance(outcome, Extremal)
        out = to_dot(g, labeling=outcome.classes)
        for cls in ("A1", "A2", "A4", "B1", "B2", "B4"):
            assert cls in out


class TestGenerators:
    def test_p_zero_edgeless(self):
        assert random_bipartite(3, 3, 0.0, 7).m == 0

    def test_p_one_complete_bipartite(self):
        g = random_bipartite(3, 3, 1.0, 7)
        assert g.m == 9

    def test_determinism(self):
        assert random_bipartite(4, 4, 0.5, 1234) == random_bipartite(4, 4, 0.5, 1234)
        assert random_graph(9, 0.4, 99) == random_graph(9, 0.4, 99)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            random_bipartite(2, 2, 1.5, 0)

    def test_edges_cross_sides_only(self):
        g = random_bipartite(4, 5, 0.8, 3)
        for u, v in g.edge_list:
            assert u < 4 <= v

    def test_splitmix64_reference_vector(self):
        # published outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_floats_in_unit_interval(self, seed):
        rng = SplitMix64(seed)
        x = rng.next_float()
        assert 0.0 <= x < 1.0
