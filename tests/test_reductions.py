import pytest

from dissolab.catalog import all_graphs
from dissolab.corpus import random_cnf_corpus
from dissolab.exact import (
    dissociation_number_exact,
    independence_number_exact,
    induced_matching_number_exact,
    is_independent_set,
)
from dissolab import reductions
from dissolab.graph import MAX_EDGES, ParseError, new_graph, parse_edge_list
from dissolab.reductions import (
    CnfFormula,
    cnf_formula,
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    parse_cnf,
    parse_gadget_metadata,
    render_gadget,
)
from dissolab.graph import remove_edges
from dissolab.twosat import MAX_TRUTH_TABLE_VARS, cnf_satisfiable


def example_formula():
    # (x1 or x2 or x3) and (~x1 or x4 or ~x2) and (x1 or x3 or x4)
    return cnf_formula(
        4,
        [
            [(0, True), (1, True), (2, True)],
            [(0, False), (3, True), (1, False)],
            [(0, True), (2, True), (3, True)],
        ],
    )


def unsatisfiable_formula():
    # all eight sign patterns over three variables
    clauses = [
        [(0, a), (1, b), (2, c)]
        for a in (True, False)
        for b in (True, False)
        for c in (True, False)
    ]
    return cnf_formula(3, clauses)


def crowded_formula():
    # 2002 clauses over three variables, x1 positive in half of them and
    # negative in the other half: 1001^2 complementary edges
    return cnf_formula(3, [[(0, i % 2 == 0), (1, True), (2, True)] for i in range(2002)])


class TestCnfValidation:
    def test_wrong_width(self):
        with pytest.raises(ValueError, match="exactly 3"):
            cnf_formula(3, [[(0, True), (1, True)]])

    def test_repeated_variable(self):
        with pytest.raises(ValueError, match="repeats"):
            cnf_formula(3, [[(0, True), (0, False), (1, True)]])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cnf_formula(2, [[(0, True), (1, True), (2, True)]])

    def test_parse_dimacs_cnf(self):
        f = parse_cnf("c demo\np cnf 4 2\n1 2 3 0\n-1 4 -2 0\n")
        assert f.var_count == 4 and len(f.clauses) == 2
        assert f.clauses[1] == ((0, False), (3, True), (1, False))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p cnf x 1\n1 2 3 0\n", "line 1: malformed header"),
            ("p cnf -3 0\n", "line 1: negative count"),
            # end-of-input errors name the last line
            ("p cnf 3 2\n1 2 3 0\n", "line 2: header declares 2 clauses, found 1"),
            ("p cnf 3 1\n1 2 3\n", "line 2: unterminated clause"),
            ("c no header\n\n", "line 2: missing header"),
            # a clause breaking the 3-CNF rules names the line of its 0
            ("p cnf 3 1\n1 1 2 0\n", "line 2: clause '1 1 2 0' repeats a variable"),
            ("p cnf 4 1\n1 2 0\n", "line 2: clause '1 2 0' must have exactly 3 literals"),
            ("p cnf 4 1\n1 -2\nc split\n2 0\n", "line 4: clause '1 -2 2 0' repeats a variable"),
            ("p cnf 3 1\np cnf 3 1\n", "line 2: duplicate header"),
            ("c x\n1 2 3 0\np cnf 3 1\n", "line 2: clause before header"),
            ("p cnf 3 1\n1 two 3 0\n", "line 2: bad literal 'two'"),
            ("p cnf 3 1\n1 2 -4 0\n", "line 2: variable 4 out of range"),
        ],
    )
    def test_parse_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_cnf(text)


class TestClauseCliqueGadget:
    def test_example_formula_layout(self):
        gi = gadget_diss_2alpha(example_formula())
        g = gi.graph
        assert g.n == 12
        # the only inter-clique edges join complementary occurrences
        cross = sorted(
            e for e in g.edge_list
            if max(e) < 9 and e[0] // 3 != e[1] // 3
        )
        assert cross == [(0, 3), (1, 5), (3, 6)]
        assert gi.vertex_roles[9] == "hub:0"
        assert gi.vertex_roles[3] == "lit:1:0:~x1"

    def test_example_formula_invariants(self):
        g = gadget_diss_2alpha(example_formula()).graph
        assert independence_number_exact(g)[0] == 3
        assert dissociation_number_exact(g)[0] == 6
        assert induced_matching_number_exact(g)[0] == 3
        # the hub vertices themselves form a maximum independent set
        assert is_independent_set(g, {9, 10, 11})

    def test_single_clause_is_k4(self):
        f = cnf_formula(3, [[(0, True), (1, True), (2, True)]])
        g = gadget_diss_2alpha(f).graph
        assert (g.n, g.m) == (4, 6)
        assert independence_number_exact(g)[0] == 1
        assert dissociation_number_exact(g)[0] == 2
        assert induced_matching_number_exact(g)[0] == 1

    def test_empty_formula(self):
        gi = gadget_diss_2alpha(cnf_formula(0, []))
        assert gi.graph.n == 0 and gi.predicted["alpha"] == 0

    def test_same_literal_occurrences_not_joined(self):
        f = cnf_formula(
            3, [[(0, True), (1, True), (2, True)], [(0, True), (1, True), (2, True)]]
        )
        g = gadget_diss_2alpha(f).graph
        cross = [e for e in g.edge_list if max(e) < 6 and e[0] // 3 != e[1] // 3]
        assert cross == []

    def test_unsatisfiable_formula_breaks_equalities(self):
        f = unsatisfiable_formula()
        assert not cnf_satisfiable(f.var_count, f.clauses)
        g = gadget_diss_2alpha(f).graph
        assert g.n == 32
        diss = dissociation_number_exact(g, cutoff=32)[0]
        alpha = independence_number_exact(g, cutoff=32)[0]
        nus = induced_matching_number_exact(g, cutoff=32)[0]
        assert diss == alpha + nus  # holds unconditionally
        assert diss != 2 * alpha and diss != 2 * nus


class TestDoubledClauseGadget:
    def test_example_formula(self):
        gi = gadget_diss_alpha(example_formula())
        assert gi.graph.n == 18
        assert dissociation_number_exact(gi.graph)[0] == 6
        # satisfiable, so the equality holds
        assert independence_number_exact(gi.graph)[0] == 6

    def test_single_clause_is_octahedron(self):
        f = cnf_formula(3, [[(0, True), (1, True), (2, True)]])
        g = gadget_diss_alpha(f).graph
        assert (g.n, g.m) == (6, 12)
        assert dissociation_number_exact(g)[0] == 2
        assert independence_number_exact(g)[0] == 2

    def test_cross_edges_only_between_literal_halves(self):
        f = cnf_formula(
            1 + 2, [[(0, True), (1, True), (2, True)], [(0, False), (1, True), (2, True)]]
        )
        g = gadget_diss_alpha(f).graph
        cross = [e for e in g.edge_list if e[0] // 6 != e[1] // 6]
        assert cross == [(0, 6)]  # the complementary x1 occurrences

    def test_empty_formula(self):
        assert gadget_diss_alpha(cnf_formula(0, [])).graph.n == 0

    def test_unsatisfiable_formula_breaks_equality(self):
        # the "only if" side: each of the 8 clause blocks still admits 2
        # vertices of a dissociation set, but no independent set takes 2
        # from every block
        g = gadget_diss_alpha(unsatisfiable_formula()).graph
        assert g.n == 48
        assert dissociation_number_exact(g, cutoff=48)[0] == 16
        assert independence_number_exact(g, cutoff=48)[0] == 15


class TestCnfGadgetBiconditionals:
    def test_seeded_corpus(self):
        for f in random_cnf_corpus(40, 5, 4, 90001):
            sat = cnf_satisfiable(f.var_count, f.clauses)
            m = len(f.clauses)
            g3 = gadget_diss_2alpha(f).graph
            diss = dissociation_number_exact(g3)[0]
            alpha = independence_number_exact(g3)[0]
            nus = induced_matching_number_exact(g3)[0]
            assert alpha == m and diss == alpha + nus
            assert (diss == 2 * alpha) == sat and (diss == 2 * nus) == sat
            g4 = gadget_diss_alpha(f).graph
            diss4 = dissociation_number_exact(g4)[0]
            assert diss4 == 2 * m
            assert (diss4 == independence_number_exact(g4)[0]) == sat


class TestCnfGadgetSatisfiable:
    @pytest.mark.parametrize("builder", [gadget_diss_2alpha, gadget_diss_alpha])
    def test_carried_up_to_20_variables(self, builder):
        eight = unsatisfiable_formula().clauses
        for f in random_cnf_corpus(10, 5, 4, 1) + [cnf_formula(20, eight),
                                                    cnf_formula(20, eight[1:])]:
            assert builder(f).predicted["satisfiable"] == cnf_satisfiable(f.var_count, f.clauses)
        assert "satisfiable" not in builder(cnf_formula(MAX_TRUTH_TABLE_VARS + 1, eight)).predicted

    @pytest.mark.parametrize("builder", [gadget_diss_2alpha, gadget_diss_alpha])
    def test_carried_up_to_the_truth_table_limit(self, builder):
        eight = unsatisfiable_formula().clauses
        for f in (cnf_formula(MAX_TRUTH_TABLE_VARS, eight),
                  cnf_formula(MAX_TRUTH_TABLE_VARS, eight[1:])):
            assert builder(f).predicted["satisfiable"] == cnf_satisfiable(f.var_count, f.clauses)


class TestCnfGadgetSize:
    @pytest.mark.parametrize("builder,edges", [(gadget_diss_2alpha, 1014013),
                                               (gadget_diss_alpha, 1026025)])
    def test_too_many_edges_rejected_before_building(self, builder, edges, monkeypatch):
        calls = []
        monkeypatch.setattr(reductions, "new_graph", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"gadget would have {edges} edges, above {MAX_EDGES}"):
            builder(crowded_formula())
        assert calls == []

    @pytest.mark.parametrize("builder", [gadget_diss_2alpha, gadget_diss_alpha])
    def test_counted_size_is_the_built_size(self, builder, monkeypatch):
        # a gadget of exactly MAX_EDGES edges is built and one edge more is
        # refused; the last formula has complementary literals in one clause
        inner = CnfFormula(2, (((0, True), (0, False), (1, True)),
                               ((0, False), (1, False), (1, True))))
        formulas = random_cnf_corpus(20, 5, 4, 7) + [
            example_formula(), unsatisfiable_formula(),
            cnf_formula(3, crowded_formula().clauses[:40]), inner]
        for f, size in [(f, builder(f).graph.m) for f in formulas]:
            monkeypatch.setattr(reductions, "MAX_EDGES", size)
            assert builder(f).graph.m == size
            monkeypatch.setattr(reductions, "MAX_EDGES", size - 1)
            with pytest.raises(ValueError, match=f"gadget would have {size} edges"):
                builder(f)


class TestIndependentSetGadget:
    def test_k2_k2(self):
        gi = gadget_diss_alpha_plus_nus(new_graph(2, [(0, 1)]), 2)
        assert gi.graph.n == 10
        assert (gi.predicted["n_padded"], gi.predicted["k_padded"]) == (3, 3)
        assert dissociation_number_exact(gi.graph)[0] == 7
        assert independence_number_exact(gi.graph)[0] == 5
        assert induced_matching_number_exact(gi.graph)[0] == 2
        # alpha(K2) = 1 < 2, so equality holds: 7 == 5 + 2

    def test_k3_k1(self):
        k3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
        gi = gadget_diss_alpha_plus_nus(k3, 1)
        assert gi.graph.n == 22
        diss = dissociation_number_exact(gi.graph)[0]
        alpha = independence_number_exact(gi.graph)[0]
        nus = induced_matching_number_exact(gi.graph)[0]
        assert (diss, alpha) == (15, 11)
        assert nus >= 5 and alpha + nus > diss  # equality fails: alpha(K3)=1 >= 1

    @pytest.mark.parametrize("n,k", [(0, 1), (2, 3), (5, 1), (4, 4)])
    def test_order_formula(self, n, k):
        g = new_graph(n, [])
        gi = gadget_diss_alpha_plus_nus(g, k)
        t = max(0, n - 2 * k + 3, 2 - n)
        assert gi.graph.n == 2 * (n + t) + 2 * (k + t - 1)
        assert 2 * (k + t - 1) > n + t >= 2

    def test_too_many_edges_rejected_before_building(self, monkeypatch):
        # P3 with k >= 3 needs no padding: 2 + 3 + (k - 1) + 6(k - 1) edges,
        # 999,997 at k = 142857 and 1,000,004 at k = 142858
        calls = []
        monkeypatch.setattr(reductions, "new_graph", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"gadget would have 1000004 edges, above {MAX_EDGES}"):
            gadget_diss_alpha_plus_nus(new_graph(3, [(0, 1), (1, 2)]), 142858)
        assert calls == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            gadget_diss_alpha_plus_nus(new_graph(2, [(0, 1)]), 0)

    def test_biconditional_on_small_graphs(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                alpha_g = independence_number_exact(g)[0]
                for k in (1, 2, 3):
                    gi = gadget_diss_alpha_plus_nus(g, k)
                    h = gi.graph
                    diss = dissociation_number_exact(h, cutoff=40)[0]
                    alpha = independence_number_exact(h, cutoff=40)[0]
                    nus = induced_matching_number_exact(h, cutoff=40)[0]
                    kk = gi.predicted["k_padded"]
                    assert (alpha_g >= k) == (nus >= kk)
                    assert (alpha_g >= k) == (diss < alpha + nus)


class TestJoinGadget:
    def test_edgeless_three(self):
        gi = gadget_join_kn(new_graph(3, []))
        h, m = gi.graph, gi.matching
        assert h.n == 6 and len(m.edges) == 3
        hm = remove_edges(h, m.edges)
        assert independence_number_exact(h)[0] == 3
        assert independence_number_exact(hm)[0] == 3
        assert dissociation_number_exact(h)[0] == 3
        assert dissociation_number_exact(hm)[0] == 3

    def test_c7(self):
        c7 = new_graph(7, [(i, (i + 1) % 7) for i in range(7)])
        diss_c7 = dissociation_number_exact(c7)[0]
        gi = gadget_join_kn(c7)
        h, m = gi.graph, gi.matching
        assert h.n == 14
        assert independence_number_exact(h)[0] == 3
        assert dissociation_number_exact(h)[0] == diss_c7 == 4
        hm = remove_edges(h, m.edges)
        assert independence_number_exact(hm)[0] == 3
        assert dissociation_number_exact(hm)[0] == diss_c7

    def test_low_alpha_rejected(self):
        with pytest.raises(ValueError):
            gadget_join_kn(new_graph(3, [(0, 1), (0, 2), (1, 2)]))

    def test_matching_is_cross_perfect(self):
        m = gadget_join_kn(new_graph(4, [])).matching
        n = 4
        assert m.edges == frozenset((v, n + v) for v in range(n))


class TestSerialization:
    def test_round_trip_graph_and_metadata(self):
        gi = gadget_diss_2alpha(example_formula())
        text = render_gadget(gi)
        g = parse_edge_list(text)
        assert g == gi.graph
        kind, predictions, roles = parse_gadget_metadata(text, g.n)
        assert kind == "fig3"
        assert predictions["alpha"] == "3"
        assert predictions["satisfiable"] == "True"
        assert roles[9] == "hub:0"
