import hashlib
import inspect
import itertools
import os
import pathlib
import subprocess
import sys
import time

import pytest

from dissolab import checks, cli, corpus, exact, graph, reductions
from dissolab.cli import main
from dissolab.graph import new_graph, parse_edge_list, remove_edges, render_edge_list
from dissolab.reductions import parse_gadget_metadata

from strategies import planted_pair


def write_graph(path, g):
    path.write_text(render_edge_list(g))
    return str(path)


def c6_file(tmp_path):
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    return write_graph(tmp_path / "c6.dimacs", g)


# P3 with the orig: role lines of the gadget `gadget is` writes for it
ORIG_ROLES = ("p edge 3 2\nc predict alpha 2\nc role 1 orig:0\nc role 2 orig:1\n"
              "c role 3 orig:2\ne 1 2\ne 2 3\n")


def kv(output):
    pairs = {}
    for line in output.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestSolve:
    def test_c6_report(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        assert main(["solve", path]) == 0
        got = kv(capsys.readouterr().out)
        assert got["diss"] == "4" and got["alpha"] == "3" and got["nu_s"] == "2"
        assert got["eq_diss_2nus"] == "true"
        assert got["eq_diss_2alpha"] == "false"
        assert got["eq_diss_alpha"] == "false"
        assert got["eq_diss_alpha_plus_nus"] == "false"
        assert got["eq_alpha_plus_nus_2alpha"] == "false"

    def test_k2_report(self, tmp_path, capsys):
        path = write_graph(tmp_path / "k2.dimacs", new_graph(2, [(0, 1)]))
        assert main(["solve", path]) == 0
        got = kv(capsys.readouterr().out)
        assert got["eq_diss_2alpha"] == "true"
        assert got["eq_diss_2nus"] == "true"
        assert got["eq_diss_alpha_plus_nus"] == "true"
        assert got["eq_diss_alpha"] == "false"

    def test_cutoff_exit_code(self, tmp_path, capsys):
        path = write_graph(tmp_path / "big.dimacs", new_graph(exact.EXACT_CUTOFF + 1, []))
        assert main(["solve", path]) == 3
        assert "InstanceTooLarge" in capsys.readouterr().err

    def test_one_equality_line_per_table_entry(self, tmp_path, capsys):
        assert main(["solve", c6_file(tmp_path)]) == 0
        keys = [line.split("=")[0] for line in capsys.readouterr().out.splitlines()]
        assert [k for k in keys if k.startswith("eq_")] == [
            "eq_" + name.replace("_eq_", "_") for name in exact.EQUALITIES]

    @pytest.mark.parametrize("invariants", ["diss,alpha,nus", "nus"])
    def test_recursion_limit_exit_code(self, invariants, tmp_path, capsys, monkeypatch):
        def too_deep(g, *, cutoff):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(exact, "induced_matching_number_exact", too_deep)
        assert main(["solve", c6_file(tmp_path), "--invariants", invariants]) == 3
        assert "error=RecursionError" in capsys.readouterr().err

    def test_huge_edgeless_file_over_cutoff_quickly(self, tmp_path, capsys):
        # the largest vertex count a header may declare, and no edge
        path = tmp_path / "huge.dimacs"
        path.write_text(f"p edge {graph.MAX_VERTICES} 0\n")
        started = time.perf_counter()
        assert main(["solve", str(path)]) == 3
        assert time.perf_counter() - started < 2.0
        assert "InstanceTooLarge" in capsys.readouterr().err

    def test_cutoff_flag_overrides(self, tmp_path, capsys):
        path = write_graph(tmp_path / "big.dimacs", new_graph(exact.EXACT_CUTOFF + 1, []))
        assert main(["solve", path, "--cutoff", str(exact.EXACT_CUTOFF + 1)]) == 0

    def test_invariant_subset(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        assert main(["solve", path, "--invariants", "alpha"]) == 0
        got = kv(capsys.readouterr().out)
        assert got["alpha"] == "3" and "diss" not in got

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("e 1 2\n")
        assert main(["solve", str(bad)]) == 2

    def test_deterministic_output(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        assert capsys.readouterr().out == first


class TestApprox:
    def test_c6(self, tmp_path, capsys):
        assert main(["approx", c6_file(tmp_path)]) == 0
        got = kv(capsys.readouterr().out)
        assert got["set_size"] == "3" and got["matching_size"] == "3"

    def test_one_regular(self, tmp_path, capsys):
        path = write_graph(tmp_path / "kk2.dimacs", new_graph(6, [(0, 1), (2, 3), (4, 5)]))
        assert main(["approx", path]) == 0
        assert kv(capsys.readouterr().out)["set"] == "1 2 3 4 5 6"

    def test_not_bipartite_exit_code(self, tmp_path, capsys):
        path = write_graph(tmp_path / "k3.dimacs", new_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert main(["approx", path]) == 2
        assert "NotBipartite" in capsys.readouterr().err

    def test_absurd_header_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.dimacs"
        path.write_text("p edge 100000000000 1\ne 1 2\n")
        assert main(["approx", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err


class TestRecognize:
    def test_c6_auto(self, tmp_path, capsys):
        assert main(["recognize", c6_file(tmp_path)]) == 0
        got = kv(capsys.readouterr().out)
        assert got["outcome"] == "extremal" and got["set_size"] == "4"
        assert got["ell"] == "1"

    def test_p4_auto(self, tmp_path, capsys):
        path = write_graph(tmp_path / "p4.dimacs", new_graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert main(["recognize", path]) == 0
        got = kv(capsys.readouterr().out)
        assert got["outcome"] == "not_extremal"
        assert got["reason"] == "MatchingSizeMismatch"

    def test_matching_file_not_maximum(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        mpath = tmp_path / "m.matching"
        mpath.write_text("m 1 2\n")
        assert main(["recognize", path, "--matching", str(mpath)]) == 0
        got = kv(capsys.readouterr().out)
        assert got["reason"] == "NotMaximumMatching"

    def test_dot_dump(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        dot = tmp_path / "out.dot"
        assert main(["recognize", path, "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph g {")
        assert "A4" in text and "B1" in text

    def test_unwritable_dot_prints_nothing(self, tmp_path, capsys):
        # the DOT file is written before the report, so a failed write
        # leaves no report behind its exit code
        path = write_graph(tmp_path / "p3.dimacs", new_graph(3, [(0, 1), (1, 2)]))
        dot = tmp_path / "missing" / "x.dot"
        assert main(["recognize", path, "--dot", str(dot)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error=FileNotFoundError" in err

    def test_bad_matching_file(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        mpath = tmp_path / "m.matching"
        mpath.write_text("m 1 3\n")  # not an edge of C6
        assert main(["recognize", path, "--matching", str(mpath)]) == 2

    def test_non_integer_matching_endpoint(self, tmp_path, capsys):
        path = c6_file(tmp_path)
        mpath = tmp_path / "m.matching"
        mpath.write_text("c comment\nm 1 x\n")
        assert main(["recognize", path, "--matching", str(mpath)]) == 2
        assert "error=ParseError detail=line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,detail",
        [("m 0 1\n", "line 1: endpoint out of range in 'm 0 1'"),
         ("m 1 2\nm 2 3\n", "line 2: vertex 2 already matched in 'm 2 3'"),
         ("c comment\nm 1 3\n", "line 2: not an edge of the graph in 'm 1 3'"),
         ("m 1 2 3\n", "line 1: malformed matching line 'm 1 2 3'")],
        ids=["out-of-range", "already-matched", "non-edge", "malformed"],
    )
    def test_invalid_matching_line_named(self, text, detail, tmp_path, capsys):
        path = write_graph(tmp_path / "p3.dimacs", new_graph(3, [(0, 1), (1, 2)]))
        mpath = tmp_path / "m.matching"
        mpath.write_text(text)
        assert main(["recognize", path, "--matching", str(mpath)]) == 2
        assert f"error=ParseError detail={detail}" in capsys.readouterr().err

    def test_repeated_matching_line_accepted(self, tmp_path, capsys):
        path = write_graph(tmp_path / "p3.dimacs", new_graph(3, [(0, 1), (1, 2)]))
        mpath = tmp_path / "m.matching"
        mpath.write_text("m 1 2\nm 2 1\n")
        assert main(["recognize", path, "--matching", str(mpath)]) == 0
        assert kv(capsys.readouterr().out)["matching"] == "1-2"


@pytest.mark.parametrize("argv", [["recognize", "--matching", "auto"], ["approx"]])
def test_each_graph_colored_once(argv, tmp_path, capsys, monkeypatch):
    # a 6-cycle and a 5-vertex path: G - M has more components than G
    g = new_graph(11, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 1) for i in range(6, 10)])
    path = write_graph(tmp_path / "g.dimacs", g)
    colored = []
    bfs = graph.bipartition

    def counting_bfs(h):
        colored.append(h)
        return bfs(h)

    monkeypatch.setattr(graph, "bipartition", counting_bfs)
    assert main([argv[0], path] + argv[1:]) == 0
    pairs = kv(capsys.readouterr().out)["matching"].split()
    m = [(int(u) - 1, int(v) - 1) for u, v in (p.split("-") for p in pairs)]
    assert colored == [g, remove_edges(g, m)]


# sha256 over the stdout of every run of test_poly_stdout_digest, in order
POLY_STDOUT_DIGEST = "84742a4337b9603abc9daff5f206e1014e26b03cd77a2da68823e4fdbe70bd5d"


def poly_inputs():
    """(name, graph, matching edges) of the stdout digest: planted pairs of
    3000 vertices with 0 and 300 extra edges under two seeds, with their
    planted M, and a sparse random bipartite graph with a greedy matching."""
    for seed in (1, 2):
        for extra in (0, 300):
            g, m, _ = planted_pair(3000, extra, seed)
            yield f"planted-{seed}-{extra}", g, m
    g = graph.random_bipartite(600, 600, 0.005, 3)
    partner = [-1] * g.n
    for u, nbrs in enumerate(g.adjacency):
        v = next((v for v in nbrs if partner[u] == partner[v] == -1), None)
        if v is not None:
            partner[u], partner[v] = v, u
    yield "random", g, [(u, v) for u, v in enumerate(partner) if u < v]


def test_poly_stdout_digest(tmp_path, capsys, monkeypatch):
    # graphs far above golden_cli.json's 10 vertices; relative paths keep
    # the instance= lines independent of the directory
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    outcomes = set()
    for name, g, m in poly_inputs():
        pathlib.Path(f"{name}.dimacs").write_text(render_edge_list(g))
        pathlib.Path(f"{name}.matching").write_text("".join(f"m {u + 1} {v + 1}\n" for u, v in m))
        for argv in (["approx", f"{name}.dimacs"],
                     ["recognize", f"{name}.dimacs", "--matching", f"{name}.matching"],
                     ["recognize", f"{name}.dimacs", "--matching", "auto"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            digest.update(out.encode())
            if argv[0] == "recognize":
                got = kv(out)
                outcomes.add(got.get("reason", got["outcome"]))
    assert outcomes == {"extremal", "NotMaximumMatching", "MatchingSizeMismatch"}
    assert digest.hexdigest() == POLY_STDOUT_DIGEST


@pytest.mark.parametrize(
    "argv",
    [["check", "chain-catalog:3", "--jobs", "0"], ["check", "chain-catalog:3", "--jobs", "-3"],
     ["solve", "g.dimacs", "--cutoff", "-1"]],
)
def test_nonpositive_flag_exit_code(argv, capsys):
    # argparse rejects the value before the command runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


class TestGadget:
    def cnf_file(self, tmp_path):
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 4 3\n1 2 3 0\n-1 4 -2 0\n1 3 4 0\n")
        return str(p)

    def test_fig3(self, tmp_path, capsys):
        out = tmp_path / "g3.dimacs"
        assert main(["gadget", "fig3", "--cnf", self.cnf_file(tmp_path), "--out", str(out)]) == 0
        got = kv(capsys.readouterr().out)
        assert got["order"] == "12"
        text = out.read_text()
        g = parse_edge_list(text)
        kind, predictions, _ = parse_gadget_metadata(text, g.n)
        assert kind == "fig3" and predictions["satisfiable"] == "True"
        assert g.n == 12

    def test_fig4(self, tmp_path, capsys):
        out = tmp_path / "g4.dimacs"
        assert main(["gadget", "fig4", "--cnf", self.cnf_file(tmp_path), "--out", str(out)]) == 0
        assert kv(capsys.readouterr().out)["order"] == "18"

    def test_fig3_with_too_many_edges_rejected_before_building(self, tmp_path, monkeypatch,
                                                              capsys):
        # x1 positive in 1001 clauses and negative in 1001: 6 * 2002 + 1001^2 edges
        calls = []
        monkeypatch.setattr(reductions, "new_graph", lambda *args: calls.append(args))
        cnf = tmp_path / "crowded.cnf"
        cnf.write_text("p cnf 3 2002\n" + "1 2 3 0\n-1 2 3 0\n" * 1001)
        out = tmp_path / "g3.dimacs"
        assert main(["gadget", "fig3", "--cnf", str(cnf), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert f"gadget would have 1014013 edges, above {graph.MAX_EDGES}" in (
            capsys.readouterr().err)

    def test_is_gadget(self, tmp_path, capsys):
        gpath = write_graph(tmp_path / "k2.dimacs", new_graph(2, [(0, 1)]))
        out = tmp_path / "is.dimacs"
        assert main(["gadget", "is", "--graph", gpath, "--k", "2", "--out", str(out)]) == 0
        assert kv(capsys.readouterr().out)["order"] == "10"

    @pytest.mark.parametrize("k", ["99999999999", "4999999"])
    def test_oversized_is_gadget_rejected_before_building(self, k, tmp_path, monkeypatch,
                                                          capsys):
        # on a 3-vertex path the gadget has 2 * 3 + 2(k - 1) vertices: 10^7 + 2
        # for k = 4999999, one above what a graph file may declare
        calls = []
        monkeypatch.setattr(reductions, "new_graph", lambda *args: calls.append(args))
        gpath = write_graph(tmp_path / "p3.dimacs", new_graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "is.dimacs"
        assert main(["gadget", "is", "--graph", gpath, "--k", k, "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        order = 6 + 2 * (int(k) - 1)
        assert f"gadget would have {order} vertices, above {graph.MAX_VERTICES}" in (
            capsys.readouterr().err)

    def test_is_gadget_with_too_many_edges_rejected_before_building(self, tmp_path, capsys):
        # P3 padded to k = 10^6 stays far below MAX_VERTICES, but its join
        # alone has 2 * 3 * (k - 1) edges: building it took 40 s and 2.2 GB
        gpath = write_graph(tmp_path / "p3.dimacs", new_graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "is.dimacs"
        start = time.perf_counter()
        code = main(["gadget", "is", "--graph", gpath, "--k", "1000000", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out.exists()
        edges = 2 + 3 + 999999 + 6 * 999999
        assert f"gadget would have {edges} edges, above {graph.MAX_EDGES}" in (
            capsys.readouterr().err)

    def test_join_writes_matching(self, tmp_path, capsys):
        gpath = write_graph(tmp_path / "e3.dimacs", new_graph(3, []))
        out = tmp_path / "join.dimacs"
        assert main(["gadget", "join", "--graph", gpath, "--out", str(out)]) == 0
        got = kv(capsys.readouterr().out)
        assert got["order"] == "6"
        matching_lines = (tmp_path / "join.dimacs.matching").read_text().splitlines()
        assert matching_lines == ["m 1 4", "m 2 5", "m 3 6"]

    def test_overwriting_a_join_removes_its_matching(self, tmp_path, capsys):
        # a sidecar left from an earlier join would be checked with the new file
        gpath = write_graph(tmp_path / "e3.dimacs", new_graph(3, []))
        gadgets = tmp_path / "gadgets"
        gadgets.mkdir()
        out = gadgets / "x.dimacs"
        assert main(["gadget", "join", "--graph", gpath, "--out", str(out)]) == 0
        assert (gadgets / "x.dimacs.matching").exists()
        assert main(["gadget", "fig3", "--cnf", self.cnf_file(tmp_path), "--out", str(out)]) == 0
        assert not (gadgets / "x.dimacs.matching").exists()
        capsys.readouterr()
        assert main(["check", str(gadgets)]) == 0
        assert "total_failures=0" in capsys.readouterr().out

    def test_join_precondition_exit_code(self, tmp_path, capsys):
        gpath = write_graph(tmp_path / "k3.dimacs", new_graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert main(["gadget", "join", "--graph", gpath, "--out", str(tmp_path / "x")]) == 2

    def test_missing_input_rejected(self, tmp_path, capsys):
        assert main(["gadget", "fig3", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [(["fig3"], "kind fig3 needs --cnf"),
         (["fig3", "--cnf", ""], "kind fig3 needs --cnf"),
         (["fig4", "--graph", "g.dimacs"], "kind fig4 needs --cnf"),
         (["is", "--graph", "g.dimacs"], "kind is needs --graph and --k"),
         (["is", "--k", "2"], "kind is needs --graph and --k"),
         (["is", "--graph", "", "--k", "2"], "kind is needs --graph and --k"),
         (["join"], "kind join needs --graph"),
         (["join", "--cnf", "f.cnf"], "kind join needs --graph")],
    )
    def test_missing_option_named(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gadget", *argv, "--out", str(out)]) == 2
        assert f"error=ValueError detail={message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_k_zero_is_given(self, tmp_path, capsys):
        # --k 0 is an option given, so the builder, not the missing-option
        # check, rejects it
        gpath = write_graph(tmp_path / "k2.dimacs", new_graph(2, [(0, 1)]))
        assert main(["gadget", "is", "--graph", gpath, "--k", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert "k must be a positive integer, got 0" in capsys.readouterr().err

    def test_kinds_are_the_table(self):
        parser = cli._build_parser()
        assert parser.parse_args(["gadget", "join", "--out", "x"]).kind == "join"
        with pytest.raises(SystemExit):
            parser.parse_args(["gadget", "fig5", "--out", "x"])
        assert list(cli._GADGETS) == ["fig3", "fig4", "is", "join"]


class TestCheck:
    def test_chain_catalog_ok(self, capsys):
        assert main(["check", "chain-catalog:5"]) == 0
        out = capsys.readouterr().out
        assert "total_failures=0" in out
        assert "instances=31" in out  # 1+1+2+6+21 connected graphs

    def test_corrupted_fixture_fails_by_name(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = corpus / "gadget.dimacs"
        assert main(["gadget", "fig3", "--cnf", str(cnf), "--out", str(out)]) == 0
        capsys.readouterr()
        tampered = out.read_text().replace("c predict alpha 1", "c predict alpha 2")
        out.write_text(tampered)
        assert main(["check", str(corpus)]) == 1
        report = capsys.readouterr().out
        assert "status=fail" in report and "gadget.dimacs" in report

    def test_clean_fixture_dir_passes(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gadget", "fig3", "--cnf", str(cnf), "--out", str(corpus / "a.dimacs")])
        main(["gadget", "fig4", "--cnf", str(cnf), "--out", str(corpus / "b.dimacs")])
        capsys.readouterr()
        assert main(["check", str(corpus)]) == 0

    def test_join_matching_sidecar_skipped_in_dir_check(self, tmp_path, capsys):
        gpath = write_graph(tmp_path / "e3.dimacs", new_graph(3, []))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gadget", "join", "--graph", gpath, "--out", str(corpus / "j.dimacs")])
        capsys.readouterr()
        assert main(["check", str(corpus)]) == 0
        assert "instances=1" in capsys.readouterr().out

    def test_seeded_specs_deterministic(self, capsys):
        argv = ["check", "chain-random:20:10", "--seed", "5", "--verbose"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_parallel_jobs_match_serial(self, capsys):
        serial = ["check", "recognizer-random:12:10", "--seed", "9", "--verbose"]
        assert main(serial) == 0
        first = capsys.readouterr().out
        assert main(serial + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("name", list(exact.EQUALITIES))
    def test_every_equality_is_a_prediction(self, name, tmp_path, capsys):
        # on K2 (diss 2, alpha 1, nu_s 1) only diss = alpha fails
        (tmp_path / "k2.dimacs").write_text(f"p edge 2 1\nc predict {name} always\ne 1 2\n")
        assert main(["check", str(tmp_path)]) == (1 if name == "diss_eq_alpha" else 0)

    def test_chain_recursion_limit_exit_code(self, capsys, monkeypatch):
        def too_deep(g, *, cutoff):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(exact, "dissociation_number_exact", too_deep)
        assert main(["check", "chain-catalog:3"]) == 3
        assert "error=RecursionError" in capsys.readouterr().err

    def test_over_cutoff_exit_code(self, capsys):
        assert main(["check", "chain-catalog:5", "--cutoff", "3"]) == 3

    def test_over_cutoff_file_exit_code(self, tmp_path, capsys):
        # an 11-clause fig3 gadget has 44 vertices, over the default cutoff of 40
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 11\n" + "1 2 3 0\n" * 11)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["gadget", "fig3", "--cnf", str(cnf), "--out", str(corpus / "a.dimacs")]) == 0
        assert kv(capsys.readouterr().out)["order"] == "44"
        assert main(["check", str(corpus), "--verbose"]) == 3
        captured = capsys.readouterr()
        assert "status=ok" not in captured.out
        assert "InstanceTooLarge" in captured.err

    @pytest.mark.parametrize(
        "target,jobs,cpus,pools",
        [
            ("chain-random:3:5", "5000", 8, [3]),    # no more workers than tasks
            ("chain-random:3:5", "5000", 2, [2]),    # nor than CPUs
            ("chain-random:3:5", "2", 8, [2]),
            ("chain-random:3:5", "5000", 1, []),     # one worker: serial, no pool
            ("chain-random:3:5", "5000", None, []),  # CPU count unknown
            ("chain-random:1:5", "4", 8, []),        # a single task
        ],
    )
    def test_jobs_clamped(self, target, jobs, cpus, pools, monkeypatch, capsys):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["check", target, "--jobs", jobs]) == 0
        assert started == pools

    @pytest.mark.parametrize(
        "text",
        ["p edge 3 2\ne 1 2\ne 2 3\n",
         "p edge 3 2\nc predict alpha_minus_matching 2\ne 1 2\ne 2 3\n",
         "p edge 3 2\nc predict alpha 2\nc predict alpah 2\ne 1 2\ne 2 3\n",
         "p edge 3 2\nc predict diss_eq_2alpha iff-satisfiable\ne 1 2\ne 2 3\n"],
        ids=["no-predictions", "unchecked-prediction", "unknown-prediction",
             "marker-without-metadata"],
    )
    def test_file_without_checked_prediction_rejected(self, text, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "p3.dimacs").write_text(text)
        assert main(["check", str(corpus), "--verbose"]) == 2
        captured = capsys.readouterr()
        assert "status=ok" not in captured.out
        assert "p3.dimacs" in captured.err

    @pytest.mark.parametrize(
        "files,error",
        [({"p3.dimacs": "c predict alpha 2\np edge 3 1\ne 1 9\n"}, "p3.dimacs: line 3: "),
         ({"p3.dimacs": "c predict alpha 2\np edge 3 2\ne 1 2\ne 2 3\n",
           "p3.dimacs.matching": "m 1 x\n"}, "p3.dimacs: line 1: malformed matching line"),
         ({"p3.dimacs": "c predict alpha 2\nc role x foo\np edge 3 0\n"},
          "p3.dimacs: line 2: malformed role line 'c role x foo'"),
         ({"p3.dimacs": "c predict alpha 3\nc role 0 orig:0\np edge 3 0\n"},
          "p3.dimacs: line 2: role vertex out of range in 'c role 0 orig:0'"),
         ({"p3.dimacs": "c predict alpha 3\nc role 4 orig:0\np edge 3 0\n"},
          "p3.dimacs: line 2: role vertex out of range in 'c role 4 orig:0'"),
         ({"p3.dimacs": "c predict alpha 3\nc role 1 orig:x\np edge 3 0\n"},
          "p3.dimacs: line 2: malformed orig index in 'c role 1 orig:x'"),
         # the source graph would be read from the wrong vertices
         ({"p3.dimacs": ORIG_ROLES.replace("c role 3 orig:2", "c role 3 orig:0")},
          "p3.dimacs: line 5: repeated orig index in 'c role 3 orig:0'"),
         ({"p3.dimacs": ORIG_ROLES.replace("c role 1 orig:0", "c role 1 orig:7")},
          "p3.dimacs: line 3: orig index out of range in 'c role 1 orig:7'"),
         ({"p3.dimacs": ORIG_ROLES.replace("c role 3 orig:2", "c role 2 orig:2")},
          "p3.dimacs: line 5: role vertex repeated in 'c role 2 orig:2'")],
        ids=["graph-line", "sidecar-line", "role-line", "role-vertex-zero",
             "role-vertex-above-n", "orig-index", "orig-index-repeated",
             "orig-index-above-k", "role-vertex-repeated"],
    )
    def test_malformed_file_named_in_error(self, files, error, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in files.items():
            (corpus / name).write_text(text)
        assert main(["check", str(corpus)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,graph,flags,old,new,detail",
        [
            ("join", new_graph(3, []), [], "alpha_minus_matching 3", "alpha_minus_matching 2",
             "predict alpha_minus_matching expected 2 got 3"),
            ("join", new_graph(3, []), [], "diss_minus_matching 3", "diss_minus_matching 4",
             "predict diss_minus_matching expected 4 got 3"),
            # alpha(P3) = 2, so with k = 3 the equality would have to hold
            ("is", new_graph(3, [(0, 1), (1, 2)]), ["--k", "2"], "k_original 2", "k_original 3",
             "predict diss_eq_alpha_plus_nus expected True got False"),
        ],
        ids=["alpha_minus_matching", "diss_minus_matching", "k_original"],
    )
    def test_tampered_gadget_file_fails(self, kind, graph, flags, old, new, detail,
                                        tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = corpus / f"{kind}.dimacs"
        gpath = write_graph(tmp_path / "g.dimacs", graph)
        assert main(["gadget", kind, "--graph", gpath, *flags, "--out", str(out)]) == 0
        assert main(["check", str(corpus)]) == 0
        capsys.readouterr()
        out.write_text(out.read_text().replace(f"c predict {old}\n", f"c predict {new}\n"))
        assert main(["check", str(corpus)]) == 1
        assert f"status=fail detail={detail}" in capsys.readouterr().out

    def test_gadget_corpus_script_checks_clean(self, tmp_path, capsys):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, str(root / "scripts" / "make_gadget_corpus.py"),
                        str(tmp_path)], check=True, env=env, capture_output=True)
        assert main(["check", str(tmp_path)]) == 0
        assert "instances=25 failures=0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "target", ["chain-catalog:40", "matching-catalog:11", "recognizer-catalog:11",
                   "isgadget:7:1"])
    def test_oversized_catalog_exit_code(self, target, capsys):
        assert main(["check", target]) == 3
        assert "InstanceTooLarge" in capsys.readouterr().err

    def test_over_cutoff_is_gadget_exits_before_checking(self, monkeypatch, capsys):
        # every IS gadget for k = 20 has at least 2 * 20 + 2 = 42 vertices
        calls = []
        real = checks.check_is_gadget

        def check_is_gadget(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, "check_is_gadget", check_is_gadget)
        assert main(["check", "isgadget:1:20", "--cutoff", "40"]) == 3
        assert calls == []
        assert "instance has 42 vertices, cutoff is 40" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target,check,generator,order",
        [("chain-random:2000:60", "check_chain", "random_graph_corpus", 60),
         ("chain-random:45:60", "check_chain", "random_graph_corpus", 45),
         ("recognizer-random:50:41", "check_recognizer", "random_bipartite_corpus", 41),
         ("approx-random:40:60", "check_approx", "random_bipartite_corpus", 41)],
    )
    def test_over_cutoff_random_spec_exits_before_generating(
            self, target, check, generator, order, monkeypatch, capsys):
        # sizes cycle over 1..N (2..N for bipartite graphs), so COUNT
        # instances reach min(COUNT, N) vertices (min(COUNT + 1, N))
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return None

        monkeypatch.setattr(checks, check, spy)
        monkeypatch.setattr(cli, generator, spy)
        assert main(["check", target, "--cutoff", "40"]) == 3
        assert calls == []
        assert f"instance has {order} vertices, cutoff is 40" in capsys.readouterr().err

    def test_over_cutoff_join_random_exits_before_generating(self, monkeypatch, capsys):
        # every source graph has at least 3 vertices, so its join at least 6
        calls = []
        monkeypatch.setattr(cli, "join_input_corpus", lambda *args: calls.append(args))
        assert main(["check", "join-random:2:5", "--cutoff", "5"]) == 3
        assert calls == []
        assert "instance has 6 vertices, cutoff is 5" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["chain-random", "recognizer-random", "approx-random"])
    def test_random_spec_least_order_is_reached(self, kind):
        # the bound is the largest order, so no spec under the cutoff exits 3
        spec = cli._TARGETS[kind]
        for count in range(1, 9):
            for n in range(2, 9):
                orders = [g.n for g in spec.generate(count, n, 5, 40)]
                assert max(orders) == spec.least_order(count, n)

    @pytest.mark.parametrize(
        "target",
        [":".join([kind, *map(str, values)])
         for kind, spec in cli._TARGETS.items()
         for values in itertools.product((1, 2), repeat=len(spec.fields))],
    )
    def test_every_spec_keeps_the_exit_code_contract(self, target, capsys):
        # the smallest fields of every spec kind: ok, invalid input or over
        # the cutoff, but never a traceback (an exception out of main fails
        # the test) and never a violation
        assert main(["check", target]) in (0, 2, 3), capsys.readouterr()

    def test_join_random_generates_under_the_given_cutoff(self, capsys):
        # the first input of seed 5 has 41 vertices, one over the default
        # cutoff, under which its alpha >= 3 test once ran whatever --cutoff said
        assert main(["check", "join-random:3:41", "--cutoff", "82", "--seed", "5"]) == 0
        assert "instances=3 failures=0" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        assert main(["check", "nonsense:1"]) == 2

    @pytest.mark.parametrize(
        "target",
        ["chain-catalog", "chain-catalog:", "chain-catalog:x", "chain-random:5",
         "isgadget:3", "join-random:2:five", "gadget-random", "chain-catalog:3:junk",
         "gadget-random:5:x", "chain-random:-5:6", "chain-catalog:-1", "isgadget:0:0",
         "chain-random:0:6"],
    )
    def test_malformed_spec_exit_code(self, target, capsys):
        assert main(["check", target]) == 2
        assert target in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["recognizer-random:1:1", "approx-random:3:1"])
    def test_bipartite_spec_with_one_vertex_rejected(self, target, capsys):
        # a bipartite corpus graph has a vertex on each side, so N = 1 is
        # invalid input; it used to end in a ZeroDivisionError traceback
        assert main(["check", target]) == 2
        assert "error=ValueError detail=bipartite corpus needs max_n >= 2, got 1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize(
        "target,instances",
        [
            ("matching-catalog:5", 11),     # 1+1+1+3+5 connected bipartite
            ("recognizer-catalog:5", 11),
            ("approx-random:10:8", 10),
            ("gadget-random:5", 5),
            ("isgadget:3:2", 16),           # (1+1+2+4) graphs x 2 values of k
            ("join-random:3:6", 3),
        ],
    )
    def test_remaining_targets_pass(self, target, instances, capsys):
        assert main(["check", target, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert f"instances={instances}" in out
        assert "total_failures=0" in out

    def test_timings_flag_goes_to_stderr(self, capsys):
        assert main(["check", "chain-random:5:6", "--timings"]) == 0
        captured = capsys.readouterr()
        assert "elapsed_ms=" in captured.err
        assert "elapsed_ms=" not in captured.out


class TestOneCutoff:
    # exact.EXACT_CUTOFF is the one default vertex cutoff of every oracle,
    # in the library and on the command line
    MODULES = (exact, checks, reductions, corpus)
    # argv prefixes that parse without running anything
    PARSERS = {"solve": ["solve", "g.dimacs"],
               "gadget": ["gadget", "fig3", "--out", "g.dimacs"],
               "check": ["check", "chain-catalog:3"]}

    def test_every_library_default_is_the_constant(self):
        defaults = {}
        for module in self.MODULES:
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    param = inspect.signature(fn).parameters.get("cutoff")
                    if param is not None and param.default is not param.empty:
                        defaults[f"{module.__name__}.{name}"] = param.default
        assert {"dissolab.checks.check_chain", "dissolab.checks.check_instance_file",
                "dissolab.exact.dissociation_number_exact",
                "dissolab.reductions.gadget_join_kn",
                "dissolab.corpus.join_input_corpus"} <= set(defaults)
        assert {name: value for name, value in defaults.items()
                if value != exact.EXACT_CUTOFF} == {}

    @pytest.mark.parametrize("command", sorted(PARSERS))
    def test_parser_default_is_the_constant(self, command):
        assert cli._build_parser().parse_args(self.PARSERS[command]).cutoff == exact.EXACT_CUTOFF

    def test_no_environment_variable_sets_it(self, tmp_path, capsys, monkeypatch):
        # --cutoff is the one way to change it; a leftover variable of that
        # name is not read, by solve or by commands without a cutoff
        path = write_graph(tmp_path / "big.dimacs", new_graph(exact.EXACT_CUTOFF + 1, []))
        monkeypatch.setenv("DISSOLAB_CUTOFF", str(exact.EXACT_CUTOFF + 1))
        assert main(["solve", path]) == 3
        monkeypatch.setenv("DISSOLAB_CUTOFF", "abc")
        assert main(["approx", c6_file(tmp_path)]) == 0
