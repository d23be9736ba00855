"""Golden CLI output: stdout, exit code and written files of pinned invocations.

Each case runs ``dissolab`` in-process from a directory holding the fixture
files below, so every path in the output is relative and the recorded text
does not depend on where the tests run. The expected results live in
``golden_cli.json``; regenerate them with ``python tests/test_golden.py``
only when an output change is intended.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")


def _edges(n, pairs):
    lines = [f"p edge {n} {len(pairs)}"] + [f"e {u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def _cycle(k):
    return [(i, i % k + 1) for i in range(1, k + 1)]


def _path(k, offset=0):
    return [(offset + i, offset + i + 1) for i in range(1, k)]


def _matching(pairs):
    return "".join(f"m {u} {v}\n" for u, v in pairs)


FIXTURES = {
    "c6.dimacs": _edges(6, _cycle(6)),
    "c4.dimacs": _edges(4, _cycle(4)),
    "p3.dimacs": _edges(3, _path(3)),
    "p4.dimacs": _edges(4, _path(4)),
    "k2.dimacs": _edges(2, [(1, 2)]),
    "k3.dimacs": _edges(3, [(1, 2), (2, 3), (1, 3)]),
    "e3.dimacs": _edges(3, []),
    "e41.dimacs": _edges(41, []),
    # Petersen graph: non-bipartite, every invariant nontrivial
    "petersen.dimacs": _edges(
        10,
        _cycle(5) + [(5 + i, 6 + (i + 1) % 5) for i in range(1, 6)]
        + [(u, u + 5) for u in range(1, 6)],
    ),
    "bip.dimacs": _edges(
        12,
        [(1, 7), (1, 8), (2, 8), (2, 9), (3, 9), (3, 10), (4, 10), (4, 11),
         (5, 11), (5, 12), (6, 12), (6, 7), (1, 10), (3, 12)],
    ),
    # two 4-paths and a stray edge between unblocked path classes
    "twopaths.dimacs": _edges(10, _path(5) + _path(5, 5) + [(2, 7)]),
    "twopaths.matching": _matching([(1, 2), (3, 4), (6, 7), (8, 9)]),
    # a 6-cycle whose two strays into 4-paths force conflicting rotations
    "unsat.dimacs": _edges(
        16, _cycle(6) + _path(5, 6) + _path(5, 11) + [(1, 10), (3, 15)]
    ),
    "unsat.matching": _matching([(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (12, 13), (14, 15)]),
    "c6.matching": _matching([(2, 3), (4, 5), (1, 6)]),
    # extremal: a 4-path read from its higher endpoint 11, a 6-cycle whose
    # lowest vertex 2 is on side B, and the stray edge 3-9 forcing rotation 3
    "rotated.dimacs": _edges(
        11, [(1, 6), (1, 10), (2, 5), (2, 7), (3, 4), (3, 7), (3, 9), (4, 8), (5, 8),
             (9, 10), (9, 11)]),
    "rotated.matching": _matching([(1, 10), (2, 7), (3, 4), (5, 8), (9, 11)]),
    "c6-partial.matching": _matching([(1, 2)]),
    "f.cnf": "p cnf 4 3\n1 2 3 0\n-1 4 -2 0\n1 3 4 0\n",
}

# the files the gadget-* cases wrote, as recorded, for the directory check;
# tampered.dimacs is fig3 with a wrong alpha prediction
_GADGETS = {
    name: text
    for case in ("gadget-fig3", "gadget-fig4", "gadget-is", "gadget-join")
    for name, text in json.loads(GOLDEN.read_text(encoding="utf-8"))[case]["files"].items()
}
_GADGETS["tampered.dimacs"] = _GADGETS["g3.dimacs"].replace(
    "c predict alpha 3\n", "c predict alpha 4\n")
FIXTURES.update({f"gadgets/{name}": text for name, text in _GADGETS.items()})

# name -> (argv, files the invocation writes)
CASES = {
    "solve-c6": (["solve", "c6.dimacs"], []),
    "solve-petersen": (["solve", "petersen.dimacs"], []),
    "solve-k2-alpha": (["solve", "k2.dimacs", "--invariants", "alpha"], []),
    "solve-p4-diss-nus": (["solve", "p4.dimacs", "--invariants", "diss,nus"], []),
    "solve-over-cutoff": (["solve", "e41.dimacs"], []),
    "solve-cutoff-flag": (["solve", "e41.dimacs", "--cutoff", "41", "--invariants", "alpha"], []),
    "approx-c6": (["approx", "c6.dimacs"], []),
    "approx-bip": (["approx", "bip.dimacs"], []),
    "approx-not-bipartite": (["approx", "k3.dimacs"], []),
    "recognize-auto-c6": (["recognize", "c6.dimacs", "--dot", "c6.dot"], ["c6.dot"]),
    "recognize-file-c6": (["recognize", "c6.dimacs", "--matching", "c6.matching"], []),
    "recognize-file-rotated": (
        ["recognize", "rotated.dimacs", "--matching", "rotated.matching"], []),
    "recognize-auto-bip": (["recognize", "bip.dimacs"], []),
    "recognize-not-maximum": (
        ["recognize", "c6.dimacs", "--matching", "c6-partial.matching"], []),
    "recognize-size-mismatch": (["recognize", "p4.dimacs"], []),
    "recognize-bad-cycle": (["recognize", "c4.dimacs"], []),
    "recognize-bad-path": (["recognize", "p3.dimacs"], []),
    "recognize-path-edge": (
        ["recognize", "twopaths.dimacs", "--matching", "twopaths.matching",
         "--dot", "twopaths.dot"], ["twopaths.dot"]),
    "recognize-2sat-unsat": (["recognize", "unsat.dimacs", "--matching", "unsat.matching"], []),
    "recognize-not-bipartite": (["recognize", "k3.dimacs"], []),
    "gadget-fig3": (["gadget", "fig3", "--cnf", "f.cnf", "--out", "g3.dimacs"], ["g3.dimacs"]),
    "gadget-fig4": (["gadget", "fig4", "--cnf", "f.cnf", "--out", "g4.dimacs"], ["g4.dimacs"]),
    "gadget-is": (["gadget", "is", "--graph", "p3.dimacs", "--k", "2", "--out", "is.dimacs"],
                  ["is.dimacs"]),
    "gadget-join": (["gadget", "join", "--graph", "e3.dimacs", "--out", "join.dimacs"],
                    ["join.dimacs", "join.dimacs.matching"]),
    "check-chain-catalog": (["check", "chain-catalog:5"], []),
    "check-chain-random": (["check", "chain-random:8:8", "--seed", "2", "--verbose"], []),
    "check-matching-catalog": (["check", "matching-catalog:6"], []),
    "check-recognizer-catalog": (["check", "recognizer-catalog:7"], []),
    "check-recognizer-random": (["check", "recognizer-random:8:12", "--seed", "4"], []),
    "check-approx-random": (["check", "approx-random:8:12", "--seed", "4"], []),
    "check-gadget-random": (["check", "gadget-random:2", "--seed", "6"], []),
    "check-isgadget": (["check", "isgadget:3:2"], []),
    "check-join-random": (["check", "join-random:2:5", "--seed", "7"], []),
    "check-several": (["check", "chain-catalog:3", "matching-catalog:4"], []),
    "check-gadget-dir": (["check", "gadgets", "--verbose"], []),
}


def run_case(directory, name):
    """Run one case from ``directory``; its exit code, stdout and written files."""
    from dissolab.cli import main

    argv, written = CASES[name]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        files = {f: pathlib.Path(f).read_text(encoding="utf-8") for f in written}
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "files": files}


def write_fixtures(directory):
    for name, text in FIXTURES.items():
        path = directory / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_check_spec_has_a_case():
    from dissolab.cli import _TARGETS

    targets = [arg for argv, _ in CASES.values() if argv[0] == "check" for arg in argv[1:]]
    assert set(_TARGETS) <= {target.split(":")[0] for target in targets}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, tmp_path):
    write_fixtures(tmp_path)
    assert run_case(tmp_path, name) == golden[name]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    results = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            write_fixtures(pathlib.Path(tmp))
            results[case] = run_case(tmp, case)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
