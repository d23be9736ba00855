"""Correctness checks in the library must survive ``python -O``, each kind
of failure has one exception type, and only ``matching.py`` builds a
``Matching``."""

import ast
import builtins
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (SRC / "dissolab").glob("*.py"))
)
def test_library_has_no_assert(module):
    tree = ast.parse((SRC / "dissolab" / module).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"


# one failure type per idea: invalid input is a ValueError, of which only
# these two subclasses carry something their callers read (the line, the odd
# cycle); InstanceTooLarge is over a limit; RuntimeError is a contradiction
EXCEPTION_CLASSES = {"ParseError", "NotBipartiteError", "InstanceTooLarge"}
RAISED = EXCEPTION_CLASSES | {"ValueError", "RuntimeError"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_one_failure_type_per_idea():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((SRC / "dissolab").glob("*.py"))}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions: set[str] = set()
    grown = True
    while grown:  # a class is an exception when one of its bases is
        before = len(exceptions)
        for cls in classes:
            for base in map(_name, cls.bases):
                builtin = getattr(builtins, base or "", None)
                if base in exceptions or (
                        isinstance(builtin, type) and issubclass(builtin, BaseException)):
                    exceptions.add(cls.name)
        grown = len(exceptions) > before
    assert exceptions == EXCEPTION_CLASSES
    raised = [(module, node.lineno, _name(node.exc))
              for module, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None]
    assert [r for r in raised if r[2] not in RAISED] == []


def test_only_matching_module_builds_matchings():
    # a Matching's storage is decided in one module: elsewhere it is read
    builders = sorted(p.name for p in (SRC / "dissolab").glob("*.py")
                      if any(isinstance(node, ast.Call) and _name(node) == "Matching"
                             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))))
    assert builders == ["matching.py"]


def test_chain_violation_reported_under_optimize():
    # an independence oracle that answers 0 breaks alpha + nu_s <= 2 alpha
    script = (
        "import sys\n"
        "import dissolab.exact as exact\n"
        "from dissolab.checks import check_chain\n"
        "from dissolab.graph import new_graph\n"
        "exact.independence_number_exact = lambda g, cutoff: (0, frozenset())\n"
        "print(sys.flags.optimize)\n"
        "print(check_chain(new_graph(3, [(0, 1), (1, 2)])))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    optimize, detail = done.stdout.splitlines()
    assert optimize == "1"
    assert detail.startswith("chain violated:"), detail


@pytest.mark.parametrize(
    "check,solve,message",
    [("is_dissociation_set", "dissociation_number_exact",
      "dissociation search returned a set that is not a dissociation set"),
     ("is_independent_set", "independence_number_exact",
      "independent set search returned a set that is not independent"),
     ("is_induced_matching", "induced_matching_number_exact",
      "induced matching search returned a non-induced matching")],
    ids=["diss", "alpha", "nu_s"],
)
def test_bad_witness_raises_under_optimize(check, solve, message):
    # each oracle checks its witness before it returns; a check that fails
    # must still raise with asserts stripped
    script = (
        "import sys\n"
        "import dissolab.exact as exact\n"
        "from dissolab.graph import new_graph\n"
        f"exact.{check} = lambda g, s: False\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        f"    exact.{solve}(new_graph(2, [(0, 1)]))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["1", message]


def test_greedy_dissociation_checked_under_optimize():
    # pytest rewrites the asserts of test modules, so they still check the
    # greedy incumbent of the diss search with the library's asserts stripped
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(SRC.parent / "tests" / "test_exact.py") + "::TestGreedyDissociation"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "2 passed" in done.stdout, done.stdout
