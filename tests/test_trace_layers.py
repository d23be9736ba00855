"""perfbench's tracer (``perfbench/spans.py``) wraps dissolab functions by
name and reads a few fields of their results; these tests fail when a traced
function is renamed or deleted, or a result it reads changes shape."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dissolab.recognizer as recognizer
from dissolab.graph import new_graph, parse_edge_list
from dissolab.matching import maximum_matching
from dissolab.recognizer import NotExtremal, build_2sat, decompose_alternating, recognize_extremal

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYER_NAMES = [(module, name) for module, names in _layers().values() for name in names]


@pytest.mark.parametrize("module,name", LAYER_NAMES, ids=[f"{m}.{n}" for m, n in LAYER_NAMES])
def test_layer_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dissolab.{module}"), name))


def c6():
    return new_graph(6, [(i, (i + 1) % 6) for i in range(6)])


def test_info_fields():
    g = c6()
    m = maximum_matching(g)
    assert len(m.edges) == 3
    assert parse_edge_list("p edge 2 1\ne 1 2\n").n == 2
    m2 = maximum_matching(new_graph(6, set(g.edge_list) - m.edges))
    formula, _ = build_2sat(g, decompose_alternating(g, m, m2), {})
    assert len(formula.clauses) == 3
    small = new_graph(2, [(0, 1)])
    outcome = recognize_extremal(small, maximum_matching(small))
    assert isinstance(outcome, NotExtremal) and outcome.reason.value == "MatchingSizeMismatch"


def test_recognizer_matches_g_minus_m_by_identity(monkeypatch):
    # the tracer tells a maximum_matching call on G - M by the identity of the
    # graph that remove_edges returned
    removed, matched = [], []
    real_remove, real_match = recognizer.remove_edges, recognizer.maximum_matching

    def remove_edges(g, edges):
        removed.append(real_remove(g, edges))
        return removed[-1]

    def maximum_matching_spy(g):
        matched.append(g)
        return real_match(g)

    monkeypatch.setattr(recognizer, "remove_edges", remove_edges)
    monkeypatch.setattr(recognizer, "maximum_matching", maximum_matching_spy)
    g = c6()
    recognize_extremal(g, real_match(g))
    assert len(removed) == 1 and len(matched) == 1 and matched[0] is removed[0]
