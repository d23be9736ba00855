import pytest

from dissolab.approx import approx_dissociation_bipartite
from dissolab.corpus import random_bipartite_corpus
from dissolab.exact import (
    dissociation_number_exact,
    independence_number_exact,
    is_dissociation_set,
)
from dissolab.graph import Graph, NotBipartiteError, new_graph, remove_edges
from dissolab.matching import matching_from_edges
from dissolab.recognizer import Extremal, recognize_extremal

from strategies import planted_pair


def c6():
    return new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def test_c6():
    chosen, _ = approx_dissociation_bipartite(c6())
    assert len(chosen) == 3
    assert is_dissociation_set(c6(), chosen)
    assert dissociation_number_exact(c6())[0] == 4  # 3 >= (3/4) * 4


def test_one_regular_graph_is_solved_exactly():
    g = new_graph(6, [(0, 1), (2, 3), (4, 5)])
    chosen, matching = approx_dissociation_bipartite(g)
    assert chosen == frozenset(range(6))
    assert len(matching.edges) == 3


def test_k23():
    g = new_graph(5, [(a, b) for a in range(2) for b in range(2, 5)])
    chosen, _ = approx_dissociation_bipartite(g)
    assert len(chosen) == 3 == dissociation_number_exact(g)[0]


def test_not_bipartite():
    with pytest.raises(NotBipartiteError):
        approx_dissociation_bipartite(new_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_invalid_set_raises(monkeypatch):
    # the approximation checks its own output with a raise, which -O keeps
    import dissolab.approx as approx

    def everything(h):
        return frozenset(range(h.n))

    monkeypatch.setattr(approx, "maximum_independent_set_bipartite", everything)
    with pytest.raises(RuntimeError, match="not a dissociation set"):
        approx_dissociation_bipartite(new_graph(3, [(0, 1), (1, 2)]))


def test_certificate_matches_set():
    g = new_graph(7, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)])
    chosen, matching = approx_dissociation_bipartite(g)
    reduced = remove_edges(g, matching.edges)
    assert independence_number_exact(reduced)[0] == len(chosen)


def test_deterministic():
    g = new_graph(7, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)])
    assert approx_dissociation_bipartite(g) == approx_dissociation_bipartite(g)


def test_bounds_and_recognizer_consistency_on_corpus():
    for g in random_bipartite_corpus(60, 12, 2024):
        chosen, matching = approx_dissociation_bipartite(g)
        assert is_dissociation_set(g, chosen)
        diss = dissociation_number_exact(g)[0]
        assert len(chosen) <= diss
        assert 4 * len(chosen) >= 3 * diss
        outcome = recognize_extremal(g, matching)
        assert isinstance(outcome, Extremal) == (4 * len(chosen) == 3 * diss)


def test_polynomial_paths_never_build_adjacency_masks(monkeypatch):
    # the bitmask view takes n^2/8 bytes: 50 MB here, 100 GB at 10^6 vertices
    g, planted, set_size = planted_pair(20_000, 2_000, 7)

    def refuse(self):
        raise RuntimeError("adjacency_masks built on a polynomial path")

    monkeypatch.setattr(Graph, "adjacency_masks", property(refuse))
    outcome = recognize_extremal(g, matching_from_edges(g, planted))
    assert isinstance(outcome, Extremal) and len(outcome.max_dissociation_set) == set_size
    chosen, matching = approx_dissociation_bipartite(g)
    assert len(matching.edges) == len(planted)
    # diss(g) is the planted set size, so the chain decides the outcome on M
    outcome = recognize_extremal(g, matching)
    assert isinstance(outcome, Extremal) == (4 * len(chosen) == 3 * set_size)
