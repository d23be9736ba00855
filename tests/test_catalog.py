import random

import pytest
from hypothesis import given, settings, strategies as st

from dissolab.catalog import (
    all_graphs,
    canonical_form,
    canonical_graph,
    connected_bipartite_graphs,
    connected_graphs,
)
from dissolab.exact import InstanceTooLarge
from dissolab.graph import NotBipartiteError, new_graph

from strategies import graphs

# counts from the standard enumeration sequences
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
BIPARTITE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


def is_connected(g):
    if g.n == 0:
        return True
    seen = 1
    stack = [0]
    adj = g.adjacency_masks
    while stack:
        v = stack.pop()
        w = adj[v] & ~seen
        while w:
            b = w & -w
            seen |= b
            stack.append(b.bit_length() - 1)
            w ^= b
    return seen == (1 << g.n) - 1


def is_bipartite(g):
    try:
        g.side
    except NotBipartiteError:
        return False
    return True


def permuted(g, perm):
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_canonical_form_is_isomorphism_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(permuted(g, perm)) == canonical_form(g)


@given(graphs(max_n=7))
def test_canonical_graph_has_same_form(g):
    cg = canonical_graph(g)
    assert cg.n == g.n and cg.m == g.m
    assert canonical_form(cg) == canonical_form(g)


def test_canonical_form_separates_non_isomorphic():
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(p4) != canonical_form(star)


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    assert len(connected_graphs(n)) == count


@pytest.mark.parametrize("n,count", sorted(BIPARTITE_COUNTS.items()))
def test_connected_bipartite_counts(n, count):
    assert len(connected_bipartite_graphs(n)) == count


@pytest.mark.parametrize("n,count", sorted(ALL_COUNTS.items()))
def test_all_graph_counts(n, count):
    assert len(all_graphs(n)) == count


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_catalog_matches_brute_enumeration(n):
    # independent route: filter the brute-force catalog by connectivity
    brute = {canonical_form(g) for g in all_graphs(n) if is_connected(g)}
    assert {canonical_form(g) for g in connected_graphs(n)} == brute


@pytest.mark.parametrize("n", range(1, 6))
def test_bipartite_catalog_matches_brute_enumeration(n):
    brute = {
        canonical_form(g)
        for g in all_graphs(n)
        if is_connected(g) and is_bipartite(g)
    }
    assert {canonical_form(g) for g in connected_bipartite_graphs(n)} == brute


def test_catalog_members_have_their_property():
    for g in connected_graphs(6):
        assert is_connected(g)
    for g in connected_bipartite_graphs(7):
        assert is_connected(g) and is_bipartite(g)


def test_catalogs_are_deterministic():
    a = [g.edges for g in connected_graphs(6)]
    b = [g.edges for g in connected_graphs(6)]
    assert a == b


def test_catalog_members_are_canonical_representatives():
    # catalog output is independent of generation order
    for g in connected_graphs(6):
        assert canonical_graph(g) == g


@pytest.mark.parametrize(
    "build,n",
    [(connected_graphs, 9), (connected_graphs, 40), (connected_bipartite_graphs, 11),
     (all_graphs, 7)],
)
def test_oversized_catalog_raises_before_generating(build, n):
    with pytest.raises(InstanceTooLarge):
        build(n)
