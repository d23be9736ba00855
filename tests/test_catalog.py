import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dissolab import catalog
from dissolab.catalog import (
    all_graphs,
    canonical_form,
    canonical_graph,
    connected_bipartite_graphs,
    connected_graphs,
)
from dissolab.exact import InstanceTooLarge
from dissolab.graph import NotBipartiteError, new_graph, random_graph

from strategies import graphs

# counts from the standard enumeration sequences
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
BIPARTITE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
# sha256 over "<n> <edge_list>" lines, one per graph in catalog order; pins
# content and order, so a faster generator must reproduce them exactly
CATALOG_DIGESTS = {
    "connected_catalog_8": "026a16c8e2d80481ad71aeff00a30a0775f68fada298ad55571832b88d79a5e0",
    "bipartite_catalog_10": "0f6e9d1d31cfbcfb3e5390691948ed1ccdadbbaa515aef13674f3ede05add84c",
    "all_catalog_6": "63013370c384d63a6342398b2aa2b8b8d847334577c8f336702fbd6ca0549fad",
}
# sha256 over "<n> <rows>" lines of canonical_form on form_corpus(): pins the
# forms themselves, not only which classes a catalog holds
FORM_DIGEST = "a690f0cedf7a6578da9a47c377a6b050c3cb1d2bf80ea808b5e9c2d0d7146910"


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
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list])


def every_graph(n):
    """Every labelled graph on n vertices, one per edge subset: the independent
    route the augmenting catalogs are checked against."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield new_graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def forms_of(gs):
    return {canonical_form(g) for g in gs}


def moved_last(g, u):
    """g relabelled so that u is the last vertex, the others in their order."""
    perm = {w: i for i, w in enumerate([w for w in range(g.n) if w != u] + [u])}
    return permuted(g, perm)


def is_cut_vertex(g, u):
    rest = [w for w in range(g.n) if w != u]
    index = {w: i for i, w in enumerate(rest)}
    minus = new_graph(g.n - 1, [(index[a], index[b]) for a, b in g.edge_list if u not in (a, b)])
    return not is_connected(minus)


@st.composite
def connected_graph_st(draw, max_n=8):
    """A random spanning tree (each vertex joined to an earlier one) plus extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return new_graph(n, edges)


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


def catalog_digest(gs):
    h = hashlib.sha256()
    for g in gs:
        h.update(f"{g.n} {g.edge_list}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CATALOG_DIGESTS))
def test_catalog_digest(name, request):
    if name == "all_catalog_6":
        listed = [g for n in range(7) for g in all_graphs(n)]
    else:
        listed = request.getfixturevalue(name)
    assert catalog_digest(listed) == CATALOG_DIGESTS[name]


def form_corpus():
    """2000 seeded G(n, p) with n in 1..11 and p in 0.05..0.95, then every
    connected 7-vertex graph under a seeded relabelling."""
    for i in range(2000):
        yield random_graph(1 + i % 11, (1 + (i // 11) % 19) / 20, i)
    for i, g in enumerate(connected_graphs(7)):
        perm = list(range(g.n))
        random.Random(i).shuffle(perm)
        yield permuted(g, perm)


def test_canonical_form_digest():
    h = hashlib.sha256()
    for g in form_corpus():
        n, rows = canonical_form(g)
        h.update(f"{n} {' '.join(map(str, rows))}\n".encode())
    assert h.hexdigest() == FORM_DIGEST


@pytest.mark.parametrize("n", range(0, 6))
def test_all_catalog_matches_brute_enumeration(n):
    assert forms_of(all_graphs(n)) == forms_of(every_graph(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_catalog_matches_brute_enumeration(n):
    brute = forms_of(g for g in every_graph(n) if is_connected(g))
    assert forms_of(connected_graphs(n)) == brute


@pytest.mark.parametrize("n", range(1, 6))
def test_bipartite_catalog_matches_brute_enumeration(n):
    brute = forms_of(g for g in every_graph(n) if is_connected(g) and is_bipartite(g))
    assert forms_of(connected_bipartite_graphs(n)) == brute


@given(st.one_of(connected_graph_st(), graphs(max_n=8)))
@settings(max_examples=200)
def test_some_deletable_vertex_moved_last_passes_the_deletion_test(g):
    # the exhaustiveness argument: every graph has a deletable vertex whose
    # deletion leaves a parent that regrows it through the test
    if g.n == 0:
        return
    for connected in (True, False) if is_connected(g) else (False,):
        deletable = [u for u in range(g.n)
                     if not connected or g.n == 1 or not is_cut_vertex(g, u)]
        assert any(catalog._last_is_deletion_candidate(moved_last(g, u).adjacency_masks, connected)
                   for u in deletable)


@given(st.one_of(connected_graph_st(), graphs(max_n=8)), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_deletion_test_ignores_the_labels_of_the_parent(g, rnd):
    if g.n == 0:
        return
    perm = list(range(g.n - 1))
    rnd.shuffle(perm)
    h = permuted(g, perm + [g.n - 1])
    for connected in (True, False):
        assert (catalog._last_is_deletion_candidate(h.adjacency_masks, connected)
                == catalog._last_is_deletion_candidate(g.adjacency_masks, connected))


def test_cold_build_canonizes_few_children_per_class(monkeypatch):
    # counts calls, not time: without the deletion test, 8.4 per kept graph;
    # with it, 1.71 when every subset is tried and 1.05 with one per orbit
    calls = []
    canonize = catalog.canonical_form

    def counting(g):
        calls.append(g.n)
        return canonize(g)

    monkeypatch.setattr(catalog, "_cache", {("connected", 1): [new_graph(1, [])]})
    monkeypatch.setattr(catalog, "_groups", {})
    monkeypatch.setattr(catalog, "canonical_form", counting)
    connected_graphs(7)
    kept = sum(len(catalog._cache["connected", n]) for n in range(2, 8))
    assert kept == sum(CONNECTED_COUNTS[n] for n in range(2, 8))
    assert len(calls) <= 1.2 * kept


def test_cold_build_makes_few_full_refinements(monkeypatch):
    # counts calls, not time: refining every individualization from scratch
    # made 8498 calls here, and the direct first round leaves 2471. Sending
    # any one of its three returned cases (v alone in its cell, only v split
    # off, discrete) on to _refine gives 3189 to 5670
    calls = []
    refine = catalog._refine

    def counting(n, adj, colors):
        calls.append(n)
        return refine(n, adj, colors)

    monkeypatch.setattr(catalog, "_cache", {("connected", 1): [new_graph(1, [])]})
    monkeypatch.setattr(catalog, "_groups", {})
    monkeypatch.setattr(catalog, "_refine", counting)
    connected_graphs(7)
    assert len(calls) <= 3000


@functools.cache
def small_catalog():
    return [g for n in range(1, 8) for g in connected_graphs(n)] + [
        g for n in range(1, 10) for g in connected_bipartite_graphs(n)]


def assert_automorphisms_of_canonical_graph(g):
    form = canonical_form(g)
    cg = canonical_graph(g)
    edges = set(cg.edge_list)
    for perm in form.automorphisms:
        assert sorted(perm) == list(range(g.n))
        assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges


@given(graphs(max_n=9))
@settings(max_examples=300)
def test_reported_automorphisms_preserve_edges(g):
    assert_automorphisms_of_canonical_graph(g)


@given(st.integers(min_value=0), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_reported_automorphisms_preserve_edges_on_relabelled_catalog_graphs(i, rnd):
    corpus = small_catalog()
    g = corpus[i % len(corpus)]
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert_automorphisms_of_canonical_graph(permuted(g, perm))


def test_search_reports_the_whole_group_of_symmetric_graphs():
    # K5 has 120 automorphisms and C6 has 12: the reported ones generate them
    k5 = new_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    c6 = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g, order in ((k5, 120), (c6, 12)):
        group = {tuple(range(g.n))}
        frontier = list(group)
        while frontier:
            a = frontier.pop()
            for b in canonical_form(g).automorphisms:
                c = tuple(b[x] for x in a)
                if c not in group:
                    group.add(c)
                    frontier.append(c)
        assert len(group) == order


@pytest.mark.parametrize(
    "build,hi,masks,connected",
    [(connected_graphs, 6, lambda p: range(1, 1 << p.n), True),
     (connected_bipartite_graphs, 8, catalog._side_subsets, True),
     (all_graphs, 5, lambda p: range(1 << p.n), False)],
    ids=["connected", "bipartite", "all"],
)
def test_one_subset_per_orbit_gives_the_children_of_all_subsets(build, hi, masks, connected):
    for n in range(hi + 1):
        for parent in build(n):
            group = canonical_form(parent).automorphisms
            pruned = forms_of(catalog._attach(parent, group, masks(parent), connected))
            every = forms_of(catalog._attach(parent, (), masks(parent), connected))
            assert pruned == every


def refinement_corpus():
    """Connected catalog graphs with n <= 7, then 300 seeded G(n, p) with n
    up to 12."""
    yield from (g for n in range(1, 8) for g in connected_graphs(n))
    for i in range(300):
        yield random_graph(2 + i % 11, (1 + (i // 11) % 9) / 10, 1000 + i)


def test_degree_ranks_start_the_root_refinement():
    for g in refinement_corpus():
        n, adj = g.n, g.adjacency_masks
        degree_ranks = catalog._dense_ranks([a.bit_count() for a in adj])
        assert catalog._refine(n, adj, degree_ranks) == catalog._refine(n, adj, [0] * n)


def test_individualize_equals_refining_the_individualized_colouring():
    # along a seeded random individualization path to a discrete colouring,
    # individualize every vertex at every step, not only those of the cell
    # the canonical search branches on
    for i, g in enumerate(refinement_corpus()):
        rnd = random.Random(i)
        n, adj = g.n, g.adjacency_masks
        colors = catalog._refine(n, adj, [0] * n)
        for depth in range(n):
            for v in range(n):
                individualized = list(colors)
                individualized[v] = n + depth
                assert (catalog._individualize(n, adj, colors, v)
                        == catalog._refine(n, adj, individualized))
            not_alone = [v for v in range(n) if colors.count(colors[v]) > 1]
            if not not_alone:
                break
            colors = catalog._individualize(n, adj, colors, rnd.choice(not_alone))


def test_catalog_members_have_their_property():
    for g in connected_graphs(6):
        assert is_connected(g)
    for g in connected_bipartite_graphs(7):
        assert is_connected(g) and is_bipartite(g)


def test_catalogs_are_deterministic():
    a = [g.edge_list for g in connected_graphs(6)]
    b = [g.edge_list for g in connected_graphs(6)]
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
