"""Hypothesis strategies and seeded generators for graphs used across the test modules."""

import random

from hypothesis import strategies as st

from dissolab.graph import new_graph


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return new_graph(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return new_graph(n, edges)


@st.composite
def bipartite_graphs(draw, max_side=5):
    n_a = draw(st.integers(min_value=0, max_value=max_side))
    n_b = draw(st.integers(min_value=0, max_value=max_side))
    pairs = [(a, b) for a in range(n_a) for b in range(n_a, n_a + n_b)]
    if not pairs:
        return new_graph(n_a + n_b, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return new_graph(n_a + n_b, edges)


# six-class pattern along a planted component that starts on side A with an
# M edge: A1 B1 A4 B2 A2 B4, period six
_PATTERN = ("A1", "B1", "A4", "B2", "A2", "B4")


def planted_pair(n, extra, seed):
    """A relabelled planted extremal pair (g, M) on at least n vertices.

    Alternating cycles of 6 and 12 vertices and paths of 5 and 11, each
    starting on side A with an M edge, so every M-free vertex is on side A
    and M is maximum. ``extra`` more edges join an A4 or B4 vertex to the
    other side, which keeps the planted labels valid. Returns g, the edges
    of M, and the size of the planted dissociation set.
    """
    rng = random.Random(seed)
    labels, edges, m = [], set(), []
    while len(labels) < n:
        k, cycle = rng.choice(((6, True), (12, True), (5, False), (11, False)))
        base = len(labels)
        for i in range(k - 1 + cycle):
            u, v = base + i, base + (i + 1) % k
            edges.add((min(u, v), max(u, v)))
            if i % 2 == 0:
                m.append((u, v))
        labels += [_PATTERN[i % 6] for i in range(k)]
    blocked = [v for v, lab in enumerate(labels) if lab[1] == "4"]
    while extra:
        u, v = rng.choice(blocked), rng.randrange(len(labels))
        e = (min(u, v), max(u, v))
        if labels[u][0] != labels[v][0] and e not in edges:
            edges.add(e)
            extra -= 1
    perm = list(range(len(labels)))
    rng.shuffle(perm)
    g = new_graph(len(labels), [(perm[u], perm[v]) for u, v in edges])
    return g, [(perm[u], perm[v]) for u, v in m], sum(lab[1] != "4" for lab in labels)
