"""Seeded instance corpora shared by the CLI checks and the test suite.

Every generator derives per-instance seeds from a base seed through
SplitMix64, so a (kind, count, size, seed) tuple pins the corpus exactly.
"""

from __future__ import annotations

from .graph import Graph, SplitMix64, random_bipartite, random_graph
from .reductions import CnfFormula, cnf_formula
from .twosat import TwoSatFormula
from .exact import EXACT_CUTOFF, independence_number_exact

__all__ = [
    "random_graph_corpus",
    "random_bipartite_corpus",
    "random_cnf_corpus",
    "random_2sat_corpus",
    "join_input_corpus",
]

_PROBABILITIES = (0.15, 0.3, 0.5, 0.7)


def random_graph_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded general graphs with sizes cycling over 1..max_n."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        n = 1 + i % max_n
        p = _PROBABILITIES[i % len(_PROBABILITIES)]
        out.append(random_graph(n, p, rng.next_u64()))
    return out


def random_bipartite_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded bipartite graphs with n_a, n_b >= 1 and n_a + n_b cycling over
    2..max_n."""
    if max_n < 2:
        raise ValueError(f"bipartite corpus needs max_n >= 2, got {max_n}")
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        total = 2 + i % (max_n - 1)
        n_a = 1 + rng.next_below(total - 1)
        n_b = total - n_a
        p = _PROBABILITIES[i % len(_PROBABILITIES)]
        out.append(random_bipartite(n_a, n_b, p, rng.next_u64()))
    return out


def random_cnf_corpus(
    count: int, max_vars: int, max_clauses: int, seed: int
) -> list[CnfFormula]:
    """Seeded 3-CNF formulas; clauses never repeat a variable."""
    if max_vars < 3:
        raise ValueError("3-CNF needs at least 3 variables")
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        nv = 3 + rng.next_below(max_vars - 2)
        nc = 1 + rng.next_below(max_clauses)
        clauses = []
        for _ in range(nc):
            chosen: list[int] = []
            while len(chosen) < 3:
                var = rng.next_below(nv)
                if var not in chosen:
                    chosen.append(var)
            clauses.append(tuple((var, rng.next_u64() & 1 == 0) for var in chosen))
        out.append(cnf_formula(nv, clauses))
    return out


def random_2sat_corpus(count: int, max_vars: int, seed: int) -> list[TwoSatFormula]:
    """Seeded 2-SAT formulas, mixing unit and binary clauses."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        nv = 1 + rng.next_below(max_vars)
        nc = 1 + rng.next_below(3 * nv)
        clauses = []
        for _ in range(nc):
            width = 1 if rng.next_below(10) == 0 else 2
            lits = tuple(
                (rng.next_below(nv), rng.next_u64() & 1 == 0) for _ in range(width)
            )
            clauses.append(lits)
        out.append(TwoSatFormula(nv, tuple(clauses)))
    return out


def join_input_corpus(
    count: int, max_n: int, seed: int, cutoff: int = EXACT_CUTOFF
) -> list[Graph]:
    """Seeded graphs with alpha >= 3 (oracle-checked with ``cutoff``), n <= max_n."""
    rng = SplitMix64(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = max(3, 1 + rng.next_below(max_n))
        p = _PROBABILITIES[rng.next_below(len(_PROBABILITIES))]
        g = random_graph(n, p, rng.next_u64())
        alpha, _ = independence_number_exact(g, cutoff=cutoff)
        if alpha >= 3:
            out.append(g)
    return out
