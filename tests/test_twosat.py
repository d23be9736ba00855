import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dissolab.corpus import random_2sat_corpus
from dissolab.twosat import (
    MAX_TRUTH_TABLE_VARS,
    TwoSatFormula,
    _variable_pattern,
    cnf_satisfiable,
    satisfies,
    solve_2sat,
)


def test_satisfiable_pair_of_clauses():
    f = TwoSatFormula(2, (((0, True), (1, True)), ((0, False), (1, True))))
    a = solve_2sat(f)
    assert a is not None and satisfies(f, a)
    # every satisfying assignment must set x1
    assert a[1] is True


def test_contradiction_unsat():
    f = TwoSatFormula(1, (((0, True),), ((0, False),)))
    assert solve_2sat(f) is None


def test_at_most_one_triple():
    f = TwoSatFormula(
        3,
        (
            ((0, False), (1, False)),
            ((1, False), (2, False)),
            ((0, False), (2, False)),
        ),
    )
    a = solve_2sat(f)
    assert a is not None and satisfies(f, a)
    assert sum(a) <= 1


def test_unit_clause_forces_value():
    f = TwoSatFormula(2, (((0, True),), ((0, False), (1, True))))
    a = solve_2sat(f)
    assert a is not None and a[0] is True and a[1] is True


def test_deterministic_output():
    f = TwoSatFormula(3, (((0, True), (1, False)), ((2, True), (0, False))))
    assert solve_2sat(f) == solve_2sat(f)


def test_malformed_clause_rejected():
    with pytest.raises(ValueError):
        TwoSatFormula(1, (((0, True), (0, False), (0, True)),))
    with pytest.raises(ValueError):
        TwoSatFormula(1, (((1, True),),))


def _naive_sat(f: TwoSatFormula):
    for bits in product([False, True], repeat=f.var_count):
        if satisfies(f, bits):
            return True
    return False


@st.composite
def small_formulas(draw):
    nv = draw(st.integers(min_value=1, max_value=8))
    literal = st.tuples(st.integers(0, nv - 1), st.booleans())
    clauses = draw(
        st.lists(
            st.tuples(literal, literal) | st.tuples(literal), min_size=1, max_size=12
        )
    )
    return TwoSatFormula(nv, tuple(clauses))


@given(small_formulas())
@settings(max_examples=300)
def test_agrees_with_truth_table(f):
    a = solve_2sat(f)
    expected = _naive_sat(f)
    assert (a is not None) == expected
    if a is not None:
        assert satisfies(f, a)


def test_seeded_corpus_agreement():
    for f in random_2sat_corpus(200, 12, 424242):
        a = solve_2sat(f)
        assert (a is not None) == cnf_satisfiable(f.var_count, f.clauses)
        if a is not None:
            assert satisfies(f, a)


@given(st.integers(min_value=0, max_value=8), st.data())
def test_cnf_oracle_matches_enumeration(nv, data):
    literal = st.tuples(st.integers(0, max(nv - 1, 0)), st.booleans())
    clauses = data.draw(
        st.lists(st.lists(literal, min_size=1, max_size=3), max_size=6)
    )
    if nv == 0:
        clauses = []
    naive = any(
        all(any(bits[var] == pol for var, pol in cl) for cl in clauses)
        for bits in product([False, True], repeat=nv)
    )
    assert cnf_satisfiable(nv, clauses) == naive


def test_truth_table_columns():
    # bit p of a variable's column is set iff assignment p has it true
    for n in range(13):
        for var in range(n):
            column = sum(1 << p for p in range(1 << n) if p >> var & 1)
            assert _variable_pattern(var, n) == column


def test_truth_table_limit():
    # the columns are built by doubling: the 22-variable table took 20 s by
    # big-integer division and takes milliseconds
    n = MAX_TRUTH_TABLE_VARS
    start = time.perf_counter()
    assert cnf_satisfiable(n, [[(0, True), (n - 1, False)], [(0, False)], [(n - 1, True)]]) is False
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValueError, match=f"limited to {n} variables"):
        cnf_satisfiable(n + 1, [])
