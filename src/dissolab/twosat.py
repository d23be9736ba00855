"""2-SAT via the implication graph and Tarjan's SCC algorithm.

A literal is a ``(variable, polarity)`` pair. The DFS visits nodes in
ascending index order, so the satisfying assignment returned for a formula
is deterministic. ``cnf_satisfiable`` is the independent truth-table oracle
(bit-parallel over all assignments) used to cross-check the solver and to
decide small CNF instances of any clause width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "Literal",
    "TwoSatFormula",
    "Assignment",
    "solve_2sat",
    "satisfies",
    "cnf_satisfiable",
]

Literal = tuple[int, bool]


@dataclass(frozen=True)
class TwoSatFormula:
    """Clauses of one or two literals over variables ``0..var_count-1``."""

    var_count: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not 1 <= len(clause) <= 2:
                raise ValueError(f"clause {clause} must have 1 or 2 literals")
            for var, _ in clause:
                if not 0 <= var < self.var_count:
                    raise ValueError(f"variable {var} out of range")


@dataclass(frozen=True)
class Assignment:
    values: tuple[bool, ...]


def satisfies(f: TwoSatFormula, a: Assignment) -> bool:
    """Independent clause-by-clause validator."""
    if len(a.values) != f.var_count:
        return False
    return all(
        any(a.values[var] == polarity for var, polarity in clause)
        for clause in f.clauses
    )


def _literal_node(var: int, polarity: bool) -> int:
    return 2 * var + (0 if polarity else 1)


def solve_2sat(f: TwoSatFormula) -> Optional[Assignment]:
    """Return a satisfying assignment, or None if unsatisfiable.

    Implication graph: clause (a or b) adds edges not-a -> b and not-b -> a;
    a unit clause (a) is treated as (a or a). A variable is true iff its
    positive literal's SCC is popped before its negation's (Tarjan pops
    sink components first).
    """
    node_count = 2 * f.var_count
    succ: list[list[int]] = [[] for _ in range(node_count)]
    for clause in f.clauses:
        (v1, p1) = clause[0]
        (v2, p2) = clause[1] if len(clause) == 2 else clause[0]
        succ[_literal_node(v1, not p1)].append(_literal_node(v2, p2))
        succ[_literal_node(v2, not p2)].append(_literal_node(v1, p1))
    for lst in succ:
        lst.sort()

    comp = [-1] * node_count
    index = [-1] * node_count
    low = [0] * node_count
    on_stack = [False] * node_count
    stack: list[int] = []
    counter = 0
    comp_count = 0

    # iterative Tarjan in ascending node order
    for root in range(node_count):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            resumed = False
            for i in range(child_idx, len(succ[node])):
                nxt = succ[node][i]
                if index[nxt] == -1:
                    work.append((node, i + 1))
                    work.append((nxt, 0))
                    resumed = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if resumed:
                continue
            if low[node] == index[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = comp_count
                    if top == node:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    values = []
    for var in range(f.var_count):
        pos, neg = comp[2 * var], comp[2 * var + 1]
        if pos == neg:
            return None
        values.append(pos < neg)
    result = Assignment(tuple(values))
    if not satisfies(f, result):
        raise RuntimeError("2-SAT assignment from the SCC order violates a clause")
    return result


def _variable_pattern(var: int, var_count: int) -> int:
    # truth-table column of a variable as a 2^var_count bit integer:
    # bit p is set iff assignment p has the variable true
    block = ((1 << (1 << var)) - 1) << (1 << var)
    period = 1 << (var + 1)
    reps = (1 << var_count) // period
    repeater = ((1 << (reps * period)) - 1) // ((1 << period) - 1)
    return block * repeater


def cnf_satisfiable(var_count: int, clauses: Sequence[Sequence[Literal]]) -> bool:
    """Brute-force truth-table satisfiability, bit-parallel over assignments.

    Works for any clause width; intended for small var counts (the table
    has 2^var_count bits per mask).
    """
    if var_count > 22:
        raise ValueError("truth-table oracle limited to 22 variables")
    full = (1 << (1 << var_count)) - 1 if var_count else 1
    patterns = [_variable_pattern(v, var_count) for v in range(var_count)]
    table = full
    for clause in clauses:
        cmask = 0
        for var, polarity in clause:
            cmask |= patterns[var] if polarity else (~patterns[var] & full)
        table &= cmask
        if not table:
            return False
    return table != 0
