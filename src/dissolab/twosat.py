"""2-SAT via the implication graph and Tarjan's SCC algorithm.

A literal is a ``(variable, polarity)`` pair. The DFS visits nodes in
ascending index order, so the satisfying assignment returned for a formula
is deterministic, a tuple of one bool per variable. ``cnf_satisfiable`` is
the independent truth-table oracle (bit-parallel over all assignments) used
to cross-check the solver and to decide CNF instances of any clause width
over at most ``MAX_TRUTH_TABLE_VARS`` variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "Literal",
    "TwoSatFormula",
    "MAX_TRUTH_TABLE_VARS",
    "solve_2sat",
    "satisfies",
    "cnf_satisfiable",
]

Literal = tuple[int, bool]

# the truth table of n variables has 2^n bits per mask: 512 KiB at 22
MAX_TRUTH_TABLE_VARS = 22


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


def satisfies(f: TwoSatFormula, values: Sequence[bool]) -> bool:
    """Independent clause-by-clause validator of one value per variable."""
    if len(values) != f.var_count:
        return False
    return all(
        any(values[var] == polarity for var, polarity in clause)
        for clause in f.clauses
    )


def _literal_node(var: int, polarity: bool) -> int:
    return 2 * var + (0 if polarity else 1)


def solve_2sat(f: TwoSatFormula) -> Optional[tuple[bool, ...]]:
    """Return a satisfying assignment, one value per variable, or None if
    unsatisfiable.

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
    if not satisfies(f, values):
        raise RuntimeError("2-SAT assignment from the SCC order violates a clause")
    return tuple(values)


def _variable_pattern(var: int, var_count: int) -> int:
    # truth-table column of a variable as a 2^var_count bit integer:
    # bit p is set iff assignment p has the variable true; one period is
    # 2^var zeros then 2^var ones, doubled until it fills the table
    column = ((1 << (1 << var)) - 1) << (1 << var)
    width = 1 << (var + 1)
    while width < 1 << var_count:
        column |= column << width
        width <<= 1
    return column


def cnf_satisfiable(var_count: int, clauses: Sequence[Sequence[Literal]]) -> bool:
    """Brute-force truth-table satisfiability, bit-parallel over assignments.

    Works for any clause width; raises ValueError over MAX_TRUTH_TABLE_VARS
    variables (the table has 2^var_count bits per mask).
    """
    if var_count > MAX_TRUTH_TABLE_VARS:
        raise ValueError(f"truth-table oracle limited to {MAX_TRUTH_TABLE_VARS} variables")
    full = (1 << (1 << var_count)) - 1
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
