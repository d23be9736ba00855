"""Hardness gadget constructors with predicted-invariant metadata.

Each constructor returns a :class:`GadgetInstance`: the graph, per-vertex
role tags, and a prediction map mixing unconditional values (checked
exactly against the oracles in tests) with biconditional markers tying an
invariant equality on the gadget to a property of the source instance, and
with the facts those markers read (``satisfiable``, ``k_original``). The
join gadget also carries its matching.

Gadget kinds (also the CLI tokens):

* ``fig3`` - one 4-clique per 3-CNF clause (three literal vertices plus a
  hub), cross edges between complementary literal occurrences in different
  clauses. Satisfiability of the formula is equivalent to diss = 2 alpha
  and to diss = 2 nu_s on the gadget.
* ``fig4`` - one octahedron-like block per clause (K6 minus a perfect
  matching), cross edges only between the literal-bearing halves.
  Satisfiability is equivalent to diss = alpha.
* ``is`` - from an Independent-Set instance (g, k): pendants on every
  vertex plus a fully joined (k-1)K2 block. alpha(g) >= k is equivalent to
  diss < alpha + nu_s on the gadget.
* ``join`` - g joined completely to a same-order clique, with the aligned
  cross perfect matching; alpha and diss survive both the join and the
  matching removal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graph import (MAX_EDGES, MAX_VERTICES, Graph, ParseError, last_line, new_graph,
                    parse_header, render_edge_list)
from .matching import Matching, matching_from_edges
from .exact import (
    EXACT_CUTOFF,
    dissociation_number_exact,
    independence_number_exact,
)
from .twosat import MAX_TRUTH_TABLE_VARS, Literal, cnf_satisfiable

__all__ = [
    "CnfFormula",
    "GadgetInstance",
    "cnf_formula",
    "parse_cnf",
    "gadget_diss_2alpha",
    "gadget_diss_alpha",
    "gadget_diss_alpha_plus_nus",
    "gadget_join_kn",
    "render_gadget",
    "parse_gadget_metadata",
]


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: every clause has exactly three literals over distinct variables."""

    var_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]


def _clause_fault(lits: Sequence[Literal], var_count: int) -> Optional[str]:
    """Why ``lits`` is not a 3-CNF clause over ``var_count`` variables, or None."""
    if len(lits) != 3:
        return "must have exactly 3 literals"
    if len({var for var, _ in lits}) != 3:
        return "repeats a variable"
    return next((f"has variable {var} out of range"
                 for var, _ in lits if not 0 <= var < var_count), None)


def cnf_formula(
    var_count: int, clauses: Iterable[Sequence[Literal]]
) -> CnfFormula:
    checked = []
    for clause in clauses:
        lits = tuple(clause)
        fault = _clause_fault(lits, var_count)
        if fault is not None:
            raise ValueError(f"clause {lits} {fault}")
        checked.append(lits)
    return CnfFormula(var_count, tuple(checked))


def _data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line_no, line, fields)`` of each stripped line neither blank nor a ``c`` comment."""
    for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if line and line[0] != "c":
            yield line_no, line, line.split()


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS CNF: ``p cnf <vars> <clauses>`` then 0-terminated clauses."""
    var_count = -1
    declared = 0
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    for line_no, line, fields in _data_lines(text):
        if fields[0] == "p":
            if var_count >= 0:
                raise ParseError(line_no, "duplicate header")
            var_count, declared = parse_header(line_no, line, "cnf")
            continue
        if var_count < 0:
            raise ParseError(line_no, "clause before header")
        for token in fields:
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(line_no, f"bad literal {token!r}") from None
            if lit == 0:
                fault = _clause_fault(current, var_count)
                if fault is not None:
                    dimacs = " ".join(str(v + 1 if pos else -v - 1) for v, pos in current)
                    raise ParseError(line_no, f"clause '{dimacs} 0' {fault}")
                clauses.append(tuple(current))
                current = []
            else:
                var = abs(lit) - 1
                if var >= var_count:
                    raise ParseError(line_no, f"variable {abs(lit)} out of range")
                current.append((var, lit > 0))
    if var_count < 0:
        raise ParseError(last_line(text), "missing header")
    if current:
        raise ParseError(last_line(text), "unterminated clause (missing 0)")
    if len(clauses) != declared:
        raise ParseError(last_line(text), f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(var_count, tuple(clauses))


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    kind: Optional[str]  # None for a file without a ``c kind`` line
    predicted: Mapping[str, object]
    vertex_roles: Mapping[int, str]
    # the M of the ``_minus_matching`` predictions
    matching: Optional[Matching] = None


def _literal_tag(lit: Literal) -> str:
    var, positive = lit
    return f"{'' if positive else '~'}x{var + 1}"


def _complementary_edges(f: CnfFormula, block: int, block_edges: int) -> list[tuple[int, int]]:
    """Edges between complementary literal occurrences in different clauses,
    the literal at position p of clause i being vertex ``block * i + p``.
    Raises ValueError, before building any, when with ``block_edges`` edges
    per clause the gadget would exceed MAX_EDGES: each variable x gives
    pos(x) * neg(x) pairs, less the complementary pairs inside one clause."""
    signs: defaultdict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    inside = 0
    for i, clause in enumerate(f.clauses):
        for p, (var, positive) in enumerate(clause):
            signs[var][positive].append(block * i + p)
        inside += sum(a == b and pa != pb for (a, pa), (b, pb) in combinations(clause, 2))
    size = block_edges * len(f.clauses) - inside
    size += sum(len(neg) * len(pos) for neg, pos in signs.values())
    if size > MAX_EDGES:
        raise ValueError(f"gadget would have {size} edges, above {MAX_EDGES}")
    return [(u, v) for neg, pos in signs.values() for u in neg for v in pos if u // block != v // block]


def _satisfiable(f: CnfFormula) -> dict[str, bool]:
    """The ``satisfiable`` fact that the iff-satisfiable markers rest on, from
    the truth table; none over MAX_TRUTH_TABLE_VARS variables, where it grows too big."""
    if f.var_count > MAX_TRUTH_TABLE_VARS:
        return {}
    return {"satisfiable": cnf_satisfiable(f.var_count, f.clauses)}


def gadget_diss_2alpha(f: CnfFormula) -> GadgetInstance:
    """Clause-clique gadget: order 4m, alpha = m, diss = alpha + nu_s always.
    Raises ValueError, before building anything, on a gadget over MAX_EDGES."""
    edges = _complementary_edges(f, 3, 6)
    m = len(f.clauses)
    n = 4 * m
    roles: dict[int, str] = {}
    for i, clause in enumerate(f.clauses):
        members = [3 * i, 3 * i + 1, 3 * i + 2, 3 * m + i]
        for p, lit in enumerate(clause):
            roles[3 * i + p] = f"lit:{i}:{p}:{_literal_tag(lit)}"
        roles[3 * m + i] = f"hub:{i}"
        for a in range(4):
            for c in range(a + 1, 4):
                edges.append((members[a], members[c]))
    predicted = {
        "order": n,
        "alpha": m,
        "diss_eq_alpha_plus_nus": "always",
        "diss_eq_2alpha": "iff-satisfiable",
        "diss_eq_2nus": "iff-satisfiable",
        **_satisfiable(f),
    }
    return GadgetInstance(new_graph(n, edges), "fig3", predicted, roles)


def gadget_diss_alpha(f: CnfFormula) -> GadgetInstance:
    """Doubled-clause gadget: order 6m, diss = 2m; diss = alpha iff satisfiable.
    Raises ValueError, before building anything, on a gadget over MAX_EDGES."""
    edges = _complementary_edges(f, 6, 12)
    m = len(f.clauses)
    n = 6 * m
    roles: dict[int, str] = {}
    for i, clause in enumerate(f.clauses):
        block = list(range(6 * i, 6 * i + 6))
        for p, lit in enumerate(clause):
            roles[block[p]] = f"lit:{i}:{p}:{_literal_tag(lit)}"
            roles[block[p + 3]] = f"twin:{i}:{p}:{_literal_tag(lit)}"
        # clique on the six, minus the three literal/twin pairs
        for a in range(6):
            for c in range(a + 1, 6):
                if c != a + 3:
                    edges.append((block[a], block[c]))
    predicted = {
        "order": n,
        "diss": 2 * m,
        "diss_eq_alpha": "iff-satisfiable",
        **_satisfiable(f),
    }
    return GadgetInstance(new_graph(n, edges), "fig4", predicted, roles)


def gadget_diss_alpha_plus_nus(g: Graph, k: int) -> GadgetInstance:
    """Independent-Set gadget with deterministic padding.

    Pads g with t = max(0, n - 2k + 3, 2 - n) isolated vertices and raises
    k by t, enforcing 2(k-1) > n >= 2; then adds a pendant per vertex and a
    (k-1)K2 block joined completely to the original vertices. Equality
    diss = alpha + nu_s on the result fails exactly when alpha(g) >= k.
    Raises ValueError, before building anything, on k < 1 and on a gadget
    over MAX_VERTICES or MAX_EDGES.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    n0 = g.n
    t = max(0, n0 - 2 * k + 3, 2 - n0)
    n, kk = n0 + t, k + t
    order = 2 * n + 2 * (kk - 1)
    if order > MAX_VERTICES:
        raise ValueError(f"gadget would have {order} vertices, above {MAX_VERTICES}")
    size = g.m + n + (kk - 1) + 2 * n * (kk - 1)
    if size > MAX_EDGES:
        raise ValueError(f"gadget would have {size} edges, above {MAX_EDGES}")
    edges: list[tuple[int, int]] = list(g.edge_list)
    roles: dict[int, str] = {}
    for v in range(n0):
        roles[v] = f"orig:{v}"
    for v in range(n0, n):
        roles[v] = f"pad:{v}"
    for v in range(n):
        edges.append((v, n + v))
        roles[n + v] = f"pendant:{v}"
    w_start = 2 * n
    for j in range(kk - 1):
        a, c = w_start + 2 * j, w_start + 2 * j + 1
        edges.append((a, c))
        roles[a] = f"w:{j}:0"
        roles[c] = f"w:{j}:1"
    for v in range(n):
        for w in range(w_start, w_start + 2 * (kk - 1)):
            edges.append((v, w))
    predicted = {
        "order": order,
        "alpha": n + kk - 1,
        "diss": n + 2 * (kk - 1),
        "nus_at_least": kk - 1,
        "diss_eq_alpha_plus_nus": "iff-alpha-lt-k",
        "n_original": n0,
        "k_original": k,
        "n_padded": n,
        "k_padded": kk,
    }
    return GadgetInstance(new_graph(order, edges), "is", predicted, roles)


def gadget_join_kn(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> GadgetInstance:
    """Join g to a clique of the same order; alpha and diss are preserved.

    Requires alpha(g) >= 3 (checked by the exact oracle). The gadget carries
    the aligned cross perfect matching M; alpha and diss are unchanged on
    the gadget minus M as well.
    """
    alpha, _ = independence_number_exact(g, cutoff=cutoff)
    if alpha < 3:
        raise ValueError(f"alpha(g) = {alpha} < 3")
    diss, _ = dissociation_number_exact(g, cutoff=cutoff)
    n = g.n
    edges: list[tuple[int, int]] = list(g.edge_list)
    roles: dict[int, str] = {}
    for v in range(n):
        roles[v] = f"orig:{v}"
        roles[n + v] = f"clique:{v}"
    for u in range(n, 2 * n):
        for v in range(u + 1, 2 * n):
            edges.append((u, v))
    for u in range(n):
        for v in range(n, 2 * n):
            edges.append((u, v))
    graph = new_graph(2 * n, edges)
    matching = matching_from_edges(graph, [(v, n + v) for v in range(n)])
    predicted = {
        "order": 2 * n,
        "alpha": alpha,
        "diss": diss,
        "alpha_minus_matching": alpha,
        "diss_minus_matching": diss,
    }
    return GadgetInstance(graph, "join", predicted, roles, matching)


def render_gadget(gi: GadgetInstance) -> str:
    """Edge-list text with the metadata sidecar (``c role`` / ``c predict``).

    Vertices are 1-based as in the plain format; parse_edge_list reads the
    graph back directly since metadata lives on comment lines.
    """
    header, edges = render_edge_list(gi.graph).split("\n", 1)
    lines = [header, f"c kind {gi.kind}"]
    lines += [f"c role {v + 1} {gi.vertex_roles[v]}" for v in sorted(gi.vertex_roles)]
    lines += [f"c predict {name} {gi.predicted[name]}" for name in sorted(gi.predicted)]
    return "\n".join(lines) + "\n" + edges


def parse_gadget_metadata(
    text: str, n: int
) -> tuple[Optional[str], dict[str, str], dict[int, str]]:
    """Extract (kind, predictions, roles) from the comment lines of a gadget
    file on ``n`` vertices.

    A role line whose vertex is not in 1..n or already has a role is a
    ParseError, and so is one whose ``orig:`` index is not an integer, is
    repeated, or is not below the number of ``orig:`` roles: the indices
    must number the source graph's vertices 0..k-1.
    """
    kind: Optional[str] = None
    predictions: dict[str, str] = {}
    roles: dict[int, str] = {}
    # orig index -> (line number, line), in file order
    origs: dict[int, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "c" and fields[1] == "kind":
            kind = fields[2]
        elif len(fields) >= 4 and fields[0] == "c" and fields[1] == "predict":
            predictions[fields[2]] = " ".join(fields[3:])
        elif len(fields) >= 4 and fields[0] == "c" and fields[1] == "role":
            try:
                v = int(fields[2])
            except ValueError:
                raise ParseError(line_no, f"malformed role line {line!r}") from None
            if not 1 <= v <= n:
                raise ParseError(line_no, f"role vertex out of range in {line!r}")
            if v - 1 in roles:
                raise ParseError(line_no, f"role vertex repeated in {line!r}")
            tag = " ".join(fields[3:])
            if tag.startswith("orig:"):
                if not tag[len("orig:"):].isdecimal():
                    raise ParseError(line_no, f"malformed orig index in {line!r}")
                index = int(tag[len("orig:"):])
                if index in origs:
                    raise ParseError(line_no, f"repeated orig index in {line!r}")
                origs[index] = (line_no, line)
            roles[v - 1] = tag
    for index, (line_no, line) in origs.items():
        if index >= len(origs):
            raise ParseError(line_no, f"orig index out of range in {line!r}")
    return kind, predictions, roles
