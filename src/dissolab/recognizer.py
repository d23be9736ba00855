"""Recognizer for bipartite pairs (G, M) whose dissociation number meets the
4/3 bound against the independence number of G minus a maximum matching M.

Pipeline: validate M is maximum; take a maximum matching M' of G - M and
require |M| = |M'|; the union H = M + M' splits into alternating paths and
cycles whose lengths must be 4 mod 6 (paths) and 0 mod 6 (cycles). One
period-6 table, ``_PATTERN``, gives the classes along a component: a path
reads it from its first vertex, and a cycle reads it at one of three
rotations. The stray edges of G (those outside M + M') must land on a
blocked class (A4/B4); a 2-SAT formula over the rotation choices decides
whether they can. On success the four unblocked classes form a maximum
dissociation set of size 4 * ell.

``decompose_alternating`` is the only stage that reads M and M': the
decomposition it returns carries the paths, the cycles and the stray edges,
and every later stage reads only it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

from .graph import Graph, remove_edges
from .matching import Matching, _partner, has_augmenting_path, maximum_matching
from .exact import is_dissociation_set
from .twosat import Literal, TwoSatFormula, solve_2sat

__all__ = [
    "SixClass",
    "AlternatingDecomposition",
    "NotExtremalReason",
    "NotExtremal",
    "Extremal",
    "RecognitionOutcome",
    "decompose_alternating",
    "check_component_lengths",
    "label_path_components",
    "check_path_path_edges",
    "build_2sat",
    "recognize_extremal",
]


class SixClass(Enum):
    A1 = "A1"
    A2 = "A2"
    A4 = "A4"
    B1 = "B1"
    B2 = "B2"
    B4 = "B4"


_IN_SET = frozenset({SixClass.A1, SixClass.A2, SixClass.B1, SixClass.B2})
_BLOCKED = frozenset({SixClass.A4, SixClass.B4})
# _PATTERN[side]: the classes, period 6, along a component whose first vertex
# is on that side and whose first edge is in M. The side-B row is the side-A
# row read backwards from B1, across the M edge A1-B1.
_A_ROW = (SixClass.A1, SixClass.B1, SixClass.A4, SixClass.B2, SixClass.A2, SixClass.B4)
_PATTERN = (_A_ROW, tuple(_A_ROW[(1 - i) % 6] for i in range(6)))
# rotation r of a cycle puts its position p in _PATTERN[0][(p + _SHIFTS[r]) % 6]
_SHIFTS = (2, 0, 4)
# cycle position mod 6 -> the one rotation that puts it in A4 or B4
_BLOCKING = tuple(
    next(r for r, shift in enumerate(_SHIFTS) if _PATTERN[0][(p + shift) % 6] in _BLOCKED)
    for p in range(6)
)


@dataclass(frozen=True)
class AlternatingDecomposition:
    # each component is its vertex tuple: a path of length len - 1, and a
    # cycle of length len that starts at its lowest side-A vertex, M edge first
    paths: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]
    # the edges of G outside M + M', in edge_list order
    stray: tuple[tuple[int, int], ...]


class NotExtremalReason(Enum):
    MATCHING_SIZE_MISMATCH = "MatchingSizeMismatch"
    BAD_CYCLE_LENGTH = "BadCycleLength"
    BAD_PATH_LENGTH = "BadPathLength"
    PATH_EDGE_VIOLATION = "PathEdgeViolation"
    TWO_SAT_UNSAT = "TwoSatUnsat"
    NOT_MAXIMUM_MATCHING = "NotMaximumMatching"


@dataclass(frozen=True)
class NotExtremal:
    reason: NotExtremalReason
    detail: str = ""


@dataclass(frozen=True)
class Extremal:
    """Every vertex's class of the six; ell = |A1|."""

    classes: Mapping[int, SixClass]
    ell: int
    max_dissociation_set: frozenset[int]


RecognitionOutcome = Union[Extremal, NotExtremal]


def decompose_alternating(
    g: Graph, m: Matching, m2: Matching
) -> AlternatingDecomposition:
    """Split H = (V(g), m + m2) into alternating paths and cycles, and list
    the stray edges of g outside H.

    Both matchings touch each vertex at most once, so H has maximum degree
    two and its edges alternate between M and M'. Cycles start at their
    lowest side-A vertex with the M edge first; paths start at an M-covered
    endpoint when one exists, else at the lower endpoint.
    """
    if any(p == q != -1 for p, q in zip(m.partner, m2.partner)):
        raise ValueError("matchings overlap; they must be edge-disjoint")
    n = g.n
    pm = _partner(g, m)
    pm2 = _partner(g, m2)
    visited = [False] * n
    paths: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...]] = []

    def walk(start: int, first_in_m: bool) -> list[int]:
        seq = [start]
        visited[start] = True
        take_m = first_in_m
        cur = start
        while True:
            nxt = (pm if take_m else pm2)[cur]
            if nxt == -1 or visited[nxt]:
                return seq
            seq.append(nxt)
            visited[nxt] = True
            cur = nxt
            take_m = not take_m

    # paths first, each walked from its lower endpoint (degree <= 1 in H)
    for v in range(n):
        if visited[v]:
            continue
        in_m = pm[v] != -1
        if in_m and pm2[v] != -1:
            continue
        seq = walk(v, in_m)
        if not in_m and len(seq) > 1 and pm[seq[-1]] == seq[-2]:
            seq.reverse()
        paths.append(tuple(seq))

    # remaining vertices lie on cycles
    for v in range(n):
        if visited[v]:
            continue
        seq = walk(v, True)
        i = seq.index(min(u for u in seq if g.side[u] == 0))
        # the walk takes M at even positions, so from an even i walk on and
        # from an odd i walk back: either way seq[i]'s M edge comes first
        cycles.append(tuple(seq[i:] + seq[:i] if i % 2 == 0 else seq[i::-1] + seq[:i:-1]))
    stray = tuple((u, v) for u, v in g.edge_list if pm[u] != v and pm2[u] != v)
    return AlternatingDecomposition(tuple(paths), tuple(cycles), stray)


def check_component_lengths(d: AlternatingDecomposition) -> Optional[NotExtremal]:
    """Cycles must have length 0 mod 6, paths length 4 mod 6."""
    for cyc in d.cycles:
        if len(cyc) % 6 != 0:
            return NotExtremal(
                NotExtremalReason.BAD_CYCLE_LENGTH,
                f"cycle {cyc} has length {len(cyc)}",
            )
    for path in d.paths:
        if (len(path) - 1) % 6 != 4:
            return NotExtremal(
                NotExtremalReason.BAD_PATH_LENGTH,
                f"path {path} has length {len(path) - 1}",
            )
    return None


def label_path_components(
    g: Graph, d: AlternatingDecomposition
) -> dict[int, SixClass]:
    """Fix the six-class positions of all path vertices.

    A path of length 4 mod 6 starts at its endpoint not covered by M', so
    its first edge lies in M, and takes ``_PATTERN`` of its first vertex's
    side from the start. Cycle vertices stay unlabeled here.
    """
    labels: dict[int, SixClass] = {}
    for path in d.paths:
        if (len(path) - 1) % 6 != 4:
            raise RuntimeError(
                "path labeling reached with unvalidated component "
                f"{path}; length checks must run first"
            )
        pattern = _PATTERN[g.side[path[0]]]
        for idx, v in enumerate(path):
            labels[v] = pattern[idx % 6]
    return labels


def check_path_path_edges(
    d: AlternatingDecomposition, labels: Mapping[int, SixClass]
) -> Optional[NotExtremal]:
    """Stray edges between two path vertices must touch A4 or B4."""
    for u, v in d.stray:
        if u in labels and v in labels:
            if labels[u] not in _BLOCKED and labels[v] not in _BLOCKED:
                return NotExtremal(
                    NotExtremalReason.PATH_EDGE_VIOLATION,
                    f"edge ({u}, {v}) joins classes "
                    f"{labels[u].value} and {labels[v].value}",
                )
    return None


def build_2sat(
    g: Graph, d: AlternatingDecomposition, labels: Mapping[int, SixClass]
) -> tuple[TwoSatFormula, dict[tuple[int, int], int]]:
    """Formula over rotation variables: 3 * i + r is true when cycle i takes
    rotation r of ``_SHIFTS``; ``var_map`` maps (i, r + 1) to it.

    Per cycle: pairwise at-most-one clauses over its three variables. A
    stray edge into a cycle forces the rotation that blocks its cycle
    endpoint (unit clause) unless the path endpoint is already blocked; a
    stray edge between two cycle vertices yields the disjunction of the two
    blocking rotations.
    """
    blocking = {
        v: 3 * ci + _BLOCKING[p % 6]
        for ci, cyc in enumerate(d.cycles) for p, v in enumerate(cyc)
    }
    var_map = {
        (ci, j): 3 * ci + (j - 1) for ci in range(len(d.cycles)) for j in (1, 2, 3)
    }
    clauses: list[tuple[Literal, ...]] = []
    for ci in range(len(d.cycles)):
        for r, s in ((0, 1), (1, 2), (0, 2)):
            clauses.append(((3 * ci + r, False), (3 * ci + s, False)))
    for u, v in d.stray:
        ends = (u, v) if g.side[u] == 0 else (v, u)  # side-A literal first
        lits = tuple((blocking[w], True) for w in ends if w in blocking)
        # with one endpoint on a cycle, the clause is needed only while the
        # path endpoint is unblocked
        if len(lits) == 2 or (lits and all(labels.get(w) not in _BLOCKED for w in ends)):
            clauses.append(lits)
    formula = TwoSatFormula(3 * len(d.cycles), tuple(clauses))
    return formula, var_map


def _complete_labeling(
    d: AlternatingDecomposition,
    labels: dict[int, SixClass],
    values: tuple[bool, ...],
) -> dict[int, SixClass]:
    classes = dict(labels)
    for ci, cyc in enumerate(d.cycles):
        rotation = next((r for r in range(3) if values[3 * ci + r]), 0)
        shift = _SHIFTS[rotation]
        for p, v in enumerate(cyc):
            classes[v] = _PATTERN[0][(p + shift) % 6]
    return classes


def _validate_extremal(
    g: Graph, d: AlternatingDecomposition, classes: Mapping[int, SixClass]
) -> tuple[int, frozenset[int]]:
    """Check the completed labeling; return ell and the four unblocked
    classes, the maximum dissociation set."""
    counts = {cls: 0 for cls in SixClass}
    for v, cls in classes.items():
        counts[cls] += 1
        if g.side[v] != (0 if cls.value[0] == "A" else 1):
            raise RuntimeError(f"class {cls.value} assigned across sides at {v}")
    ell = counts[SixClass.A1]
    if not ell == counts[SixClass.A2] == counts[SixClass.B1] == counts[SixClass.B2]:
        raise RuntimeError("unbalanced six-class labeling")
    chosen = frozenset(v for v, cls in classes.items() if cls in _IN_SET)
    if len(chosen) != 4 * ell or not is_dissociation_set(g, chosen):
        raise RuntimeError("labeled vertex set is not a valid dissociation set")
    for u, v in d.stray:
        if classes[u] not in _BLOCKED and classes[v] not in _BLOCKED:
            raise RuntimeError(f"stray edge ({u}, {v}) misses A4 and B4")
    # matched-pair bookkeeping of the blocked classes
    if len(d.paths) != 2 * ell - (counts[SixClass.A4] + counts[SixClass.B4]):
        raise RuntimeError("path count disagrees with blocked-class sizes")
    return ell, chosen


def recognize_extremal(g: Graph, m: Matching) -> RecognitionOutcome:
    """Decide whether diss(g) equals 4/3 of alpha(g - m) for maximum m.

    Returns Extremal with the six-class labeling and a maximum dissociation
    set, or NotExtremal with the first failed necessary condition. Raises
    NotBipartiteError for non-bipartite input and ValueError when m is not
    a matching of g.
    """
    if has_augmenting_path(g, m):
        return NotExtremal(
            NotExtremalReason.NOT_MAXIMUM_MATCHING,
            "matching admits an augmenting path",
        )
    # G - M is 2-colored by its own components, as in the approximation
    m2 = maximum_matching(remove_edges(g, m.edges))
    if len(m.edges) != len(m2.edges):
        return NotExtremal(
            NotExtremalReason.MATCHING_SIZE_MISMATCH,
            f"|M|={len(m.edges)} |M'|={len(m2.edges)}",
        )
    d = decompose_alternating(g, m, m2)
    failure = check_component_lengths(d)
    if failure is not None:
        return failure
    labels = label_path_components(g, d)
    failure = check_path_path_edges(d, labels)
    if failure is not None:
        return failure
    formula, _ = build_2sat(g, d, labels)
    values = solve_2sat(formula)
    if values is None:
        return NotExtremal(
            NotExtremalReason.TWO_SAT_UNSAT,
            "no consistent rotation of the cycle components exists",
        )
    classes = _complete_labeling(d, labels, values)
    ell, chosen = _validate_extremal(g, d, classes)
    return Extremal(classes, ell, chosen)
