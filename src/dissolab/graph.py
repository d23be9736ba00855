"""Immutable graph values, DIMACS-style text I/O, and seeded generators.

Vertices are dense 0-based indices in memory; files use the 1-based DIMACS
edge-list convention (``p edge <n> <m>`` header followed by ``e <u> <v>``
lines). All randomness goes through :class:`SplitMix64` so generated corpora
are bit-identical across platforms and runs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import lt
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "Graph",
    "NotBipartiteError",
    "ParseError",
    "SplitMix64",
    "new_graph",
    "bipartition",
    "remove_edges",
    "last_line",
    "parse_header",
    "parse_edge_list",
    "render_edge_list",
    "to_dot",
    "random_bipartite",
    "random_graph",
]

_MASK64 = (1 << 64) - 1
# largest vertex count a header may declare: far above the 10^5-vertex inputs
# the polynomial paths serve, far below what would exhaust memory
MAX_VERTICES = 10**7
# largest edge count a generator may build: a padded Independent-Set gadget
# stays far below MAX_VERTICES while its join grows as n * k
MAX_EDGES = 10**6


class NotBipartiteError(ValueError):
    """Raised when no 2-coloring exists; carries an odd-cycle witness."""

    def __init__(self, cycle: Sequence[int]):
        super().__init__(f"graph is not bipartite: odd cycle {tuple(cycle)}")
        self.cycle = tuple(cycle)


class ParseError(ValueError):
    """Malformed edge-list text; ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``, held as each vertex's
    neighbours in ascending order, every search's scan order. All else is
    derived from ``adjacency`` and memoised; two graphs are equal exactly
    when their vertex counts and edge sets are."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Each edge once, smaller end first, in ascending order."""
        return tuple([(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v])

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbours as an n-bit int, n²/8 bytes in all: only
        the exact searches and the catalog, which stop at small n, read it."""
        masks = [0] * self.n
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                masks[u] |= 1 << v
        return tuple(masks)

    @cached_property
    def side(self) -> tuple[int, ...]:
        """Each vertex's side, 0 for A and 1 for B; computed once by :func:`bipartition`."""
        return bipartition(self)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self.adjacency) and v in self.adjacency[u]


def _from_neighbours(n: int, nbrs: Mapping[int, list[int]]) -> Graph:
    """The graph on ``0..n-1`` that joins each key of ``nbrs`` to the vertices
    in its list, with every edge in both ends' lists and repeats allowed. Only
    keys get a tuple; isolated vertices share ``()``."""
    adjacency: list[tuple[int, ...]] = [()] * n
    for v, ws in nbrs.items():
        ws.sort()
        adjacency[v] = tuple(ws)
    if sum(map(len, map(set, nbrs.values()))) != sum(map(len, nbrs.values())):
        # some edge was given twice: keep each neighbour once
        for v, ws in nbrs.items():
            adjacency[v] = tuple(dict.fromkeys(ws))
    return Graph(tuple(adjacency))


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, validating every edge; repeated or reversed edges merge."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range in edge ({u}, {v})")
        nbrs[u].append(v)
        nbrs[v].append(u)
    return _from_neighbours(n, nbrs)


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    # rotate to the minimum vertex, then orient towards its smaller neighbour
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if len(rot) > 2 and rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def bipartition(g: Graph) -> tuple[int, ...]:
    """2-color ``g`` deterministically: each vertex's side, 0 for A, 1 for B.

    In every connected component the lowest-index vertex lands on side A;
    isolated vertices therefore go to side A. Raises
    :class:`NotBipartiteError` with an odd-cycle witness otherwise.
    Callers read the memoised ``Graph.side`` instead of calling this.
    """
    adj = g.adjacency
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:  # the BFS queue: read in order while it grows
            side = color[u]
            for v in adj[u]:
                c = color[v]
                if c == -1:
                    color[v] = 1 - side
                    parent[v] = u
                    queue.append(v)
                elif c == side:
                    # BFS depths of an edge's ends differ by at most one, and
                    # equal colours mean equal parity: u and v are equally deep
                    pu, pv = [u], [v]
                    while pu[-1] != pv[-1]:
                        pu.append(parent[pu[-1]])
                        pv.append(parent[pv[-1]])
                    cycle = pu + pv[-2::-1]
                    raise NotBipartiteError(_normalize_cycle(cycle))
    return tuple(color)


def remove_edges(g: Graph, drop: Iterable[tuple[int, int]]) -> Graph:
    """Return ``g`` minus the given edges; rejects non-edges, and drops an
    edge given twice once. Only the dropped edges' ends get new neighbour
    tuples; the rest are ``g``'s own."""
    adj = g.adjacency
    n = len(adj)
    adjacency = list(adj)
    missing: list[tuple[int, int]] = []
    for u, v in drop:
        nbrs = adjacency[u] if 0 <= u < n else ()
        if v in nbrs:
            i = nbrs.index(v)
            adjacency[u] = nbrs[:i] + nbrs[i + 1:]
            nbrs = adjacency[v]
            i = nbrs.index(u)
            adjacency[v] = nbrs[:i] + nbrs[i + 1:]
        elif not (0 <= u < n and v in adj[u]):  # else given twice and dropped
            missing.append(_canonical_edge(u, v))
    if missing:
        raise ValueError(f"not an edge: {min(missing)}")
    return Graph(tuple(adjacency))


def last_line(text: str) -> int:
    """The number of ``text``'s last line, named by errors found at its end."""
    return len(text.splitlines()) or 1


def parse_header(line_no: int, line: str, kind: str) -> tuple[int, int]:
    """The two non-negative counts of a ``p <kind> <a> <b>`` header line."""
    fields = line.split()
    if len(fields) != 4 or fields[1] != kind:
        raise ParseError(line_no, f"malformed header {line!r}")
    try:
        a, b = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError(line_no, f"malformed header {line!r}") from None
    if a < 0 or b < 0:
        raise ParseError(line_no, "negative count in header")
    return a, b


def parse_edge_list(text: str) -> Graph:
    """Parse DIMACS-style edge-list text.

    Grammar: comment lines start with ``c``; exactly one header
    ``p edge <n> <m>``; then ``m`` lines ``e <u> <v>`` with 1-based
    endpoints. Blank lines are ignored; repeated or reversed edges merge.
    Text in the canonical form of :func:`render_edge_list` is read in bulk;
    all other text, and every error, goes through the line reader.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> Optional[Graph]:
    """The graph of text in render_edge_list's form, else None; never raises.

    The form: ``p edge n m`` first, then exactly m lines ``e u v``, each at
    the start of its line, u < v, in strictly ascending (u, v) order; and
    n <= 2m, so the text pays for every vertex list. Whole-text counts check
    that each line holds the next tokens of that form: m + 1 lines, m of them
    starting ``e ``, whose ``e`` can only be token 4 + 3k once the tokens
    between are read as ints."""
    if not text.startswith("p edge "):
        return None
    tokens = text.split()
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except (IndexError, ValueError):
        return None
    if (not 0 <= n <= min(2 * m, MAX_VERTICES) or len(tokens) != 4 + 3 * m
            or text.count("\ne ") != m or len(text.splitlines()) != m + 1):
        return None
    try:
        us, vs = list(map(int, tokens[5::3])), list(map(int, tokens[6::3]))
    except ValueError:
        return None
    if m:
        # u < v <= n, ascending keys from us[0] >= 1: every end is in 1..n,
        # so the keys order the edges as (u, v) pairs and repeat none
        keys = [u * (n + 1) + v for u, v in zip(us, vs)]
        if not (us[0] >= 1 and max(vs) <= n and all(map(lt, us, vs))
                and all(map(lt, keys, keys[1:]))):
            return None
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):  # in file order each list comes out ascending
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    return Graph(tuple(map(tuple, nbrs)))


def _parse_lines(text: str) -> Graph:
    """parse_edge_list's line reader: any text of the grammar, or ParseError
    naming the first bad line."""
    lines = text.splitlines()

    def line(line_no: int) -> str:
        return lines[line_no - 1].strip()

    n = -1
    declared_m = 0
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for line_no, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if n < 0:
                raise ParseError(line_no, "edge before header")
            try:
                _, a, b = fields
                u, v = int(a) - 1, int(b) - 1
            except ValueError:
                raise ParseError(line_no, f"malformed edge line {line(line_no)!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"endpoint out of range in {line(line_no)!r}")
            if u == v:
                raise ParseError(line_no, f"loop edge in {line(line_no)!r}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        elif tag == "p":
            if n >= 0:
                raise ParseError(line_no, "duplicate header")
            n, declared_m = parse_header(line_no, line(line_no), "edge")
            if n > MAX_VERTICES:
                raise ParseError(line_no, f"header declares {n} vertices, above {MAX_VERTICES}")
        elif tag[0] != "c":
            raise ParseError(line_no, f"unrecognized line {line(line_no)!r}")
    if n < 0:
        raise ParseError(last_line(text), "missing header")
    e_lines = sum(map(len, nbrs.values())) // 2
    if e_lines != declared_m:
        raise ParseError(last_line(text), f"header declares {declared_m} edges, found {e_lines}")
    return _from_neighbours(n, nbrs)


def render_edge_list(g: Graph) -> str:
    """Render in the canonical form parse_edge_list round-trips with."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"


def to_dot(
    g: Graph,
    labeling: Optional[Mapping[int, object]] = None,
    highlight: Iterable[tuple[int, int]] = (),
) -> str:
    """Render ``g`` as DOT text.

    ``labeling`` maps vertices to a class name shown in the node label;
    the edges in ``highlight`` are drawn bold and red.
    """
    labels: dict[int, str] = {}
    if labeling is not None:
        for v, cls in labeling.items():
            if not (0 <= v < g.n):
                raise ValueError(f"labeling references unknown vertex {v}")
            labels[v] = getattr(cls, "value", str(cls))
    bold = {_canonical_edge(u, v) for u, v in highlight}
    out = ["graph g {"]
    for v in range(g.n):
        text = f"{v} {labels[v]}" if v in labels else str(v)
        out.append(f'  {v} [label="{text}"];')
    for u, v in g.edge_list:
        if (u, v) in bold:
            out.append(f"  {u} -- {v} [style=bold, color=red];")
        else:
            out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood); the package's only PRNG.

    state' = state + 0x9E3779B97F4A7C15; the output is the state mixed by
    two xor-shift-multiply rounds. 64-bit wraparound throughout.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # top 53 bits give a uniform double in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        return self.next_u64() % bound


def _random(n: int, pairs: Iterable[tuple[int, int]], p: float, seed: int) -> Graph:
    """The graph on ``0..n-1`` keeping each of ``pairs``, in order, when the
    next SplitMix64 float is below ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = SplitMix64(seed)
    return new_graph(n, [e for e in pairs if rng.next_float() < p])


def random_bipartite(n_a: int, n_b: int, p: float, seed: int) -> Graph:
    """Seeded bipartite G(n_a, n_b, p) with sides ``0..n_a-1`` / ``n_a..n_a+n_b-1``.

    Cross pairs are visited in lexicographic order and kept when the next
    SplitMix64 float is below ``p``, so equal seeds give identical graphs
    everywhere.
    """
    n = n_a + n_b
    return _random(n, ((a, b) for a in range(n_a) for b in range(n_a, n)), p, seed)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p); pair order and PRNG as in :func:`random_bipartite`."""
    return _random(n, ((u, v) for u in range(n) for v in range(u + 1, n)), p, seed)
