"""Seeded inputs for the three workloads.

``make_inputs`` writes every input file of a workload into a directory and
returns the manifest: the operations of one round, each with what its
checks need to know. The same seed always gives the same files.

exact_solve draws its graphs from dissolab's seeded ``random_graph`` and
builds its gadgets with ``dissolab.reductions``, so that set-up time
includes those layers. The 3-CNF formulas and the bipartite inputs of
poly_pipeline are made by the benchmark itself, because dissolab's corpus
has neither formulas of a fixed clause count nor planted extremal pairs.
"""

from __future__ import annotations

import os
import random

from verify import OEIS

FULL = {
    # exact_solve: (count per round, n, p) of the G(n, p) graphs.  Near the
    # default cutoff of 30 all three invariants are solved; beyond it only
    # diss and alpha, with --cutoff raised.  Many graphs whose solve times
    # vary little (a few ms, coefficient of variation about 0.4) keep a
    # round's time nearly the same from seed to seed; denser or larger
    # graphs have heavy tails.
    "near": ((100, 26, 0.15), (60, 30, 0.15)),
    "beyond": ((80, 36, 0.1),),
    # gadgets per round; fig3 has 4 vertices per clause, fig4 has 6
    "gadgets": {"fig3": 24, "fig4": 20},
    # poly_pipeline: planted extremal pairs as (extra edges, vertex count).
    # "bare" pairs have no extra edges, so M' is the only maximum matching
    # of G - M and it is induced: that takes dissolab's quadratic path
    # through is_induced_matching.  "general" pairs do not.
    "extremal": (("bare", 1200), ("bare", 2400), ("general", 4800), ("general", 9600)),
    # planted non-extremal pairs: vertex count, and pairs per stage.  With
    # three per stage the median operation lies among 18 alike operations,
    # not between two unlike ones.
    "stage": 2400,
    "per_stage": 3,
    # random sparse bipartite graphs (average degree 3)
    "random": (10000, 10000),
    # catalog_verify: (catalog, smallest n, largest n)
    "catalogs": (("connected", 1, 7), ("connected_bipartite", 1, 9), ("all", 0, 5)),
}
QUICK = {
    "near": ((3, 20, 0.15),),
    "beyond": ((2, 32, 0.1),),
    "gadgets": {"fig3": 2, "fig4": 1},
    "extremal": (("bare", 120), ("general", 240)),
    "stage": 120,
    "per_stage": 1,
    "random": (600,),
    "catalogs": (("connected", 1, 5), ("connected_bipartite", 1, 6), ("all", 0, 4)),
}
BEYOND_CUTOFF = 40
FIG3_CUTOFF = 32
CNF_VARS = 5
STAGES = ("NotMaximumMatching", "MatchingSizeMismatch", "BadCycleLength",
          "BadPathLength", "PathEdgeViolation", "TwoSatUnsat")
SUITES = (("chain", "connected"), ("matching", "connected_bipartite"),
          ("recognizer", "connected_bipartite"), ("is_gadget", "all"))
IS_GADGET_K = (1, 2, 3, 4)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write(directory: str, name: str, text: str) -> str:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        handle.write(text)
    return name


def _render(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ catalog_verify


def catalog_ops(seed: int, sizes: dict) -> list[dict]:
    """The three cold builds, then every suite instance in a seeded order.

    The catalogs themselves do not depend on the seed; it only shuffles the
    order in which the instances are checked.
    """
    ops = [{"op": "build", "catalog": name, "lo": lo, "hi": hi}
           for name, lo, hi in sizes["catalogs"]]
    counts = {name: sum(OEIS[name][n] for n in range(lo, hi + 1))
              for name, lo, hi in sizes["catalogs"]}
    checks = []
    for suite, catalog in SUITES:
        for i in range(counts[catalog]):
            ks = IS_GADGET_K if suite == "is_gadget" else (None,)
            checks += [{"op": "check", "suite": suite, "catalog": catalog, "index": i, "k": k}
                       for k in ks]
    _rng(seed, "catalog_verify").shuffle(checks)
    return ops + checks


# --------------------------------------------------------------- exact_solve


def _formula(rng: random.Random, kind: str, unsatisfiable: bool):
    """A seeded 3-CNF formula over five variables for a gadget.

    A clause rules out one eighth of the assignments, so a formula needs
    eight clauses to be unsatisfiable.  Unsatisfiable fig3 formulas are all
    eight sign patterns over three variables (32 vertices); satisfiable ones
    have six random clauses (24 vertices).  fig4 has four random clauses (24
    vertices), always satisfiable: at 30 vertices diss alone takes 0.1-0.4 s.
    """
    from dissolab.reductions import cnf_formula

    if unsatisfiable:
        vs = rng.sample(range(CNF_VARS), 3)
        clauses = [[(v, bool(signs >> j & 1)) for j, v in enumerate(vs)] for signs in range(8)]
        rng.shuffle(clauses)
    else:
        clauses = [[(v, rng.random() < 0.5) for v in rng.sample(range(CNF_VARS), 3)]
                   for _ in range(6 if kind == "fig3" else 4)]
    return cnf_formula(CNF_VARS, clauses)


def exact_inputs(seed: int, directory: str, sizes: dict) -> list[dict]:
    from dissolab.graph import random_graph
    from dissolab.reductions import gadget_diss_2alpha, gadget_diss_alpha, render_gadget

    rng = _rng(seed, "exact_solve")
    ops = []
    for group, invariants, cutoff in ((sizes["near"], "diss,alpha,nus", None),
                                      (sizes["beyond"], "diss,alpha", BEYOND_CUTOFF)):
        for count, n, p in group:
            for _ in range(count):
                g = random_graph(n, p, rng.getrandbits(64))
                name = _write(directory, f"g{len(ops):03d}.dimacs", _render(g.n, g.edge_list))
                ops.append({"op": "solve", "kind": "random", "file": name,
                            "invariants": invariants, "cutoff": cutoff})
    for kind, builder, invariants in (("fig3", gadget_diss_2alpha, "diss,alpha,nus"),
                                      ("fig4", gadget_diss_alpha, "diss,alpha")):
        for i in range(sizes["gadgets"][kind]):
            f = _formula(rng, kind, kind == "fig3" and i % 2 == 1)
            name = _write(directory, f"{kind}_{i:02d}.dimacs", render_gadget(builder(f)))
            ops.append({"op": "solve", "kind": kind, "file": name, "invariants": invariants,
                        "cutoff": FIG3_CUTOFF if kind == "fig3" else None,
                        "var_count": f.var_count, "clauses": [list(map(list, c)) for c in f.clauses]})
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- poly_pipeline

# six-class pattern along a component whose first vertex is on side A and
# whose first edge is in M: A1 B1 A4 B2 A2 B4, period six
_PATTERN = ("A1", "B1", "A4", "B2", "A2", "B4")


class _Planted:
    """Disjoint alternating cycles and paths, then extra edges.

    Every component starts on side A with an M edge; paths have 4 mod 6
    edges and end on side A.  So every M-free vertex is on side A, and M
    stays maximum whatever A-to-B edges are added.  M' (the other edges of
    each component) is as large as M.  An extra edge with an A4 or B4 end
    keeps the planted labels valid, so the pair stays extremal.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0
        self.edges: set[tuple[int, int]] = set()
        self.m: list[tuple[int, int]] = []
        self.label: list[str] = []

    def component(self, k: int, cycle: bool) -> list[int]:
        vs = list(range(self.n, self.n + k))
        self.n += k
        for i in range(k - 1 + cycle):
            u, v = vs[i], vs[(i + 1) % k]
            self.edges.add((u, v) if u < v else (v, u))
            if i % 2 == 0:
                self.m.append((u, v))
        self.label += [_PATTERN[i % 6] for i in range(k)]
        return vs

    def bulk(self, n: int) -> None:
        """Cycles of 6, 12, 18 and paths of 5, 11, 17 vertices, n in total."""
        paths = n // 40
        paths += (5 * n - paths) % 6  # so that 5 * paths = n mod 6
        units = (n - 5 * paths) // 6
        extra = [0] * paths
        cycles = []
        while units:
            if self.rng.random() < 0.2:
                i = self.rng.randrange(paths)
                if extra[i] < 2:
                    extra[i] += 1
                    units -= 1
                continue
            k = min(units, self.rng.choice((1, 1, 1, 2, 3)))
            cycles.append(k)
            units -= k
        for e in extra:
            self.component(5 + 6 * e, False)
        for k in cycles:
            self.component(6 * k, True)

    def add_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        if e in self.edges or self.label[u][0] == self.label[v][0]:
            return False
        self.edges.add(e)
        return True

    def extra_edges(self, count: int, how: str) -> None:
        """``count`` extra edges among the vertices made so far.

        general: from an A4 or B4 vertex to any vertex of the other side.
        unique: from A4 to B2 or B4.  The M' partner of a B2 or B4 vertex
          is never A4, so no M'-alternating cycle or path can form, and M'
          stays the only maximum matching of G - M.
        """
        by_label: dict[str, list[int]] = {}
        for v, lab in enumerate(self.label):
            by_label.setdefault(lab, []).append(v)
        blocked = by_label["A4"] + by_label["B4"]
        ends = {
            "general": (blocked, list(range(self.n))),
            "unique": (by_label["A4"], by_label["B2"] + by_label["B4"]),
        }[how]
        added = 0
        while added < count:
            added += self.add_edge(self.rng.choice(ends[0]), self.rng.choice(ends[1]))

    def set_size(self) -> int:
        return sum(1 for lab in self.label if lab[1] != "4")

    def emit(self, directory: str, name: str, matching: list | None = None) -> dict:
        """Write G and M under a seeded relabelling of the vertices."""
        perm = list(range(self.n))
        self.rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        pairs = [(perm[u], perm[v]) for u, v in (self.m if matching is None else matching)]
        gfile = _write(directory, f"{name}.dimacs", _render(self.n, [(min(e), max(e)) for e in edges]))
        mfile = _write(directory, f"{name}.matching", "".join(f"m {u + 1} {v + 1}\n" for u, v in pairs))
        return {"op": "poly", "file": gfile, "matching": mfile, "n": self.n}


# the components that carry each later stage's fault
_SPECIAL = {
    "BadCycleLength": ((6, True), (4, True)),  # cycles need 0 mod 6 vertices
    "BadPathLength": ((5, False), (3, False)),  # paths need 4 mod 6 edges
    "PathEdgeViolation": ((5, False), (5, False)),
    "TwoSatUnsat": ((6, True), (5, False), (5, False)),
}


def _stage_instance(rng: random.Random, stage: str, n: int) -> tuple[_Planted, list | None]:
    """A planted pair that the recognizer must reject at ``stage``.

    The first two stages do not depend on which maximum matching of G - M
    the recognizer picks, so their bulk carries general extra edges.  For
    the later stages the bulk keeps M' unique, and the components that
    carry the fault get no extra edges but the faulty ones.
    """
    p = _Planted(rng)
    if stage == "NotMaximumMatching":
        p.bulk(n)
        p.extra_edges(n // 10, "general")
        matching = list(p.m)
        matching.pop(rng.randrange(len(matching)))  # leaves an augmenting edge
        return p, matching
    if stage == "MatchingSizeMismatch":
        p.bulk(n - 4)
        p.extra_edges(n // 10, "general")
        p.component(2, False)  # an M edge that G - M cannot match
        p.component(2, False)
        return p, None
    special = _SPECIAL[stage]
    p.bulk(n - sum(k for k, _ in special))
    p.extra_edges(n // 10, "unique")
    parts = [p.component(k, cycle) for k, cycle in special]
    if stage == "PathEdgeViolation":
        first, second = parts
        p.add_edge(first[1], second[4])  # B1 to A2: neither end blocked
    elif stage == "TwoSatUnsat":
        cyc, first, second = parts
        # both path ends are unblocked, so the cycle's rotation must block
        # both cyc[0] and cyc[2], and only one A vertex of a 6-cycle is A4
        p.add_edge(cyc[0], first[1])
        p.add_edge(cyc[2], second[3])
    return p, None


def poly_inputs(seed: int, directory: str, sizes: dict) -> list[dict]:
    rng = _rng(seed, "poly_pipeline")
    ops = []
    for how, n in sizes["extremal"]:
        p = _Planted(rng)
        p.bulk(n)
        if how == "general":
            p.extra_edges(n // 10, how)
        op = p.emit(directory, f"extremal_{how}_{n}")
        ops.append(dict(op, expected="extremal", set_size=p.set_size()))
    for stage in STAGES:
        for j in range(sizes["per_stage"]):
            p, matching = _stage_instance(rng, stage, sizes["stage"])
            ops.append(dict(p.emit(directory, f"stage_{stage}_{j}", matching), expected=stage))
    for i, n in enumerate(sizes["random"]):
        half = n // 2
        edges: set[tuple[int, int]] = set()
        while len(edges) < 3 * half:
            edges.add((rng.randrange(half), half + rng.randrange(half)))
        gfile = _write(directory, f"random{i}.dimacs", _render(n, edges))
        ops.append({"op": "poly", "file": gfile, "matching": None, "n": n,
                    "expected": "MatchingSizeMismatch"})
    rng.shuffle(ops)
    return ops


def make_inputs(workload: str, seed: int, directory: str, quick: bool) -> list[dict]:
    sizes = QUICK if quick else FULL
    if workload == "catalog_verify":
        return catalog_ops(seed, sizes)
    if workload == "exact_solve":
        return exact_inputs(seed, directory, sizes)
    return poly_inputs(seed, directory, sizes)
