"""dissolab's benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run it from the root of a checkout.  Workloads (see README.md):
catalog_verify, exact_solve and poly_pipeline.

With ``--trace 0`` the run sets the workload up in a fresh interpreter,
then runs whole rounds of the workload's operations, each round in a fresh
interpreter and each followed by another set-up, until ``S`` seconds have
passed.  ``setup_s`` is the median set-up time.  The first round's outputs are checked against
computations made apart from dissolab (``verify.py``); every later round
must reproduce them byte for byte.  With ``--trace 1`` one untraced and one
traced round of every workload give the per-layer metrics and the tracing
overhead.  The last line of standard output is the result as JSON.

``--quick`` runs every workload once on reduced inputs with all checks on,
and checks that the checks reject hand-made wrong outputs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as spanlib  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("catalog_verify", "exact_solve", "poly_pipeline")
DEADLINE_S = 170  # every run ends within 180 s
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


class Run:
    """Paths and the deadline of one benchmark invocation."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, ".perfbench_work")
        self.started = time.perf_counter()

    def left(self) -> float:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        return remaining

    def fresh_dir(self, *parts: str) -> str:
        path = os.path.join(self.work, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def python(self, *args: str) -> str:
        """Run a fresh interpreter to its end; its stdout.  Raise if it fails."""
        proc = subprocess.run([sys.executable, *args], cwd=self.root, env=ENV,
                              capture_output=True, text=True, timeout=self.left())
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args[:2])} failed: {proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def worker(self, *args: str) -> None:
        self.python(os.path.join(HERE, "worker.py"), *args)

    def setup(self, workload: str, seed: int, directory: str, quick=False, trace=None) -> float:
        t0 = time.perf_counter()
        self.worker("setup", "--workload", workload, "--seed", str(seed), "--dir", directory,
                    *(["--quick"] if quick else []), *(["--trace", trace] if trace else []))
        return time.perf_counter() - t0

    def round(self, workload: str, directory: str, name: str, full: bool, trace=None) -> dict:
        out = os.path.join(directory, f"{name}.json")
        self.worker("round", "--workload", workload, "--dir", directory, "--out", out,
                    *(["--full"] if full else []), *(["--trace", trace] if trace else []))
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def _dir_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".dimacs") or name.endswith(".matching") or name == "manifest.json":
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def _read(directory: str, name):
    if name is None:
        return None
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return handle.read()


def check_output(op: dict, out, directory: str) -> list[str]:
    """Problems with one operation's output; empty when it is right."""
    if op["op"] == "build":
        return verify.check_catalog(op["catalog"], op["lo"], op["hi"], out)
    if op["op"] == "check":
        return [] if out is None else [f"unexpected output {out!r}"]
    if op["op"] == "solve":
        return verify.check_solve(_read(directory, op["file"]), out, op)
    return verify.check_poly(_read(directory, op["file"]), _read(directory, op["matching"]),
                             out["recognize"], out["approx"], op)


def check_rounds(ops: list[dict], rounds: list[dict], directory: str) -> tuple[int, list[str]]:
    """(failed operations, wrong outputs) over all rounds.

    The first round carries full outputs, which are checked; every later
    round must give outputs with the same digests.  An operation that raised
    counts as failed; one whose output is wrong counts as failed and is
    reported.
    """
    failed, wrong = 0, []
    first = rounds[0]
    for i, op in enumerate(ops):
        for r in rounds:
            if r["errors"][i] is not None:
                failed += 1
                print(f"failed: op {i} ({op.get('file', op['op'])}): {r['errors'][i]}")
            elif r is first or r["digests"][i] != first["digests"][i]:
                found = (check_output(op, first["outputs"][i], directory) if r is first
                         else ["output differs from the first round's"])
                failed += bool(found)
                wrong += [f"op {i} ({op.get('file', op['op'])}): {p}" for p in found]
    return failed, wrong


def _instance_times(ops: list[dict], rounds: list[dict]) -> list[float]:
    """Times of the operations that count as instances (builds do not)."""
    return [r["op_s"][i] for r in rounds for i, op in enumerate(ops) if op["op"] != "build"]


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}={1000 * cut:.3f} ms of {n} samples"
    return f"none ({n} samples are too few)"


def _load_ops(directory: str) -> list[dict]:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def measure(run: Run, workload: str, seed: int, seconds: int) -> dict:
    """Set up, then alternate rounds and set-ups until ``seconds`` have passed.

    The set-ups are spread over the whole run, like the rounds, so that
    ``setup_s`` samples the same stretches of machine speed as ``wall_s``.
    """
    directory = run.fresh_dir(workload)
    setup_times = [run.setup(workload, seed, directory)]
    digests = {_dir_digest(directory)}
    ops = _load_ops(directory)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run.round(workload, directory, f"round{len(rounds)}", full=not rounds))
        setup_times.append(run.setup(workload, seed, directory))
        digests.add(_dir_digest(directory))
    failed, wrong = check_rounds(ops, rounds, directory)
    if len(digests) != 1:
        wrong.append("set-up wrote different inputs for the same seed")
    for p in wrong[:20]:
        print(f"wrong: {p}")
    walls = [r["wall_s"] for r in rounds]
    times = _instance_times(ops, rounds)
    print(f"{workload} seed={seed} rounds={len(rounds)} ops/round={len(ops)} "
          f"wall_s={[round(w, 3) for w in walls]} setup_s={[round(s, 3) for s in setup_times]}")
    print(f"reference: instance tail {_tail(times)}")
    return {
        "correct": not wrong,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "instance_ms_p50": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
                            "unit": "MB"},
        },
    }


# ------------------------------------------------------------------ tracing

CV, EX, PO = WORKLOADS
# layers whose self time is reported per workload: those the workload runs
SELF_LAYERS = {
    CV: ("bench", "catalog", "checks", "exact", "reductions", "graph", "matching",
         "recognizer", "twosat"),
    EX: ("bench", "cli", "graph", "exact", "matching"),
    PO: ("bench", "cli", "graph", "matching", "recognizer", "twosat", "approx"),
}
_IMPORT_CLI = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
               "import dissolab.cli; print(time.perf_counter() - t)")


def per_layer(traces: dict, graphs_built: int, import_s: float) -> dict:
    """The per-layer metrics from the traced rounds and set-ups."""

    def durs(w, name, part="round", tags=None):
        return [s[2] - s[1] for s in traces[w][part]
                if s[0] == name and (tags is None or s[4] in tags)]

    def own(w, pred):
        return sum(t for s, t in zip(traces[w]["round"], traces[w]["self"]) if pred(s[0]))

    def p50(xs):
        return statistics.median(xs)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    build_s = sum(durs(CV, "op", tags={"build"}))
    put("catalog.build_s", build_s, "s")
    put("catalog.graphs_per_s", graphs_built / build_s, "1/s")
    forms = durs(CV, "catalog.canonical_form")
    put("catalog.canonical_form_us_p50", 1e6 * p50(forms), "us")
    put("catalog.canonical_forms_per_graph", len(forms) / graphs_built, "ratio")
    for short, fn in (("chain", "check_chain"), ("matching", "check_matching_oracle"),
                      ("recognizer", "check_recognizer"), ("is_gadget", "check_is_gadget")):
        put(f"checks.{short}_ms_p50", 1000 * p50(durs(CV, f"checks.{fn}")), "ms")
    for short, fn in (("diss", "dissociation_number_exact"), ("alpha", "independence_number_exact"),
                      ("nus", "induced_matching_number_exact")):
        for kind, tags in (("random", {"random"}), ("gadget", {"fig3", "fig4"})):
            xs = durs(EX, f"exact.{fn}", tags=tags)
            put(f"exact.{short}_ms_p50.{kind}", 1000 * p50(xs), "ms")
            put(f"exact.{short}_ms_max.{kind}", 1000 * max(xs), "ms")
    put("exact.detour_ms_p50", 1000 * p50(durs(CV, "exact.diss_via_induced_matchings")), "ms")
    gadget_fns = ("gadget_diss_2alpha", "gadget_diss_alpha", "gadget_diss_alpha_plus_nus",
                  "render_gadget")
    put("reductions.gadget_ms", 1000 * sum(
        sum(durs(EX, f"reductions.{fn}", part="setup")) + sum(durs(CV, f"reductions.{fn}"))
        for fn in gadget_fns), "ms")
    put("graph.parse_ms", 1000 * sum(durs(PO, "graph.parse_edge_list")
                                     + durs(EX, "graph.parse_edge_list")), "ms")
    put("graph.bipartition_ms", 1000 * sum(durs(PO, "graph.bipartition")), "ms")
    put("graph.remove_edges_ms", 1000 * sum(durs(PO, "graph.remove_edges")), "ms")
    put("corpus.generate_s", sum(sum(durs(w, "corpus.generate", part="setup"))
                                 for w in WORKLOADS), "s")
    for short, name in (("hk", "maximum_matching"), ("hk_minus_m", "maximum_matching@G-M"),
                        ("from_edges", "matching_from_edges"),
                        ("augmenting", "has_augmenting_path"), ("koenig", "koenig_cover")):
        put(f"matching.{short}_ms", 1000 * sum(durs(PO, f"matching.{name}")), "ms")
    for short, fn in (("decompose", "decompose_alternating"), ("lengths", "check_component_lengths"),
                      ("label_paths", "label_path_components"),
                      ("path_edges", "check_path_path_edges"), ("build_2sat", "build_2sat")):
        put(f"recognizer.{short}_ms", 1000 * sum(durs(PO, f"recognizer.{fn}")), "ms")
    put("recognizer.rest_ms", 1000 * own(PO, lambda n: n == "recognizer.recognize_extremal"), "ms")
    put("twosat.solve_ms", 1000 * sum(durs(PO, "twosat.solve_2sat")), "ms")
    put("approx.total_ms", 1000 * sum(durs(PO, "approx.approx_dissociation_bipartite")), "ms")
    put("cli.import_s", import_s, "s")
    put("cli.self_ms", 1000 * (own(EX, lambda n: n == "cli.main")
                               + own(PO, lambda n: n == "cli.main")), "ms")
    for w, layers in SELF_LAYERS.items():
        for layer in layers:
            put(f"self_ms.{w}.{layer}",
                1000 * own(w, lambda n, layer=layer: spanlib.layer_of(n) == layer), "ms")
    return metrics


def _counts(traces: dict, ops_by: dict) -> dict:
    """Bases for the ratios: instance, vertex, matching and clause counts."""
    poly = traces[PO]["round"]
    outcomes: dict[str, int] = {}
    for s in poly:
        if s[0] == "recognizer.recognize_extremal":
            outcomes[s[5]] = outcomes.get(s[5], 0) + 1
    return {
        "instances": {w: len(ops) for w, ops in ops_by.items()},
        "spans": {w: len(t["round"]) + len(t["setup"]) for w, t in traces.items()},
        "poly_vertices": sum(s[5] for s in poly if s[0] == "graph.parse_edge_list"),
        "poly_matching_edges": sum(s[5] for s in poly if s[0] == "matching.maximum_matching"),
        "poly_matching_edges_g_minus_m": sum(
            s[5] for s in poly if s[0] == "matching.maximum_matching@G-M"),
        "poly_2sat_clauses": sum(s[5] for s in poly if s[0] == "recognizer.build_2sat"),
        "poly_outcomes": outcomes,
        "exact_solve_vertices": sum(
            s[5] for s in traces[EX]["round"] if s[0] == "graph.parse_edge_list"),
    }


def traced(run: Run, workload: str, seed: int) -> dict:
    """One untraced and one traced round of every workload, requested one first.

    Each per-layer metric belongs to one workload (see README.md), so every
    traced run covers all three and reports every metric.
    """
    tdir = run.fresh_dir("trace")
    traces, ops_by, overhead = {}, {}, {}
    attempted, failed, wrong, graphs_built = 0, 0, [], 0
    for w in [workload] + [x for x in WORKLOADS if x != workload]:
        directory = run.fresh_dir(w)
        setup_file = os.path.join(tdir, f"{w}-setup.jsonl")
        round_file = os.path.join(tdir, f"{w}-round.jsonl")
        run.setup(w, seed, directory, trace=setup_file)
        ops = ops_by[w] = _load_ops(directory)
        plain = run.round(w, directory, "plain", full=True)
        with_spans = run.round(w, directory, "traced", full=False, trace=round_file)
        f, wr = check_rounds(ops, [plain, with_spans], directory)
        attempted, failed, wrong = attempted + 2 * len(ops), failed + f, wrong + wr
        overhead[w] = with_spans["wall_s"] - plain["wall_s"]
        if w == CV:
            graphs_built = sum(len(out) for op, out in zip(ops, plain["outputs"])
                               if op["op"] == "build")
        round_spans = spanlib.load(round_file)
        traces[w] = {"setup": spanlib.load(setup_file), "round": round_spans,
                     "self": spanlib.self_times(round_spans)}
        print(f"{w}: untraced wall_s={plain['wall_s']:.3f} traced wall_s={with_spans['wall_s']:.3f}")
    for p in wrong[:20]:
        print(f"wrong: {p}")
    import_s = statistics.median(float(run.python("-c", _IMPORT_CLI)) for _ in range(3))
    metrics = per_layer(traces, graphs_built, import_s)
    for w, seconds in overhead.items():
        metrics[f"trace.overhead_s.{w}"] = {"value": seconds, "unit": "s"}
    counts = _counts(traces, ops_by)
    print(f"counts: {json.dumps(counts, sort_keys=True)}")
    with open(os.path.join(tdir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "metrics": metrics, "counts": counts}, handle, indent=1)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


# -------------------------------------------------------------- quick mode


def _edit(text: str, key: str, fn) -> str:
    """``text`` with the value of line ``key=...`` replaced by fn(value)."""
    return "".join(f"{key}={fn(line[len(key) + 1:])}\n" if line.startswith(key + "=") else line + "\n"
                   for line in text.splitlines())


def _drop_first(value: str) -> str:
    return " ".join(value.split()[1:])


def _mutations(runs: dict):
    """(what is wrong, operation, wrong output, directory) for the checks to reject."""
    def first(w, pred):
        ops, r, d = runs[w]
        i = next(i for i, op in enumerate(ops) if pred(op))
        return ops[i], r["outputs"][i], d

    op, out, d = first(EX, lambda op: op["kind"] == "random" and "nus" in op["invariants"])
    yield "a diss witness with one vertex dropped", op, _edit(out, "diss_witness", _drop_first), d
    smaller = _edit(_edit(out, "diss_witness", _drop_first), "diss", lambda v: int(v) - 1)
    yield "a smaller diss with a valid witness", op, smaller, d
    yield "an alpha value one too high", op, _edit(out, "alpha", lambda v: int(v) + 1), d
    yield "a nu_s witness with one edge dropped", op, _edit(out, "nu_s_witness", _drop_first), d
    _, edges = verify.parse_dimacs(_read(d, op["file"]))
    joined = next(((e, f) for e in edges for f in edges if not set(e) & set(f)
                   and any((x, y) in edges for x in e for y in f)), None)
    if joined:
        pairs = " ".join(f"{u + 1}-{v + 1}" for u, v in joined)
        yield "a nu_s witness whose edges are joined by an edge", op, _edit(
            _edit(out, "nu_s_witness", lambda _: pairs), "nu_s", lambda _: 2), d
    op, out, d = first(EX, lambda op: op["kind"] == "fig3")
    yield "a fig3 gadget whose diss breaks its theorem", op, _edit(
        _edit(out, "diss_witness", _drop_first), "diss", lambda v: int(v) - 1), d
    op, out, d = first(EX, lambda op: op["kind"] == "fig4")
    yield "a fig4 gadget whose alpha breaks its theorem", op, _edit(
        _edit(out, "alpha_witness", _drop_first), "alpha", lambda v: int(v) - 1), d
    op, out, d = first(PO, lambda op: op["expected"] == "extremal")
    yield "an extremal set with one vertex dropped", op, dict(
        out, recognize=_edit(_edit(out["recognize"], "set", _drop_first), "set_size",
                             lambda v: int(v) - 1)), d
    yield "an approx set with one vertex dropped", op, dict(
        out, approx=_edit(_edit(_edit(out["approx"], "set", _drop_first), "set_size",
                                lambda v: int(v) - 1), "alpha_g_minus_m", lambda v: int(v) - 1)), d
    yield "an approx matching that is not maximum", op, dict(
        out, approx=_edit(out["approx"], "matching", _drop_first)), d
    op, out, d = first(PO, lambda op: op["expected"] == "PathEdgeViolation")
    yield "a wrong rejection reason", op, dict(
        out, recognize=_edit(out["recognize"], "reason", lambda _: "BadPathLength")), d
    op, out, d = first(PO, lambda op: op["matching"] is None)
    yield "a rejection by a maximum matching claimed for a smaller one", op, dict(
        out, recognize=_edit(out["recognize"], "matching", _drop_first)), d
    op, out, d = first(CV, lambda op: op["op"] == "build" and op["catalog"] == "connected")
    yield "a catalog with one graph missing", op, out[:-1], d
    yield "a catalog with one graph twice", op, out[:-2] + [out[-3]] * 2, d
    yield "a disconnected graph in the connected catalog", op, out[:-1] + [[out[-1][0], []]], d
    op, out, d = first(CV, lambda op: op["op"] == "check")
    yield "a check suite that reports a violation", op, "chain violated", d


def _solvers_agree(count: int = 300) -> bool:
    """The benchmark's own solvers against exhaustive search on small graphs."""
    import itertools
    import random

    rng = random.Random(0)
    for _ in range(count):
        n = rng.randint(1, 9)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        es = verify.canon_edges(edges)

        def best(items, ok):
            # the properties are hereditary: stop at the first size with no set
            r = 0
            while r < len(items) and any(ok(list(c)) for c in itertools.combinations(items, r + 1)):
                r += 1
            return r

        vs = list(range(n))
        if (verify.alpha(n, edges) != best(vs, lambda s: not verify.independence_problems(n, es, s))
                or verify.diss(n, edges) != best(vs, lambda s: not verify.dissociation_problems(n, es, s))
                or verify.nu_s(n, edges) != best(edges, lambda m: not verify.matching_problems(es, m, True))):
            return False
        color = verify.two_coloring(n, verify.neighbour_lists(n, edges))
        if color is not None and verify.max_matching_size(
                n, verify.neighbour_lists(n, edges), color) != best(
                edges, lambda m: not verify.matching_problems(es, m, False)):
            return False
    return True


def quick(run: Run) -> int:
    ok = True

    def report(what: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {what}")

    runs = {}
    for w in WORKLOADS:
        directory = run.fresh_dir("quick", w)
        run.setup(w, 1, directory, quick=True)
        ops = _load_ops(directory)
        r = run.round(w, directory, "round", full=True)
        failed, wrong = check_rounds(ops, [r], directory)
        for p in wrong[:10]:
            print(f"wrong: {p}")
        report(f"{w}: {len(ops)} operations on reduced inputs pass every check",
               failed == 0 and not wrong)
        runs[w] = (ops, r, directory)
    if ok:  # the wrong outputs are made from right ones
        for what, op, out, directory in _mutations(runs):
            report(f"rejects {what}", bool(check_output(op, copy.deepcopy(out), directory)))
    report("the benchmark's solvers agree with exhaustive search", _solvers_agree())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dissolab's benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dissolab", "__init__.py")):
        print("error: src/dissolab not found; run from the root of a dissolab checkout",
              file=sys.stderr)
        return 2
    run = Run(root)
    try:
        if args.quick:
            return quick(run)
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            result = traced(run, args.workload, args.seed)
        else:
            result = measure(run, args.workload, args.seed, args.seconds)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
