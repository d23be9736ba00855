"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed S --dir D [--quick] [--trace F]
    python3 perfbench/worker.py round --workload W --dir D --out F [--full] [--trace F]

``setup`` writes the workload's input files and ``manifest.json`` into D.
``round`` runs every operation of the manifest once, timing each, and writes
a JSON report to F: the round's wall time, each operation's time, failure
and output digest (the outputs themselves with ``--full``), and the peak
resident set.  With ``--trace`` the public functions of dissolab are wrapped
and the recorded spans are written to the given file at the end.

dissolab is imported from ``src`` under the current directory and from
nowhere else; the worker exits non-zero when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.getcwd(), "src")


def _import_dissolab():
    sys.path.insert(0, SRC)
    try:
        import dissolab
    except ImportError:
        sys.exit(f"dissolab not found under {SRC}")
    if not os.path.abspath(dissolab.__file__).startswith(SRC + os.sep):
        sys.exit(f"dissolab was imported from {dissolab.__file__}, not from {SRC}")
    return dissolab


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _cli(main, argv: list[str]) -> str:
    """Run ``dissolab <argv>`` in-process; its stdout, or an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"dissolab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class _Catalog:
    """Runs catalog_verify operations; keeps the built catalogs for the checks."""

    def __init__(self):
        from dissolab import catalog, checks

        self.catalog = catalog
        self.checks = checks
        self.built: dict[str, list] = {}

    def __call__(self, op: dict, directory: str):
        if op["op"] == "build":
            build = {
                "connected": self.catalog.connected_graphs,
                "connected_bipartite": self.catalog.connected_bipartite_graphs,
                "all": self.catalog.all_graphs,
            }[op["catalog"]]
            graphs = [g for n in range(op["lo"], op["hi"] + 1) for g in build(n)]
            self.built[op["catalog"]] = graphs
            return [[g.n, [list(e) for e in g.edge_list]] for g in graphs]
        g = self.built[op["catalog"]][op["index"]]
        suite = {
            "chain": self.checks.check_chain,
            "matching": self.checks.check_matching_oracle,
            "recognizer": self.checks.check_recognizer,
            "is_gadget": self.checks.check_is_gadget,
        }[op["suite"]]
        detail = suite(g) if op["k"] is None else suite(g, op["k"])
        if detail is not None:
            raise RuntimeError(f"check_{op['suite']} on {op['catalog']}#{op['index']}: {detail}")
        return None


class _Cli:
    """Runs exact_solve and poly_pipeline operations through ``cli.main``."""

    def __init__(self):
        from dissolab import cli

        self.cli = cli

    def __call__(self, op: dict, directory: str):
        path = os.path.join(directory, op["file"])
        if op["op"] == "solve":
            argv = ["solve", path, "--invariants", op["invariants"]]
            if op["cutoff"] is not None:
                argv += ["--cutoff", str(op["cutoff"])]
            return _cli(self.cli.main, argv)
        matching = "auto" if op["matching"] is None else os.path.join(directory, op["matching"])
        return {
            "recognize": _cli(self.cli.main, ["recognize", path, "--matching", matching]),
            "approx": _cli(self.cli.main, ["approx", path]),
        }


def tag_of(op: dict) -> str:
    """Short label of an operation, carried by its trace spans."""
    if op["op"] == "build":
        return "build"
    if op["op"] == "check":
        return op["suite"]
    if op["op"] == "solve":
        return op["kind"]
    return "random" if op["matching"] is None else "planted"


def setup(args) -> None:
    _import_dissolab()
    import inputs

    os.makedirs(args.dir, exist_ok=True)
    tracer = _tracer(args.trace)
    span = tracer.begin("corpus.generate", "setup") if tracer else None
    ops = inputs.make_inputs(args.workload, args.seed, args.dir, args.quick)
    if tracer:
        tracer.end(span)
        tracer.write(args.trace)
    with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": ops}, handle)


def _tracer(path):
    if not path:
        return None
    import spans

    return spans.Tracer.install()


def run_round(args) -> None:
    _import_dissolab()
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    runner = _Catalog() if args.workload == "catalog_verify" else _Cli()
    tracer = _tracer(args.trace)
    times, errors, digests, outputs = [], [], [], []
    started = time.perf_counter()
    for op in ops:
        span = tracer.begin("op", tag_of(op)) if tracer else None
        t0 = time.perf_counter()
        try:
            out, error = runner(op, args.dir), None
        except Exception as exc:  # an operation that fails is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(span)
        errors.append(error)
        digests.append(_digest(out))
        if args.full:
            outputs.append(out)
    wall = time.perf_counter() - started
    if tracer:
        tracer.write(args.trace)
    report = {
        "wall_s": wall,
        "op_s": times,
        "errors": errors,
        "digests": digests,
        "outputs": outputs if args.full else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["setup", "round"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.step == "setup":
        setup(args)
    else:
        run_round(args)


if __name__ == "__main__":
    main()
