"""Command-line front end.

Output is line-oriented ``key=value`` text and deterministic given the
inputs, flags, and seed. Exit codes: 0 success, 1 property violation,
2 invalid input, 3 over the oracle cutoff or the recursion limit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import checks
from .approx import approx_dissociation_bipartite
from .catalog import all_graphs, connected_bipartite_graphs, connected_graphs
from .corpus import (
    join_input_corpus,
    random_bipartite_corpus,
    random_cnf_corpus,
    random_graph_corpus,
)
from .exact import EXACT_CUTOFF, SOLVERS, InstanceTooLarge, chain_equalities
from .graph import Graph, parse_edge_list, to_dot
from .matching import Matching, maximum_matching, parse_matching
from .recognizer import Extremal, SixClass, recognize_extremal
from .reductions import (
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    parse_cnf,
    render_gadget,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_CUTOFF = 3


def positive_int(text: str) -> int:
    """``text`` as an integer of at least 1, else ValueError.

    An argparse ``type``; argparse names it in its error message, hence no
    leading underscore.
    """
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is below 1")
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _vertices(vs) -> str:
    return " ".join(str(v + 1) for v in sorted(vs))


def _edge_pairs(m: Matching) -> str:
    # ascending pairs, read off the partner array without sorting its edges
    return " ".join([f"{u + 1}-{v + 1}" for u, v in enumerate(m.partner) if u < v])


# --invariants token -> (output key, witness formatter); the key names the
# solver in exact.SOLVERS
_INVARIANTS = {
    "diss": ("diss", _vertices),
    "alpha": ("alpha", _vertices),
    "nus": ("nu_s", _edge_pairs),
}


def cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    wanted = set(args.invariants.split(","))
    unknown = wanted - set(_INVARIANTS)
    if unknown:
        raise ValueError(f"unknown invariant(s): {sorted(unknown)}")
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    values = {}
    for token, (key, witness_text) in _INVARIANTS.items():
        if token in wanted:
            values[key], witness = SOLVERS[key](g, args.cutoff)
            print(f"{key}={values[key]}")
            print(f"{key}_witness={witness_text(witness)}")
    # all three solved: eq_diss_2alpha=... for the flag diss_eq_2alpha, and so on
    for name, holds in chain_equalities(values).items() if len(values) == len(SOLVERS) else ():
        print(f"eq_{name.replace('_eq_', '_')}={str(holds).lower()}")
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    chosen, matching = approx_dissociation_bipartite(g)
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"set_size={len(chosen)}")
    print(f"set={_vertices(chosen)}")
    print(f"matching_size={len(matching.edges)}")
    print(f"matching={_edge_pairs(matching)}")
    # the set is a maximum independent set of g - M
    print(f"alpha_g_minus_m={len(chosen)}")
    return EXIT_OK


def cmd_recognize(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    if args.matching == "auto":
        m = maximum_matching(g)
    else:
        m = parse_matching(_read(args.matching), g)
    outcome = recognize_extremal(g, m)
    extremal = isinstance(outcome, Extremal)
    if args.dot:  # before any output, so an unwritable path prints nothing
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(g, labeling=outcome.classes if extremal else None, highlight=m.edges))
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"matching_source={args.matching}")
    print(f"matching_size={len(m.edges)}")
    print(f"matching={_edge_pairs(m)}")
    if extremal:
        print("outcome=extremal")
        print(f"ell={outcome.ell}")
        print(f"set_size={len(outcome.max_dissociation_set)}")
        print(f"set={_vertices(outcome.max_dissociation_set)}")
        for cls in SixClass:
            members = [v for v, c in outcome.classes.items() if c is cls]
            print(f"label_{cls.value}={_vertices(members)}")
    else:
        print("outcome=not_extremal")
        print(f"reason={outcome.reason.value}")
        print(f"detail={outcome.detail}")
    if args.dot:
        print(f"dot={args.dot}")
    return EXIT_OK


# gadget kind -> (the options it needs, its builder over the parsed arguments)
_GADGETS = {
    "fig3": (("cnf",), lambda args: gadget_diss_2alpha(parse_cnf(_read(args.cnf)))),
    "fig4": (("cnf",), lambda args: gadget_diss_alpha(parse_cnf(_read(args.cnf)))),
    "is": (("graph", "k"), lambda args: gadget_diss_alpha_plus_nus(_read_graph(args.graph), args.k)),
    "join": (("graph",), lambda args: gadget_join_kn(_read_graph(args.graph), cutoff=args.cutoff)),
}


def cmd_gadget(args: argparse.Namespace) -> int:
    options, build = _GADGETS[args.kind]
    if any(getattr(args, option) in (None, "") for option in options):
        raise ValueError(f"kind {args.kind} needs {' and '.join('--' + o for o in options)}")
    instance = build(args)
    matching_path = args.out + ".matching"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_gadget(instance))
    if instance.matching is None:  # else check would read an earlier join's sidecar with it
        with contextlib.suppress(FileNotFoundError):
            os.remove(matching_path)
    print(f"kind={args.kind}")
    print(f"order={instance.graph.n}")
    print(f"edges={instance.graph.m}")
    print(f"out={args.out}")
    if instance.matching is not None:
        with open(matching_path, "w", encoding="utf-8") as handle:
            for u, v in sorted(instance.matching.edges):
                handle.write(f"m {u + 1} {v + 1}\n")
        print(f"matching_out={matching_path}")
    return EXIT_OK


def _spec_ints(target: str, fields: list[str], count: int) -> list[int]:
    """The ``count`` positive integer fields after a spec's kind, and no more."""
    try:
        if len(fields) == count:
            return [positive_int(f) for f in fields]
    except ValueError:
        pass
    raise ValueError(f"check target {target!r} needs exactly {count} positive integer field(s)")


def _catalog(build, max_n: int, first: int = 1) -> list:
    build(max_n)  # the largest first, so an oversized catalog fails before any work
    return [g for n in range(first, max_n + 1) for g in build(n)]


class _Spec(NamedTuple):
    fields: tuple[str, ...]  # names of the integer fields after the kind
    generate: Callable[..., list]  # (*fields, seed, cutoff) -> payloads
    check: Callable[[Any, int], Optional[str]]  # (payload, cutoff) -> failure detail
    # (*fields) -> an order some instance reaches; over the cutoff, the spec
    # exits 3 before anything is generated
    least_order: Callable[..., int] = lambda *fields: 0


# check spec kind -> _Spec. The lambdas look functions up at call time, so a
# rebinding of them (by a tracer, say) is seen; pool tasks carry the kind.
_TARGETS = {
    "chain-catalog": _Spec(("N",), lambda n, seed, cutoff: _catalog(connected_graphs, n),
                           lambda g, cutoff: checks.check_chain(g, cutoff=cutoff)),
    # sizes cycle over 1..N, or 2..N for bipartite graphs
    "chain-random": _Spec(("COUNT", "N"),
                          lambda count, n, seed, cutoff: random_graph_corpus(count, n, seed),
                          lambda g, cutoff: checks.check_chain(g, cutoff=cutoff),
                          lambda count, n: min(count, n)),
    "matching-catalog": _Spec(("N",),
                              lambda n, seed, cutoff: _catalog(connected_bipartite_graphs, n),
                              lambda g, cutoff: checks.check_matching_oracle(g)),
    "recognizer-catalog": _Spec(("N",),
                                lambda n, seed, cutoff: _catalog(connected_bipartite_graphs, n),
                                lambda g, cutoff: checks.check_recognizer(g, cutoff=cutoff)),
    "recognizer-random": _Spec(("COUNT", "N"),
                               lambda count, n, seed, cutoff:
                                   random_bipartite_corpus(count, n, seed),
                               lambda g, cutoff: checks.check_recognizer(g, cutoff=cutoff),
                               lambda count, n: min(count + 1, n)),
    "approx-random": _Spec(("COUNT", "N"),
                           lambda count, n, seed, cutoff: random_bipartite_corpus(count, n, seed),
                           lambda g, cutoff: checks.check_approx(g, cutoff=cutoff),
                           lambda count, n: min(count + 1, n)),
    "gadget-random": _Spec(("COUNT",),
                           lambda count, seed, cutoff: random_cnf_corpus(count, 5, 4, seed),
                           lambda f, cutoff: checks.check_cnf_gadgets(f, cutoff=cutoff)),
    "isgadget": _Spec(("N", "K"), lambda n, k, seed, cutoff: [
                          (g, j) for g in _catalog(all_graphs, n, 0) for j in range(1, k + 1)],
                      lambda gk, cutoff: checks.check_is_gadget(*gk, cutoff=cutoff),
                      # padding keeps n >= 2, so every gadget for K has >= 2K + 2 vertices
                      lambda n, k: 2 * k + 2),
    "join-random": _Spec(("COUNT", "N"), lambda *args: join_input_corpus(*args),
                         lambda g, cutoff: checks.check_join_gadget(g, cutoff=cutoff),
                         # a source graph has n >= 3, so its join has >= 6 vertices
                         lambda count, n: 6),
}
# task kind -> check: a spec's kind, or "file" for a file in a directory target
_CHECKS = {kind: spec.check for kind, spec in _TARGETS.items()}
_CHECKS["file"] = lambda path, cutoff: checks.check_instance_file(path, cutoff=cutoff)


def _expand_target(target: str, seed: int, cutoff: int) -> list[tuple[str, str, object]]:
    """Turn a generator spec or directory into (instance id, kind, payload)."""
    if os.path.isdir(target):
        out = []
        for name in sorted(os.listdir(target)):
            if name.endswith(".matching"):
                continue  # sidecar of a join gadget, not an instance
            path = os.path.join(target, name)
            if os.path.isfile(path):
                out.append((path, "file", path))
        return out
    kind, *fields = target.split(":")
    if kind not in _TARGETS:
        raise ValueError(f"unknown check target {target!r}")
    spec = _TARGETS[kind]
    ints = _spec_ints(target, fields, len(spec.fields))
    order = spec.least_order(*ints)
    if order > cutoff:
        raise InstanceTooLarge(order, cutoff)
    payloads = spec.generate(*ints, seed, cutoff)
    return [(f"{target}#{i}", kind, p) for i, p in enumerate(payloads)]


def _run_check(task: tuple[str, str, object, int]) -> tuple[str, Optional[str]]:
    instance_id, kind, payload, cutoff = task
    return instance_id, _CHECKS[kind](payload, cutoff)


def cmd_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    total = 0
    failures = 0
    for target in args.targets:
        tasks = [
            (instance_id, kind, payload, args.cutoff)
            for instance_id, kind, payload in _expand_target(target, args.seed, args.cutoff)
        ]
        workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_check, tasks, chunksize=16))
        else:
            results = [_run_check(task) for task in tasks]
        target_failures = 0
        for instance_id, detail in results:
            if detail is not None:
                target_failures += 1
                print(f"check={instance_id} status=fail detail={detail}")
            elif args.verbose:
                print(f"check={instance_id} status=ok")
        print(f"target={target} instances={len(tasks)} failures={target_failures}")
        total += len(tasks)
        failures += target_failures
    print(f"total_instances={total}")
    print(f"total_failures={failures}")
    if args.timings:
        print(f"elapsed_ms={int(1000 * (time.monotonic() - started))}", file=sys.stderr)
    return EXIT_VIOLATION if failures else EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser; built once, since ``main`` may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="dissolab",
        description=(
            "Dissociation-number toolkit: exact solvers, bipartite "
            "4/3-approximation, extremal-pair recognizer, and hardness "
            "gadget generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact invariants of a graph file")
    p_solve.add_argument("path")
    p_solve.add_argument("--invariants", default="diss,alpha,nus",
                         help="comma list from diss,alpha,nus")
    p_solve.add_argument("--cutoff", type=positive_int, default=EXACT_CUTOFF)
    p_solve.set_defaults(func=cmd_solve)

    p_approx = sub.add_parser("approx", help="4/3-approximation on a bipartite graph")
    p_approx.add_argument("path")
    p_approx.set_defaults(func=cmd_approx)

    p_rec = sub.add_parser("recognize", help="extremal-pair recognition")
    p_rec.add_argument("path")
    p_rec.add_argument("--matching", default="auto",
                       help="matching file (lines 'm u v', 1-based) or 'auto'")
    p_rec.add_argument("--dot", default=None, help="write a DOT dump here")
    p_rec.set_defaults(func=cmd_recognize)

    p_gadget = sub.add_parser("gadget", help="emit a hardness gadget instance")
    p_gadget.add_argument("kind", choices=list(_GADGETS))
    p_gadget.add_argument("--cnf", default=None, help="3-CNF input (DIMACS cnf)")
    p_gadget.add_argument("--graph", default=None, help="graph input (DIMACS edge)")
    p_gadget.add_argument("--k", type=int, default=None)
    p_gadget.add_argument("--out", required=True)
    p_gadget.add_argument("--cutoff", type=positive_int, default=EXACT_CUTOFF)
    p_gadget.set_defaults(func=cmd_gadget)

    specs = ", ".join(":".join((kind,) + spec.fields) for kind, spec in _TARGETS.items())
    p_check = sub.add_parser(
        "check",
        help="run property suites over catalogs, seeded corpora, or a fixture dir",
        description=f"Targets: a directory of instance files, or generator specs {specs}.",
    )
    p_check.add_argument("targets", nargs="+")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--jobs", type=positive_int, default=1)
    p_check.add_argument("--cutoff", type=positive_int, default=EXACT_CUTOFF)
    p_check.add_argument("--verbose", action="store_true")
    p_check.add_argument("--timings", action="store_true",
                         help="print elapsed_ms to stderr")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (InstanceTooLarge, RecursionError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except (ValueError, OSError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
