"""Command-line front end.

Output is line-oriented ``key=value`` text and deterministic given the
inputs, flags, and seed. Exit codes: 0 success, 1 property violation,
2 invalid input, 3 resource cutoff exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

from . import checks
from .approx import approx_dissociation_bipartite
from .catalog import all_graphs, connected_bipartite_graphs, connected_graphs
from .corpus import (
    join_input_corpus,
    random_bipartite_corpus,
    random_cnf_corpus,
    random_graph_corpus,
)
from .exact import DISS_ALPHA_CUTOFF, InstanceTooLarge, check_inequality_chain
from .graph import (
    Graph,
    GraphConstructionError,
    NotBipartiteError,
    ParseError,
    parse_edge_list,
    to_dot,
)
from .matching import Matching, matching_from_edges, maximum_matching
from .recognizer import Extremal, recognize_extremal
from .reductions import (
    PreconditionFailed,
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    parse_cnf,
    render_gadget,
)
from .twosat import cnf_satisfiable

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_CUTOFF = 3

_ENV_CUTOFF = "DISSOLAB_CUTOFF"


def _default_cutoff() -> int:
    value = os.environ.get(_ENV_CUTOFF)
    if value is None:
        return DISS_ALPHA_CUTOFF
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid {_ENV_CUTOFF} value {value!r}") from None


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _read_matching(path: str, g: Graph) -> Matching:
    edges = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] != "m":
                raise ParseError(line_no, f"malformed matching line {line!r}")
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            edges.append((u, v))
    return matching_from_edges(g, edges)


def _vertices(vs) -> str:
    return " ".join(str(v + 1) for v in sorted(vs))


def _edge_pairs(edges) -> str:
    return " ".join(f"{u + 1}-{v + 1}" for u, v in sorted(edges))


def cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    wanted = set(args.invariants.split(","))
    unknown = wanted - {"diss", "alpha", "nus"}
    if unknown:
        raise ValueError(f"unknown invariant(s): {sorted(unknown)}")
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    if wanted == {"diss", "alpha", "nus"}:
        report = check_inequality_chain(g, cutoff=args.cutoff, nus_cutoff=args.cutoff)
        print(f"diss={report.diss}")
        print(f"diss_witness={_vertices(report.diss_witness)}")
        print(f"alpha={report.alpha}")
        print(f"alpha_witness={_vertices(report.alpha_witness)}")
        print(f"nu_s={report.nu_s}")
        print(f"nu_s_witness={_edge_pairs(report.nu_s_witness.edges)}")
        print(f"eq_diss_2alpha={str(report.diss_eq_2alpha).lower()}")
        print(f"eq_diss_2nus={str(report.diss_eq_2nus).lower()}")
        print(f"eq_diss_alpha={str(report.diss_eq_alpha).lower()}")
        print(f"eq_diss_alpha_plus_nus={str(report.diss_eq_alpha_plus_nus).lower()}")
        print(f"eq_alpha_plus_nus_2alpha={str(report.alpha_plus_nus_eq_2alpha).lower()}")
    else:
        from .exact import (
            dissociation_number_exact,
            independence_number_exact,
            induced_matching_number_exact,
        )

        if "diss" in wanted:
            diss, witness = dissociation_number_exact(g, cutoff=args.cutoff)
            print(f"diss={diss}")
            print(f"diss_witness={_vertices(witness)}")
        if "alpha" in wanted:
            alpha, witness = independence_number_exact(g, cutoff=args.cutoff)
            print(f"alpha={alpha}")
            print(f"alpha_witness={_vertices(witness)}")
        if "nus" in wanted:
            nus, matching = induced_matching_number_exact(g, cutoff=args.cutoff)
            print(f"nu_s={nus}")
            print(f"nu_s_witness={_edge_pairs(matching.edges)}")
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    chosen, cert = approx_dissociation_bipartite(g)
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"set_size={len(chosen)}")
    print(f"set={_vertices(chosen)}")
    print(f"matching_size={len(cert.matching.edges)}")
    print(f"matching={_edge_pairs(cert.matching.edges)}")
    print(f"alpha_g_minus_m={cert.alpha_g_minus_m}")
    return EXIT_OK


def cmd_recognize(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    if args.matching == "auto":
        m = maximum_matching(g)
    else:
        m = _read_matching(args.matching, g)
    outcome = recognize_extremal(g, m)
    print(f"instance={args.path}")
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"matching_source={args.matching}")
    print(f"matching_size={len(m.edges)}")
    print(f"matching={_edge_pairs(m.edges)}")
    if isinstance(outcome, Extremal):
        print("outcome=extremal")
        print(f"ell={outcome.labeling.ell}")
        print(f"set_size={len(outcome.max_dissociation_set)}")
        print(f"set={_vertices(outcome.max_dissociation_set)}")
        for cls in ("A1", "A2", "A4", "B1", "B2", "B4"):
            members = sorted(
                v for v, c in outcome.labeling.classes.items() if c.value == cls
            )
            print(f"label_{cls}={_vertices(members)}")
        labeling = outcome.labeling.classes
    else:
        print("outcome=not_extremal")
        print(f"reason={outcome.reason.value}")
        print(f"detail={outcome.detail}")
        labeling = None
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(g, labeling=labeling, highlight=[m.edges]))
        print(f"dot={args.dot}")
    return EXIT_OK


def cmd_gadget(args: argparse.Namespace) -> int:
    extra: dict[str, object] = {}
    matching = None
    if args.kind in ("fig3", "fig4"):
        if not args.cnf:
            raise ValueError(f"kind {args.kind} needs --cnf")
        with open(args.cnf, "r", encoding="utf-8") as handle:
            formula = parse_cnf(handle.read())
        if formula.var_count <= 20:
            extra["satisfiable"] = cnf_satisfiable(formula.var_count, formula.clauses)
        builder = gadget_diss_2alpha if args.kind == "fig3" else gadget_diss_alpha
        instance = builder(formula)
    elif args.kind == "is":
        if not args.graph or args.k is None:
            raise ValueError("kind is needs --graph and --k")
        instance = gadget_diss_alpha_plus_nus(_read_graph(args.graph), args.k)
    elif args.kind == "join":
        if not args.graph:
            raise ValueError("kind join needs --graph")
        instance, matching = gadget_join_kn(
            _read_graph(args.graph), cutoff=args.cutoff
        )
    else:
        raise ValueError(f"unknown gadget kind {args.kind!r}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_gadget(instance, extra))
    print(f"kind={args.kind}")
    print(f"order={instance.graph.n}")
    print(f"edges={instance.graph.m}")
    print(f"out={args.out}")
    if matching is not None:
        matching_path = args.out + ".matching"
        with open(matching_path, "w", encoding="utf-8") as handle:
            for u, v in sorted(matching.edges):
                handle.write(f"m {u + 1} {v + 1}\n")
        print(f"matching_out={matching_path}")
    return EXIT_OK


def _spec_ints(target: str, fields: list[str], count: int) -> list[int]:
    """The ``count`` integer fields after a spec's kind, and no more."""
    try:
        if len(fields) == count + 1:
            return [int(f) for f in fields[1:]]
    except ValueError:
        pass
    raise ValueError(f"check target {target!r} needs exactly {count} integer field(s)")


def _expand_target(target: str, seed: int) -> list[tuple[str, str, object]]:
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
    fields = target.split(":")
    kind = fields[0]
    if kind == "chain-catalog":
        (max_n,) = _spec_ints(target, fields, 1)
        graphs = [g for n in range(1, max_n + 1) for g in connected_graphs(n)]
        return [(f"{target}#{i}", "chain", g) for i, g in enumerate(graphs)]
    if kind == "chain-random":
        count, max_n = _spec_ints(target, fields, 2)
        graphs = random_graph_corpus(count, max_n, seed)
        return [(f"{target}#{i}", "chain", g) for i, g in enumerate(graphs)]
    if kind == "matching-catalog":
        (max_n,) = _spec_ints(target, fields, 1)
        graphs = [
            g for n in range(1, max_n + 1) for g in connected_bipartite_graphs(n)
        ]
        return [(f"{target}#{i}", "matching", g) for i, g in enumerate(graphs)]
    if kind == "recognizer-catalog":
        (max_n,) = _spec_ints(target, fields, 1)
        graphs = [
            g for n in range(1, max_n + 1) for g in connected_bipartite_graphs(n)
        ]
        return [(f"{target}#{i}", "recognizer", g) for i, g in enumerate(graphs)]
    if kind == "recognizer-random":
        count, max_n = _spec_ints(target, fields, 2)
        graphs = random_bipartite_corpus(count, max_n, seed)
        return [(f"{target}#{i}", "recognizer", g) for i, g in enumerate(graphs)]
    if kind == "approx-random":
        count, max_n = _spec_ints(target, fields, 2)
        graphs = random_bipartite_corpus(count, max_n, seed)
        return [(f"{target}#{i}", "approx", g) for i, g in enumerate(graphs)]
    if kind == "gadget-random":
        (count,) = _spec_ints(target, fields, 1)
        formulas = random_cnf_corpus(count, 5, 4, seed)
        return [(f"{target}#{i}", "cnf-gadget", f) for i, f in enumerate(formulas)]
    if kind == "isgadget":
        max_n, max_k = _spec_ints(target, fields, 2)
        payloads = [
            (g, k)
            for n in range(0, max_n + 1)
            for g in all_graphs(n)
            for k in range(1, max_k + 1)
        ]
        return [(f"{target}#{i}", "is-gadget", p) for i, p in enumerate(payloads)]
    if kind == "join-random":
        count, max_n = _spec_ints(target, fields, 2)
        graphs = join_input_corpus(count, max_n, seed)
        return [(f"{target}#{i}", "join-gadget", g) for i, g in enumerate(graphs)]
    raise ValueError(f"unknown check target {target!r}")


def _run_check(task: tuple[str, str, object, int]) -> tuple[str, Optional[str]]:
    instance_id, kind, payload, cutoff = task
    if kind == "chain":
        detail = checks.check_chain(payload, cutoff=cutoff)
    elif kind == "matching":
        detail = checks.check_matching_oracle(payload)
    elif kind == "recognizer":
        detail = checks.check_recognizer(payload, cutoff=cutoff)
    elif kind == "approx":
        detail = checks.check_approx(payload, cutoff=cutoff)
    elif kind == "cnf-gadget":
        detail = checks.check_cnf_gadgets(payload, cutoff=cutoff)
    elif kind == "is-gadget":
        g, k = payload
        detail = checks.check_is_gadget(g, k, cutoff=cutoff)
    elif kind == "join-gadget":
        detail = checks.check_join_gadget(payload, cutoff=cutoff)
    elif kind == "file":
        detail = checks.check_instance_file(payload, cutoff=cutoff)
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return instance_id, detail


def cmd_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    total = 0
    failures = 0
    for target in args.targets:
        tasks = [
            (instance_id, kind, payload, args.cutoff)
            for instance_id, kind, payload in _expand_target(target, args.seed)
        ]
        if args.jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissolab",
        description=(
            "Dissociation-number toolkit: exact solvers, bipartite "
            "4/3-approximation, extremal-pair recognizer, and hardness "
            "gadget generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cutoff = _default_cutoff()

    p_solve = sub.add_parser("solve", help="exact invariants of a graph file")
    p_solve.add_argument("path")
    p_solve.add_argument("--invariants", default="diss,alpha,nus",
                         help="comma list from diss,alpha,nus")
    p_solve.add_argument("--cutoff", type=int, default=cutoff)
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
    p_gadget.add_argument("kind", choices=["fig3", "fig4", "is", "join"])
    p_gadget.add_argument("--cnf", default=None, help="3-CNF input (DIMACS cnf)")
    p_gadget.add_argument("--graph", default=None, help="graph input (DIMACS edge)")
    p_gadget.add_argument("--k", type=int, default=None)
    p_gadget.add_argument("--out", required=True)
    p_gadget.add_argument("--cutoff", type=int, default=cutoff)
    p_gadget.set_defaults(func=cmd_gadget)

    p_check = sub.add_parser(
        "check",
        help="run property suites over catalogs, seeded corpora, or a fixture dir",
        description=(
            "Targets: a directory of instance files, or generator specs "
            "chain-catalog:N, chain-random:COUNT:N, matching-catalog:N, "
            "recognizer-catalog:N, recognizer-random:COUNT:N, "
            "approx-random:COUNT:N, gadget-random:COUNT, isgadget:N:K, "
            "join-random:COUNT:N."
        ),
    )
    p_check.add_argument("targets", nargs="+")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--jobs", type=int, default=1)
    p_check.add_argument("--cutoff", type=int, default=max(cutoff, 40))
    p_check.add_argument("--verbose", action="store_true")
    p_check.add_argument("--timings", action="store_true",
                         help="print elapsed_ms to stderr")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error=InstanceTooLarge detail={exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except NotBipartiteError as exc:
        print(f"error=NotBipartite detail={exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, GraphConstructionError, PreconditionFailed) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
