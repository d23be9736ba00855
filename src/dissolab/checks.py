"""Per-instance property checks driven by ``dissolab check`` and the tests.

Each check returns None when the property holds and a short failure detail
otherwise. Workers are module-level functions so check batches can run in a
process pool; results are merged in instance order either way.
"""

from __future__ import annotations

import functools
import pathlib
import re
from typing import Mapping, Optional

from .graph import Graph, new_graph, remove_edges, parse_edge_list
from .matching import maximum_matching, parse_matching
from .approx import approx_dissociation_bipartite
from .exact import (
    EQUALITIES,
    EXACT_CUTOFF,
    SOLVERS,
    check_inequality_chain,
    diss_via_induced_matchings,
    dissociation_number_exact,
    independence_number_exact,
    is_dissociation_set,
    is_independent_set,
    matching_number_bruteforce,
)
from .recognizer import Extremal, SixClass, recognize_extremal
from .reductions import (
    CnfFormula,
    GadgetInstance,
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    parse_gadget_metadata,
)

__all__ = [
    "check_chain",
    "check_matching_oracle",
    "check_recognizer",
    "check_approx",
    "check_cnf_gadgets",
    "check_is_gadget",
    "check_join_gadget",
    "check_predictions",
    "check_instance_file",
]


def check_chain(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Inequality chain, witness validity, and the induced-matching detour.

    A RecursionError is a resource limit, like InstanceTooLarge, and is raised.
    """
    try:
        report = check_inequality_chain(g, cutoff=cutoff)
    except RecursionError:
        raise
    except RuntimeError as exc:
        return f"chain violated: {exc}"
    if not is_dissociation_set(g, report.diss_witness):
        return "diss witness invalid"
    if not is_independent_set(g, report.alpha_witness):
        return "alpha witness invalid"
    if len(report.diss_witness) != report.diss:
        return "diss witness has wrong size"
    via = diss_via_induced_matchings(g, cutoff=cutoff)
    if via != report.diss:
        return f"max over induced matchings gives {via}, diss is {report.diss}"
    return None


def check_matching_oracle(g: Graph) -> Optional[str]:
    """Deterministic maximum matching agrees with brute force in size."""
    m = maximum_matching(g)
    brute = matching_number_bruteforce(g)
    if len(m.edges) != brute:
        return f"matching size {len(m.edges)} differs from brute force {brute}"
    return None


def check_recognizer(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Extremal outcome iff 3 diss(g) = 4 alpha(g - M), both by oracles."""
    m = maximum_matching(g)
    outcome = recognize_extremal(g, m)
    g_minus_m = remove_edges(g, m.edges)
    diss, _ = dissociation_number_exact(g, cutoff=cutoff)
    alpha_minus, _ = independence_number_exact(g_minus_m, cutoff=cutoff)
    extremal_oracle = 3 * diss == 4 * alpha_minus
    if isinstance(outcome, Extremal):
        if not extremal_oracle:
            return f"recognizer says extremal, oracle has diss={diss} alpha'={alpha_minus}"
        s = outcome.max_dissociation_set
        if len(s) != diss:
            return f"extremal set has size {len(s)}, diss is {diss}"
        if outcome.ell * 4 != len(s):  # len(s) = diss, a multiple of 4 here
            return "extremal set size not 4*ell"
        if not is_dissociation_set(g, s):
            return "extremal set is not a dissociation set"
        inner = frozenset(
            v for v, cls in outcome.classes.items()
            if cls in (SixClass.A1, SixClass.A2, SixClass.B1)
        )
        if len(inner) != alpha_minus or not is_independent_set(g_minus_m, inner):
            return "A1|A2|B1 is not a maximum independent set of g - M"
    else:
        if extremal_oracle:
            return (
                f"recognizer says {outcome.reason.value}, oracle has "
                f"3*diss == 4*alpha' ({diss}, {alpha_minus})"
            )
    return None


def check_approx(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Approximation output within [3/4 diss, diss] and a valid set."""
    chosen, _ = approx_dissociation_bipartite(g)
    if not is_dissociation_set(g, chosen):
        return "approx output is not a dissociation set"
    diss, _ = dissociation_number_exact(g, cutoff=cutoff)
    if len(chosen) > diss:
        return f"approx set of size {len(chosen)} exceeds diss {diss}"
    if 4 * len(chosen) < 3 * diss:
        return f"approx guarantee violated: 4*{len(chosen)} < 3*{diss}"
    return None


def check_cnf_gadgets(f: CnfFormula, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Both CNF gadgets' predictions."""
    for gi in (gadget_diss_2alpha(f), gadget_diss_alpha(f)):
        detail = check_predictions(gi, cutoff=cutoff)
        if detail is not None:
            return f"{gi.kind}: {detail}"
    return None


def check_is_gadget(g: Graph, k: int, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Padded IS gadget's predictions, including the biconditional on alpha(g) < k."""
    return check_predictions(gadget_diss_alpha_plus_nus(g, k), cutoff=cutoff)


def check_join_gadget(g: Graph, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """Join gadget preserves alpha and diss, with and without the matching."""
    return check_predictions(gadget_join_kn(g, cutoff=cutoff), cutoff=cutoff)


def _equals(name, value, predictions):
    got, expected = value(name), predictions[name]
    return f"predict {name} expected {expected} got {got}" if got != int(expected) else None


def _nus_at_least(name, value, predictions):
    got, expected = value("nu_s"), predictions[name]
    return f"predict {name} expected >= {expected} got {got}" if got < int(expected) else None


# what a predicate returns when the metadata its marker rests on is absent
_SKIPPED = "skipped"
# biconditional marker -> (value, predictions) -> the truth the relation must
# have, or None when the metadata it rests on is absent (a formula too large
# for the truth table gets no satisfiable line)
_MARKERS = {
    "always": lambda value, p: True,
    "iff-satisfiable": lambda value, p: {"True": True, "False": False}.get(p.get("satisfiable")),
    "iff-alpha-lt-k": lambda value, p: (
        value("alpha_original") < int(p["k_original"]) if "k_original" in p else None),
}


def _holds(relation):
    def check(name, value, predictions):
        marker = predictions[name]
        if marker not in _MARKERS:
            raise ValueError(f"unknown marker {marker!r} for prediction {name!r}")
        truth = _MARKERS[marker](value, predictions)
        if truth is None:
            return _SKIPPED
        actual = relation(value)
        return f"predict {name} expected {truth} got {actual}" if actual != truth else None
    return check


# prediction name -> (name, value, predictions) -> failure detail, None, or _SKIPPED
_PREDICTIONS = {
    "order": _equals,
    "alpha": _equals,
    "diss": _equals,
    "alpha_minus_matching": _equals,
    "diss_minus_matching": _equals,
    "nus_at_least": _nus_at_least,
    **{name: _holds(relation) for name, relation in EQUALITIES.items()},
}
# names the gadget builders write for the predicates to read, not to check
_METADATA = {"satisfiable", "n_original", "k_original", "n_padded", "k_padded"}
# a value(name) argument: an invariant, then the graph it is solved on
_VALUE = re.compile(r"(order|alpha|diss|nu_s)(_minus_matching|_original|)")


def _original_graph(g: Graph, roles: Mapping[int, str]) -> Graph:
    """The source graph: g induced on its ``orig:<v>`` vertices, v numbered by
    its role; ``parse_gadget_metadata`` makes the v of a file 0..k-1, each once."""
    source = {u: int(role[len("orig:"):]) for u, role in roles.items() if role.startswith("orig:")}
    return new_graph(len(source), [(source[u], source[v]) for u, v in g.edge_list
                                   if u in source and v in source])


def check_predictions(gi: GadgetInstance, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """The first failed prediction of a gadget, in name order, or None.

    Each invariant is solved at most once: on the graph g, on g - M for a
    ``_minus_matching`` name, and on the source graph of the ``orig:`` roles
    for ``_original``. Raises ValueError on an unknown name, on a map in
    which every name of _PREDICTIONS is skipped or none is present, and on a
    ``_minus_matching`` name with no matching.
    """
    g, matching = gi.graph, gi.matching
    predictions = {name: str(v) for name, v in gi.predicted.items()}
    unknown = sorted(predictions.keys() - _PREDICTIONS.keys() - _METADATA)
    if unknown:
        raise ValueError(f"unknown prediction {unknown[0]!r}")
    checked = sorted(predictions.keys() & _PREDICTIONS.keys())
    if matching is None and any(name.endswith("_minus_matching") for name in checked):
        raise ValueError("predictions on g - M, but no matching")
    graphs = {"": lambda: g, "_minus_matching": lambda: remove_edges(g, matching.edges),
              "_original": lambda: _original_graph(g, gi.vertex_roles)}
    graph = functools.cache(lambda on: graphs[on]())

    @functools.cache
    def value(name: str) -> int:
        invariant, on = _VALUE.fullmatch(name).groups()
        h = graph(on)
        return h.n if invariant == "order" else SOLVERS[invariant](h, cutoff)[0]

    skipped = 0
    for name in checked:
        detail = _PREDICTIONS[name](name, value, predictions)
        if detail == _SKIPPED:
            skipped += 1
        elif detail is not None:
            return detail
    if skipped == len(checked):
        raise ValueError("no prediction that check verifies")
    return None


def check_instance_file(path: str, *, cutoff: int = EXACT_CUTOFF) -> Optional[str]:
    """A gadget file's predictions, with its ``<path>.matching`` sidecar if any.

    Raises ValueError, naming the file, where a parser or check_predictions
    does, and InstanceTooLarge when an oracle's graph is over ``cutoff``.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    sidecar = pathlib.Path(path + ".matching")
    try:
        g = parse_edge_list(text)
        kind, predictions, roles = parse_gadget_metadata(text, g.n)
        matching = parse_matching(sidecar.read_text(encoding="utf-8"), g) if sidecar.exists() else None
        return check_predictions(GadgetInstance(g, kind, predictions, roles, matching), cutoff=cutoff)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
