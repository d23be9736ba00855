"""Per-instance property checks driven by ``dissolab check`` and the tests.

Each check returns None when the property holds and a short failure detail
otherwise. Workers are module-level functions so check batches can run in a
process pool; results are merged in instance order either way.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph, remove_edges, parse_edge_list
from .matching import maximum_matching
from .approx import approx_dissociation_bipartite
from .exact import (
    SOLVERS,
    InstanceTooLarge,
    check_inequality_chain,
    diss_via_induced_matchings,
    dissociation_number_exact,
    independence_number_exact,
    induced_matching_number_exact,
    is_dissociation_set,
    is_independent_set,
    matching_number_bruteforce,
)
from .recognizer import Extremal, recognize_extremal
from .reductions import (
    CnfFormula,
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    parse_gadget_metadata,
)
from .twosat import cnf_satisfiable

__all__ = [
    "check_chain",
    "check_matching_oracle",
    "check_recognizer",
    "check_approx",
    "check_cnf_gadgets",
    "check_is_gadget",
    "check_join_gadget",
    "check_instance_file",
]


def check_chain(g: Graph, *, cutoff: int = 64) -> Optional[str]:
    """Inequality chain, witness validity, and the induced-matching detour."""
    try:
        report = check_inequality_chain(g, cutoff=cutoff, nus_cutoff=cutoff)
    except InstanceTooLarge:
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


def check_recognizer(g: Graph, *, cutoff: int = 64) -> Optional[str]:
    """Extremal outcome iff 3 diss(g) = 4 alpha(g - M), both by oracles."""
    m = maximum_matching(g)
    outcome = recognize_extremal(g, m)
    diss, _ = dissociation_number_exact(g, cutoff=cutoff)
    alpha_minus, _ = independence_number_exact(
        remove_edges(g, m.edges), cutoff=cutoff
    )
    extremal_oracle = 3 * diss == 4 * alpha_minus
    if isinstance(outcome, Extremal):
        if not extremal_oracle:
            return f"recognizer says extremal, oracle has diss={diss} alpha'={alpha_minus}"
        s = outcome.max_dissociation_set
        if len(s) != diss:
            return f"extremal set has size {len(s)}, diss is {diss}"
        if len(s) % 4 != 0 or outcome.labeling.ell * 4 != len(s):
            return "extremal set size not 4*ell"
        if not is_dissociation_set(g, s):
            return "extremal set is not a dissociation set"
        inner = frozenset(
            v for v, cls in outcome.labeling.classes.items()
            if cls.value in ("A1", "A2", "B1")
        )
        if len(inner) != alpha_minus or not is_independent_set(
            remove_edges(g, m.edges), inner
        ):
            return "A1|A2|B1 is not a maximum independent set of g - M"
    else:
        if extremal_oracle:
            return (
                f"recognizer says {outcome.reason.value}, oracle has "
                f"3*diss == 4*alpha' ({diss}, {alpha_minus})"
            )
    return None


def check_approx(g: Graph, *, cutoff: int = 64) -> Optional[str]:
    """Approximation output within [3/4 diss, diss] and a valid set."""
    chosen, cert = approx_dissociation_bipartite(g)
    if not is_dissociation_set(g, chosen):
        return "approx output is not a dissociation set"
    if len(chosen) != cert.alpha_g_minus_m:
        return "certificate alpha disagrees with the returned set"
    diss, _ = dissociation_number_exact(g, cutoff=cutoff)
    if len(chosen) > diss:
        return f"approx set of size {len(chosen)} exceeds diss {diss}"
    if 4 * len(chosen) < 3 * diss:
        return f"approx guarantee violated: 4*{len(chosen)} < 3*{diss}"
    return None


def check_cnf_gadgets(f: CnfFormula, *, cutoff: int = 64) -> Optional[str]:
    """Biconditionals and unconditional predictions for both CNF gadgets."""
    sat = cnf_satisfiable(f.var_count, f.clauses)
    m = len(f.clauses)

    g3 = gadget_diss_2alpha(f).graph
    diss, _ = dissociation_number_exact(g3, cutoff=cutoff)
    alpha, _ = independence_number_exact(g3, cutoff=cutoff)
    nus, _ = induced_matching_number_exact(g3, cutoff=cutoff)
    if alpha != m:
        return f"clause-clique gadget alpha={alpha}, predicted {m}"
    if diss != alpha + nus:
        return "clause-clique gadget misses diss = alpha + nu_s"
    if (diss == 2 * alpha) != sat:
        return f"diss=2alpha is {diss == 2 * alpha} but satisfiable is {sat}"
    if (diss == 2 * nus) != sat:
        return f"diss=2nu_s is {diss == 2 * nus} but satisfiable is {sat}"

    g4 = gadget_diss_alpha(f).graph
    diss4, _ = dissociation_number_exact(g4, cutoff=cutoff)
    alpha4, _ = independence_number_exact(g4, cutoff=cutoff)
    if diss4 != 2 * m:
        return f"doubled-clause gadget diss={diss4}, predicted {2 * m}"
    if (diss4 == alpha4) != sat:
        return f"diss=alpha is {diss4 == alpha4} but satisfiable is {sat}"
    return None


def check_is_gadget(g: Graph, k: int, *, cutoff: int = 64) -> Optional[str]:
    """Padded IS gadget: exact alpha/diss plus the equality biconditional."""
    gi = gadget_diss_alpha_plus_nus(g, k)
    h = gi.graph
    alpha_h, _ = independence_number_exact(h, cutoff=cutoff)
    diss_h, _ = dissociation_number_exact(h, cutoff=cutoff)
    nus_h, _ = induced_matching_number_exact(h, cutoff=cutoff)
    if alpha_h != gi.predicted["alpha"]:
        return f"alpha(H)={alpha_h}, predicted {gi.predicted['alpha']}"
    if diss_h != gi.predicted["diss"]:
        return f"diss(H)={diss_h}, predicted {gi.predicted['diss']}"
    if nus_h < int(gi.predicted["nus_at_least"]):
        return f"nu_s(H)={nus_h} below {gi.predicted['nus_at_least']}"
    alpha_g, _ = independence_number_exact(g, cutoff=cutoff)
    equality = diss_h == alpha_h + nus_h
    if equality != (alpha_g < k):
        return (
            f"diss=alpha+nu_s is {equality} but alpha(g)={alpha_g} vs k={k}"
        )
    kk = int(gi.predicted["k_padded"])
    if (alpha_g >= k) != (nus_h >= kk):
        return f"alpha(g)>=k is {alpha_g >= k} but nu_s(H)={nus_h} vs k'={kk}"
    return None


def check_join_gadget(g: Graph, *, cutoff: int = 64) -> Optional[str]:
    """Join gadget preserves alpha and diss, with and without the matching."""
    from .reductions import gadget_join_kn

    gi, matching = gadget_join_kn(g, cutoff=cutoff)
    h = gi.graph
    hm = remove_edges(h, matching.edges)
    alpha_g = gi.predicted["alpha"]
    diss_g = gi.predicted["diss"]
    for name, graph in (("H", h), ("H-M", hm)):
        alpha, _ = independence_number_exact(graph, cutoff=cutoff)
        diss, _ = dissociation_number_exact(graph, cutoff=cutoff)
        if alpha != alpha_g:
            return f"alpha({name})={alpha}, expected {alpha_g}"
        if diss != diss_g:
            return f"diss({name})={diss}, expected {diss_g}"
    return None


def _equals(name, value, expected, sat):
    got = value(name)
    return f"predict {name} expected {expected} got {got}" if got != int(expected) else None


def _nus_at_least(name, value, expected, sat):
    got = value("nu_s")
    return f"predict {name} expected >= {expected} got {got}" if got < int(expected) else None


def _always_alpha_plus_nus(name, value, expected, sat):
    failed = expected == "always" and value("diss") != value("alpha") + value("nu_s")
    return "predict diss=alpha+nu_s failed" if failed else None


def _iff_satisfiable(relation):
    def check(name, value, expected, sat):
        if expected != "iff-satisfiable" or sat not in ("True", "False"):
            return None
        truth, actual = sat == "True", relation(value)
        return f"predict {name} expected {truth} got {actual}" if actual != truth else None
    return check


# prediction name -> (name, value, expected, satisfiable) -> failure detail or
# None, where value(invariant) solves the file's graph at most once; other
# names, and markers the predicates do not handle, go unchecked, and a file
# with none of these names is invalid input
_PREDICTIONS = {
    "order": _equals,
    "alpha": _equals,
    "diss": _equals,
    "nus_at_least": _nus_at_least,
    "diss_eq_alpha_plus_nus": _always_alpha_plus_nus,
    "diss_eq_2alpha": _iff_satisfiable(lambda v: v("diss") == 2 * v("alpha")),
    "diss_eq_2nus": _iff_satisfiable(lambda v: v("diss") == 2 * v("nu_s")),
    "diss_eq_alpha": _iff_satisfiable(lambda v: v("diss") == v("alpha")),
}


def check_instance_file(path: str, *, cutoff: int = 40) -> Optional[str]:
    """Validate a gadget file's resolvable predictions against the oracles.

    Raises ValueError when the file has no prediction named in _PREDICTIONS.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    g = parse_edge_list(text)
    _, predictions, _ = parse_gadget_metadata(text)
    sat = predictions.get("satisfiable")
    values = {"order": g.n}

    def value(name: str) -> int:
        if name not in values:
            values[name], _ = SOLVERS[name](g, cutoff)
        return values[name]

    checked = sorted(name for name in predictions if name in _PREDICTIONS)
    if not checked:
        raise ValueError(f"{path} carries no prediction that check verifies")
    for name in checked:
        detail = _PREDICTIONS[name](name, value, predictions[name], sat)
        if detail is not None:
            return detail
    return None
