import dataclasses
import pathlib

import pytest

from dissolab import checks, exact, reductions
from dissolab.corpus import random_cnf_corpus
from dissolab.graph import new_graph
from dissolab.recognizer import NotExtremal, NotExtremalReason, SixClass
from dissolab.reductions import GadgetInstance, render_gadget


def off_by_one(solver, by=1):
    def wrong(g, *, cutoff):
        value, witness = solver(g, cutoff=cutoff)
        return value + by, witness
    return wrong


GADGET_CHECKS = {
    "cnf": lambda: checks.check_cnf_gadgets(random_cnf_corpus(1, 5, 4, 1)[0]),
    "is": lambda: checks.check_is_gadget(new_graph(3, [(0, 1), (1, 2)]), 2),
    "join": lambda: checks.check_join_gadget(new_graph(3, [])),
}


@pytest.mark.parametrize("oracle", ["independence_number_exact", "dissociation_number_exact"])
@pytest.mark.parametrize("gadget", sorted(GADGET_CHECKS))
def test_gadget_checks_catch_a_wrong_oracle(gadget, oracle, monkeypatch):
    run = GADGET_CHECKS[gadget]
    assert run() is None
    monkeypatch.setattr(exact, oracle, off_by_one(getattr(exact, oracle)))
    assert run() is not None


GADGETS = {
    "fig3": lambda: reductions.gadget_diss_2alpha(random_cnf_corpus(1, 5, 4, 1)[0]),
    "fig4": lambda: reductions.gadget_diss_alpha(random_cnf_corpus(1, 5, 4, 1)[0]),
    "is": lambda: reductions.gadget_diss_alpha_plus_nus(new_graph(3, [(0, 1), (1, 2)]), 2),
    "join": lambda: reductions.gadget_join_kn(new_graph(3, [])),
}


@pytest.mark.parametrize("oracle", [None, "independence_number_exact",
                                    "dissociation_number_exact"])
@pytest.mark.parametrize("kind", sorted(GADGETS))
def test_gadget_in_memory_and_on_disk_agree(kind, oracle, tmp_path, monkeypatch):
    gi = GADGETS[kind]()
    path = tmp_path / f"{kind}.dimacs"
    path.write_text(render_gadget(gi))
    if gi.matching is not None:
        pathlib.Path(f"{path}.matching").write_text(
            "".join(f"m {u + 1} {v + 1}\n" for u, v in sorted(gi.matching.edges)))
    if oracle is not None:
        monkeypatch.setattr(exact, oracle, off_by_one(getattr(exact, oracle)))
    detail = checks.check_predictions(gi)
    assert detail == checks.check_instance_file(str(path))
    assert (detail is None) == (oracle is None)


@pytest.mark.parametrize(
    "predictions,message",
    [
        ({"alpha": 1, "alpah": 1}, "unknown prediction 'alpah'"),
        ({"k_original": 1}, "no prediction"),
        ({"alpha_minus_matching": 1}, "no matching"),
        ({"diss_eq_alpha": "iff-tuesday"}, "unknown marker"),
        # markers whose metadata is absent verify nothing
        ({"diss_eq_2alpha": "iff-satisfiable"}, "no prediction"),
        ({"diss_eq_alpha": "iff-alpha-lt-k", "n_original": 1}, "no prediction"),
    ],
)
def test_invalid_predictions_raise(predictions, message):
    with pytest.raises(ValueError, match=message):
        checks.check_predictions(GadgetInstance(new_graph(2, [(0, 1)]), None, predictions, {}),
                                 cutoff=30)


def test_chain_recursion_limit_raises(monkeypatch):
    # RecursionError is a RuntimeError, but a resource limit, not a violation
    def too_deep(g, *, cutoff):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(exact, "induced_matching_number_exact", too_deep)
    with pytest.raises(RecursionError):
        checks.check_chain(new_graph(2, [(0, 1)]))


def test_chain_over_the_cutoff_raises():
    # over the cutoff is not a chain violation: InstanceTooLarge is no
    # RuntimeError, which check_chain reports as one
    with pytest.raises(exact.InstanceTooLarge):
        checks.check_chain(new_graph(exact.EXACT_CUTOFF + 1, []))


C6 = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])


def never(original):
    return lambda *args: False


def shifted(by):
    return lambda solver: off_by_one(solver, by)


def chain_raises(original):
    def broken(g, *, cutoff):
        raise RuntimeError("contradiction")
    return broken


def replaced(**fields):
    """Wrap a function so that it returns its result with ``fields`` replaced."""
    return lambda original: lambda *args, **kwargs: dataclasses.replace(
        original(*args, **kwargs), **fields)


# failure -> (check, graph, {name in checks: wrapper of the original}, detail).
# C6 with its maximum matching is extremal: diss 4, alpha(C6 - M) 3.
CHECK_FAILURES = {
    "chain-violated": (checks.check_chain, C6, {"check_inequality_chain": chain_raises},
                       "chain violated: contradiction"),
    "chain-diss-witness": (checks.check_chain, C6, {"is_dissociation_set": never},
                           "diss witness invalid"),
    "chain-alpha-witness": (checks.check_chain, C6, {"is_independent_set": never},
                            "alpha witness invalid"),
    "chain-diss-witness-size": (checks.check_chain, C6,
                                {"check_inequality_chain": replaced(diss_witness=frozenset())},
                                "diss witness has wrong size"),
    "chain-detour": (checks.check_chain, C6,
                     {"diss_via_induced_matchings":
                          lambda f: lambda g, *, cutoff: f(g, cutoff=cutoff) + 1},
                     "max over induced matchings gives 5, diss is 4"),
    "matching-size": (lambda g, cutoff: checks.check_matching_oracle(g), C6,
                      {"matching_number_bruteforce": lambda f: lambda g: f(g) + 1},
                      "matching size 3 differs from brute force 4"),
    "recognizer-extremal-not-oracle": (checks.check_recognizer, C6,
                                       {"dissociation_number_exact": shifted(1)},
                                       "recognizer says extremal, oracle has diss=5 alpha'=3"),
    "recognizer-set-size": (checks.check_recognizer, C6,
                            {"dissociation_number_exact": shifted(4),
                             "independence_number_exact": shifted(3)},
                            "extremal set has size 4, diss is 8"),
    "recognizer-ell": (checks.check_recognizer, C6, {"recognize_extremal": replaced(ell=2)},
                       "extremal set size not 4*ell"),
    "recognizer-not-dissociation": (checks.check_recognizer, C6, {"is_dissociation_set": never},
                                    "extremal set is not a dissociation set"),
    "recognizer-inner-size": (checks.check_recognizer, C6,
                              {"recognize_extremal":
                                   replaced(classes={v: SixClass.A4 for v in range(6)})},
                              "A1|A2|B1 is not a maximum independent set of g - M"),
    "recognizer-inner-not-independent": (checks.check_recognizer, C6, {"is_independent_set": never},
                                         "A1|A2|B1 is not a maximum independent set of g - M"),
    "recognizer-not-extremal-but-oracle": (
        checks.check_recognizer, C6,
        {"recognize_extremal":
             lambda f: lambda g, m: NotExtremal(NotExtremalReason.TWO_SAT_UNSAT)},
        "recognizer says TwoSatUnsat, oracle has 3*diss == 4*alpha' (4, 3)"),
    "approx-not-dissociation": (checks.check_approx, C6, {"is_dissociation_set": never},
                                "approx output is not a dissociation set"),
    "approx-exceeds-diss": (checks.check_approx, new_graph(2, [(0, 1)]),
                            {"dissociation_number_exact": shifted(-1)},
                            "approx set of size 2 exceeds diss 1"),
    "approx-guarantee": (checks.check_approx, C6, {"dissociation_number_exact": shifted(1)},
                         "approx guarantee violated: 4*3 < 3*5"),
}


@pytest.mark.parametrize("failure", sorted(CHECK_FAILURES))
def test_every_check_failure_reported(failure, monkeypatch):
    check, g, patches, detail = CHECK_FAILURES[failure]
    assert check(g, cutoff=exact.EXACT_CUTOFF) is None
    for name, wrap in patches.items():
        monkeypatch.setattr(checks, name, wrap(getattr(checks, name)))
    assert check(g, cutoff=exact.EXACT_CUTOFF) == detail
