import pathlib

import pytest

from dissolab import checks, exact, reductions
from dissolab.corpus import random_cnf_corpus
from dissolab.graph import new_graph
from dissolab.reductions import GadgetInstance, render_gadget


def off_by_one(solver):
    def wrong(g, *, cutoff):
        value, witness = solver(g, cutoff=cutoff)
        return value + 1, witness
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
