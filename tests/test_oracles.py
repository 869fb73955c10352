"""Exact ground-truth oracles against independent brute force and Monte Carlo references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircb import sampling
from faircb.errors import EnumerationTooLarge
from faircb.model import REGIMES, Arm, Instance, Regime
from faircb.oracles import (
    DEFAULT_ENUM_CAP,
    enumerate_arms,
    enumerate_joint,
    enumeration_cap,
    oracle_report,
)

from helpers import (
    BENCH_INSTANCES,
    brute_fairness,
    brute_mean,
    chain_model,
    counterfactual_weight,
    direction_values,
    exact_fairness,
    exact_outcome_mean,
    liver_experiment,
    marginal_rows,
    mc_fairness,
    mc_outcome_mean,
    random_instance,
    side_child_model,
)


def test_chain_frozen_values():
    model, arms = chain_model()
    mu = [exact_outcome_mean(model, a) for a in arms]
    np.testing.assert_allclose(mu, [0.508, 0.570, 8.0 / 15.0], rtol=0, atol=1e-12)
    z = [exact_fairness(model, a, "ssp") for a in arms]
    np.testing.assert_allclose(z, [-0.13, -0.35, 0.0], rtol=0, atol=1e-12)


def test_side_child_frozen_values():
    model, arms = side_child_model()
    mu = [exact_outcome_mean(model, a) for a in arms]
    np.testing.assert_allclose(mu, [0.4525, 0.4525], rtol=0, atol=1e-12)
    z = [exact_fairness(model, a, "ssp") for a in arms]
    np.testing.assert_allclose(z, [-0.225, 0.175], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_exact_matches_brute_force(seed):
    inst = random_instance(np.random.default_rng(seed))
    for arm in inst.arms:
        assert exact_outcome_mean(inst.model, arm) == pytest.approx(
            brute_mean(inst.model, arm), abs=1e-10
        )
        for direction in ("ssp", "sps"):
            assert exact_fairness(inst.model, arm, direction) == pytest.approx(
                brute_fairness(inst.model, arm, direction), abs=1e-10
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_directions_negate_for_root_sensitive(seed):
    # With a parentless sensitive node the two counterfactual directions are
    # exact negatives; only their estimators differ.
    inst = random_instance(np.random.default_rng(seed))
    for arm in inst.arms:
        assert exact_fairness(inst.model, arm, "ssp") == pytest.approx(
            -exact_fairness(inst.model, arm, "sps"), abs=1e-12
        )


def test_direction_values():
    assert direction_values("ssp") == (0, 1)
    assert direction_values("sps") == (1, 0)
    with pytest.raises(ValueError):
        direction_values("spsp")


def test_enumerate_joint_total_mass():
    model, arms = chain_model()
    for force in (None, 0, 1):
        total = sum(float(p.sum()) for p, _ in enumerate_joint(model, arms[1], ["Y"], force_s=force))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_rows():
    model, _ = chain_model()
    np.testing.assert_allclose(marginal_rows(model, "V"), [0.4, 0.6], atol=1e-12)
    np.testing.assert_allclose(marginal_rows(model, "Y"), [0.32, 0.42, 0.26], atol=1e-12)
    np.testing.assert_allclose(marginal_rows(model, "S"), [1.0], atol=0)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.delenv("FCB_ENUM_CAP", raising=False)
    assert enumeration_cap() == DEFAULT_ENUM_CAP
    monkeypatch.setenv("FCB_ENUM_CAP", "4")
    model, arms = chain_model()
    with pytest.raises(EnumerationTooLarge):
        exact_outcome_mean(model, arms[0])
    monkeypatch.setenv("FCB_ENUM_CAP", "0")
    with pytest.raises(ValueError):
        enumeration_cap()


def test_oracle_report_chain():
    model, arms = chain_model()
    report = oracle_report(Instance(model=model, arms=arms), fairness_eps=0.2)
    assert report["mode"] == "exact"
    assert report["fairness_eps"] == 0.2
    assert report["fair"] == [0, 2]
    assert report["best_fair"] == 2
    assert report["fair_gaps"][2] == 0.0
    assert report["fair_gaps"][0] == pytest.approx(8.0 / 15.0 - 0.508, abs=1e-12)
    assert report["xi_star"] == pytest.approx(0.07, abs=1e-12)
    assert report["degenerate"] is False


def test_oracle_report_tie_rule():
    model, arms = chain_model()
    twins = (arms[0], Arm(index=1, table=arms[0].table.copy()))
    report = oracle_report(Instance(model=model, arms=twins), fairness_eps=0.2)
    # Ties break toward the lowest arm index and are reported as degenerate.
    assert report["best_fair"] == 0
    assert report["degenerate"] is True


def test_oracle_report_no_fair_arm():
    model, arms = side_child_model()
    report = oracle_report(Instance(model=model, arms=arms), fairness_eps=0.05)
    assert report["fair"] == []
    assert report["best_fair"] is None
    assert report["fair_gaps"] == {}
    assert report["xi_star"] == pytest.approx(0.125, abs=1e-12)
    assert report["degenerate"] is False


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_report_consistency(seed):
    inst = random_instance(np.random.default_rng(seed))
    eps = 0.15
    report = oracle_report(inst, fairness_eps=eps)
    for k in report["fair"]:
        assert abs(report["zeta_ssp"][k]) < eps and abs(report["zeta_sps"][k]) < eps
    if report["fair"]:
        best = report["best_fair"]
        assert best in report["fair"]
        assert all(gap >= 0.0 for gap in report["fair_gaps"].values())
        assert report["fair_gaps"][best] == 0.0
    else:
        assert report["best_fair"] is None
    assert report["xi_star"] >= 0.0


def test_mc_oracles_approach_exact():
    model, arms = chain_model()
    rng = np.random.default_rng(7)
    assert mc_outcome_mean(model, arms[1], 200_000, rng) == pytest.approx(0.570, abs=0.01)
    assert mc_fairness(model, arms[1], "ssp", 200_000, rng) == pytest.approx(-0.35, abs=0.03)
    assert mc_fairness(model, arms[1], "sps", 200_000, rng) == pytest.approx(0.35, abs=0.03)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), None])
def test_oracle_report_rejects_a_bad_fairness_tolerance(eps):
    model, arms = chain_model()
    with pytest.raises(ValueError, match="fairness_eps"):
        oracle_report(Instance(model=model, arms=arms), fairness_eps=eps)


def _assert_report_matches_the_references(instance):
    """The report agrees with the per-arm enumeration references to 1e-12, and
    each gap is bit for bit the arm's forced cell law against y times the
    arm's counterfactual weight against itself."""
    model, arms = instance.model, instance.arms
    report = oracle_report(instance, 0.2)
    np.testing.assert_allclose(
        report["mu"], [exact_outcome_mean(model, a) for a in arms], rtol=0.0, atol=1e-12)
    tables = sampling.instance_tables(model, arms)
    laws, cells = tables.laws, tables.cells
    for direction, regime in (("ssp", Regime.FORCE_SPRIME), ("sps", Regime.FORCE_S)):
        np.testing.assert_allclose(
            report[f"zeta_{direction}"], [exact_fairness(model, a, direction) for a in arms],
            rtol=0.0, atol=1e-12, err_msg=direction,
        )
        r, want = REGIMES.index(regime), []
        for k, arm in enumerate(arms):
            at = np.flatnonzero(laws[k, r])
            with np.errstate(divide="ignore", invalid="ignore"):
                u = counterfactual_weight(cells, arm.table, arm.table, direction)[at]
            want.append(float(laws[k, r, at] @ (cells.y[at] * u)))
        assert np.array(report[f"zeta_{direction}"]).tobytes() == np.array(want).tobytes(), direction


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_enumerate_arms_rows_are_the_one_arm_enumerations(seed):
    # Every arm's row is bit for bit its own enumeration, forced or not, with
    # V inside the closure (Y's) and outside it (V's parents only); the
    # report, which reduces the cell laws, agrees with the per-arm
    # enumeration references to 1e-12.
    inst = random_instance(np.random.default_rng(seed))
    model, arms = inst.model, inst.arms
    tables = np.stack([a.table for a in arms])
    for needed in ([model.target], [*model.parents[model.intervention], "S"]):
        for force_s in (None, 0, 1):
            blocks = list(enumerate_arms(model, tables, needed, force_s))
            for k, arm in enumerate(arms):
                (probs, values), = list(enumerate_joint(model, arm, needed, force_s))
                (all_probs, all_values), = blocks
                np.testing.assert_array_equal(all_probs[k], probs)
                assert all_values.keys() == values.keys()
    _assert_report_matches_the_references(inst)


@pytest.mark.parametrize("workload", sorted(BENCH_INSTANCES))
def test_oracle_report_matches_the_enumeration_references(workload):
    instance = BENCH_INSTANCES[workload]()
    _assert_report_matches_the_references(instance)


def test_oracle_report_matches_the_enumeration_references_on_the_fixtures():
    for build in (chain_model, side_child_model):
        model, arms = build()
        _assert_report_matches_the_references(Instance(model=model, arms=arms))
    _assert_report_matches_the_references(liver_experiment(3))
