"""Tests for the synthetic instance generator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircb import synth
from faircb.divergence import DivergenceSet
from faircb.errors import GenerationFailed
from faircb.io import instance_digest
from faircb.model import Arm, ValidationReport, validate_model
from faircb.oracles import oracle_report
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import BENCH_INSTANCES, random_instance

LOW_BAND = SyntheticConfig(
    n_arms=5,
    support=4,
    seed=3,
    fairness_eps=0.5,
    fairness_gap_band=(0.3, 0.45),
    reward_gap_band=(0.05, 0.15),
    divergence_band=(1.0, 10.0),
)


@pytest.fixture(scope="module")
def low_band_instance():
    return generate_synthetic(LOW_BAND)


def test_generated_instance_validates(low_band_instance):
    inst = low_band_instance
    assert validate_model(inst.model, inst.arms).ok
    assert inst.observed == ("S", "V", "Y")
    assert inst.name == "synthetic-K5-m4-seed3"
    assert inst.fairness_eps == 0.5
    assert len(inst.arms) == 5
    np.testing.assert_array_equal(inst.arms[0].table, inst.model.cpts["V"])
    # The sensitive attribute is an unbiased coin in this family.
    np.testing.assert_array_equal(inst.model.cpts["S"], [[0.5, 0.5]])


def test_band_endpoints_are_hit_exactly(low_band_instance):
    report = oracle_report(low_band_instance, 0.5)
    glo, ghi = LOW_BAND.reward_gap_band
    blo, bhi = LOW_BAND.fairness_gap_band
    # The tightest fairness margin and the tightest reward gap land exactly
    # on the low band endpoints; everything else stays inside the bands.
    assert report["xi_star"] == pytest.approx(blo, abs=1e-9)
    gaps = [report["fair_gaps"][k] for k in report["fair"] if k != report["best_fair"]]
    assert min(gaps) == pytest.approx(glo, abs=1e-9)
    assert all(glo - 1e-9 <= g <= ghi + 1e-9 for g in gaps)
    for k in range(5):
        dist = min(
            abs(abs(report["zeta_ssp"][k]) - 0.5),
            abs(abs(report["zeta_sps"][k]) - 0.5),
        )
        assert blo - 1e-9 <= dist <= bhi + 1e-9


def test_divergence_band_low(low_band_instance):
    div = DivergenceSet.exact(low_band_instance.model, low_band_instance.arms)
    cols = np.concatenate([div.m[1:, 0], div.d_ssp[1:, 0], div.d_sps[1:, 0]])
    assert (cols > 1.0).all() and (cols < 10.0).all()


def test_divergence_band_generation_is_frozen(low_band_instance):
    # Each attempt is accepted or rejected on the exact divergence columns, so
    # last-digit drift in the divergence arithmetic must leave the returned
    # instance unchanged.
    assert instance_digest(low_band_instance) == "b8187a2ab2fce0cd"


def test_divergence_band_high():
    config = SyntheticConfig(
        n_arms=5,
        support=6,
        seed=4,
        fairness_eps=0.5,
        fairness_gap_band=(0.3, 0.45),
        reward_gap_band=(0.3, 0.45),
        divergence_band=(10.0, 50.0),
    )
    inst = generate_synthetic(config)
    div = DivergenceSet.exact(inst.model, inst.arms)
    cols = np.concatenate([div.m[1:, 0], div.d_ssp[1:, 0], div.d_sps[1:, 0]])
    assert (cols > 10.0).all() and (cols < 50.0).all()
    # The band-k5 benchmark instance: the band check rejects hundreds of
    # draws before this one, so any change to what it reads moves the digest.
    assert instance_digest(inst) == "8cec750594dab990"


def test_large_instance_is_pinned():
    # The synth-k30 benchmark instance, without a divergence band.
    config = SyntheticConfig(
        n_arms=30,
        support=20,
        seed=5,
        reward_gap_band=(0.02, 0.06),
        fairness_gap_band=(1.93, 1.99),
    )
    assert instance_digest(generate_synthetic(config)) == "a45c3686c4a34ba0"


def _assert_columns_match(model, arms, source):
    # The band reads column ``source`` of the full build; each entry of it is
    # a function of the target and the source arm alone, so the two-arm
    # build of that pair gives it too, up to rounding.
    div = DivergenceSet.exact(model, arms)
    for i, arm in enumerate(arms):
        pair = DivergenceSet.exact(model, [arm, arms[source]])
        for name in ("m", "d_ssp", "d_sps"):
            full = getattr(div, name)[i, source]
            assert getattr(pair, name)[0, 1 if i != source else 0] == pytest.approx(
                full, rel=1e-12, abs=1e-12), (name, i)


@pytest.mark.parametrize("seed", range(8))
def test_band_columns_equal_the_full_build(seed):
    inst = random_instance(np.random.default_rng(seed))
    _assert_columns_match(inst.model, inst.arms, 0)
    _assert_columns_match(inst.model, inst.arms, len(inst.arms) - 1)


def test_band_columns_equal_the_full_build_on_low_band(low_band_instance):
    _assert_columns_match(low_band_instance.model, low_band_instance.arms, 0)


@settings(max_examples=40, deadline=None)
@given(
    support=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    params=st.lists(
        st.tuples(*[st.floats(synth._PARAM_LO, synth._PARAM_HI)] * 2), min_size=2, max_size=8
    ),
)
# A one-row stack once gave this example's M[1, 0] one ulp above the full build's.
@example(support=7, seed=0, params=[(0.109375, 0.75), (0.109375, 0.75)])
def test_early_band_check_is_row_k_of_the_column(support, seed, params):
    # The generator prefilters a draw on M[k, 0] of one arm at a time, in
    # closed form; that value must lie far within the prefilter's slack of
    # the full build's entry, or the prefilter could reject a draw that the
    # exact check keeps.
    f = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, size=support))
    tables = []
    for c, d in params:
        table = np.vstack([synth._binom_row(support, c), synth._binom_row(support, d)])
        tables.append(table / table.sum(axis=1, keepdims=True))
    config = SyntheticConfig(n_arms=len(params), support=support)
    model = synth._build_model(config, f, tables[0].copy())
    arms = [Arm(k, table) for k, table in enumerate(tables)]
    full = DivergenceSet.exact(model, arms).m[:, 0]
    for k in range(1, len(arms)):
        early = synth._m_to_deployed(tables[0], tables[k])
        assert abs(early - full[k]) <= 1e-3 * synth._BAND_SLACK * abs(full[k])


def test_band_k5_inverts_each_arm_only_until_its_draw_fails(monkeypatch):
    # Before the per-arm band check, every one of the 290 attempts inverted
    # all 2K parameters (2900 calls) and validated its tables.
    invert, validate = synth._invert_g, synth.validate_model
    inversions, validated = [], []

    def counted_invert(g, bracket, target):
        inversions.append(target)
        return invert(g, bracket, target)

    def counted_validate(model, arms):
        validated.append((model, arms))
        return validate(model, arms)

    monkeypatch.setattr(synth, "_invert_g", counted_invert)
    monkeypatch.setattr(synth, "validate_model", counted_validate)
    inst = BENCH_INSTANCES["band-k5"]()
    assert len(inversions) <= 1400
    assert len(validated) == 1
    model, arms = validated[0]
    assert model is inst.model
    assert all(a is b for a, b in zip(arms, inst.arms, strict=True))


def test_a_draw_that_fails_validation_is_never_returned(monkeypatch):
    config = replace(LOW_BAND, max_attempts=30)
    generate_synthetic(config)  # passes the bands within these attempts
    validated = []

    def failing(model, arms):
        validated.append(model)
        return ValidationReport(False, ("rejected",))

    monkeypatch.setattr(synth, "validate_model", failing)
    with pytest.raises(GenerationFailed, match="30 attempts"):
        generate_synthetic(config)
    assert validated


def test_unfair_count_is_respected():
    config = SyntheticConfig(
        n_arms=5,
        support=4,
        seed=1,
        fairness_eps=0.2,
        fairness_gap_band=(0.1, 0.15),
        reward_gap_band=(0.05, 0.15),
        n_unfair=2,
    )
    inst = generate_synthetic(config)
    report = oracle_report(inst, 0.2)
    unfair = [k for k in range(5) if k not in report["fair"]]
    assert len(unfair) == 2
    assert 0 in report["fair"]
    for k in unfair:
        assert min(abs(report["zeta_ssp"][k]), abs(report["zeta_sps"][k])) > 0.2
    # One unfair arm tempts the learner: it beats the best fair arm by
    # exactly the low reward-gap endpoint.
    best = report["best_fair"]
    lead = max(report["mu"][k] - report["mu"][best] for k in unfair)
    assert lead == pytest.approx(0.05, abs=1e-9)


def test_all_unfair_has_no_best_arm():
    config = SyntheticConfig(
        n_arms=4,
        support=4,
        seed=2,
        fairness_eps=0.1,
        fairness_gap_band=(0.3, 0.4),
        reward_gap_band=(0.05, 0.15),
        n_unfair=4,
    )
    inst = generate_synthetic(config)
    report = oracle_report(inst, 0.1)
    assert report["fair"] == []
    assert report["best_fair"] is None
    assert report["xi_star"] == pytest.approx(0.3, abs=1e-9)


def test_cheap_arm_costs():
    base = dict(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
    )
    cheap = generate_synthetic(SyntheticConfig(**base, cheap_arm=True))
    assert cheap.cheap_arm_constraint
    assert [a.cost_pull for a in cheap.arms] == [0.0, 1.0, 1.0]
    assert [a.cost_force_s for a in cheap.arms] == [0.0, 1.0, 1.0]
    assert [a.cost_force_sprime for a in cheap.arms] == [0.0, 1.0, 1.0]
    flat = generate_synthetic(SyntheticConfig(**base, cheap_arm=False))
    assert not flat.cheap_arm_constraint
    assert [a.cost_pull for a in flat.arms] == [1.0, 1.0, 1.0]


def test_f_values_override_lands_in_outcome_table():
    f = (0.1, 0.4, 0.6, 0.9)
    config = SyntheticConfig(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
        f_values=f,
    )
    inst = generate_synthetic(config)
    table = inst.model.cpts["Y"]
    for v, fv in enumerate(f):
        np.testing.assert_allclose(table[2 * v], (fv, 1.0 - fv), atol=1e-12)
        np.testing.assert_allclose(table[2 * v + 1], (1.0 - fv, fv), atol=1e-12)


def test_generation_is_deterministic():
    a = generate_synthetic(LOW_BAND)
    b = generate_synthetic(LOW_BAND)
    for arm_a, arm_b in zip(a.arms, b.arms):
        np.testing.assert_array_equal(arm_a.table, arm_b.table)
    shifted = generate_synthetic(
        SyntheticConfig(
            n_arms=5,
            support=4,
            seed=4,
            fairness_eps=0.5,
            fairness_gap_band=(0.3, 0.45),
            reward_gap_band=(0.05, 0.15),
            divergence_band=(1.0, 10.0),
        )
    )
    assert not np.array_equal(shifted.arms[1].table, a.arms[1].table)


def test_impossible_band_fails_fast():
    config = SyntheticConfig(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
        divergence_band=(0.0001, 0.0002),
        max_attempts=50,
    )
    with pytest.raises(GenerationFailed, match="50 attempts"):
        generate_synthetic(config)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_arms": 1}, "n_arms"),
        ({"support": 1}, "support"),
        ({"epsilon_param": 0.5}, "epsilon_param"),
        ({"epsilon_param": 1.01}, "epsilon_param"),
        ({"fairness_eps": 0.0}, "fairness_eps"),
        ({"reward_gap_band": (0.3, 0.2)}, "low < high"),
        ({"divergence_band": (5.0, 5.0)}, "low < high"),
        ({"reward_gap_band": (0.0, 0.2)}, "reward gaps"),
        ({"fairness_gap_band": (0.0, 0.4)}, "fairness gaps"),
        ({"n_unfair": -1}, "n_unfair"),
        ({"n_unfair": 31}, "n_unfair"),
        ({"fairness_eps": 0.5, "fairness_gap_band": (0.6, 0.7)}, "no larger than"),
        ({"support": 3, "f_values": (0.1, 0.9)}, "one entry per"),
        ({"support": 3, "f_values": (0.9, 0.5, 0.1)}, "nondecreasing"),
        ({"support": 3, "f_values": (0.4, 0.4, 0.4)}, "nondecreasing"),
        ({"support": 3, "f_values": (0.1, 0.5, 1.1)}, "lie in"),
        ({"fairness_eps": -0.5}, "fairness_eps"),
        ({"fairness_eps": float("nan")}, "fairness_eps"),
        ({"fairness_eps": float("inf")}, "fairness_eps"),
        ({"max_attempts": 0}, "max_attempts"),
    ],
)
def test_config_validation_errors(overrides, message):
    config = SyntheticConfig(**overrides)
    with pytest.raises(ValueError, match=message):
        config.validate()
