"""Divergence cutoff matrices and the quantiles they must dominate."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from faircb import divergence, sampling
from faircb.divergence import DivergenceSet, _logsumexp
from faircb.model import Arm, CausalModel
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import (
    chain_model,
    conditional_f_divergence,
    count_kernel_builds,
    empirical_quantile_eta,
    empirical_quantile_gamma,
    f1,
    BENCH_INSTANCES,
    random_instance,
    reference_divergence_set,
)

# Frozen by explicit cell-by-cell arithmetic over the chain fixture.
CHAIN_DF1_10 = 0.5730287944613754
CHAIN_M_10 = 1.4530029293513036
CHAIN_D_SSP_11 = 4.664381051231398


def test_f1_generator():
    assert f1(1.0) == 0.0
    assert f1(0.0) == -1.0
    assert f1(2.0) == pytest.approx(2.0 * math.e - 1.0, rel=1e-15)
    xs = f1(np.array([0.5, 1.0, 1.5]))
    assert xs.shape == (3,)
    # Convexity with minimum mass at x = 0 keeps divergences nonnegative.
    mid = 0.5 * (f1(0.4) + f1(1.8))
    assert f1(0.5 * (0.4 + 1.8)) <= mid


def test_conditional_f_divergence_frozen():
    model, arms = chain_model()
    assert conditional_f_divergence(model, arms[1], arms[0]) == pytest.approx(
        CHAIN_DF1_10, abs=1e-12
    )
    assert conditional_f_divergence(model, arms[0], arms[0]) == pytest.approx(0.0, abs=1e-12)


def test_outcome_matrix_frozen_and_shape():
    model, arms = chain_model()
    m = DivergenceSet.exact(model, arms).m
    assert m.shape == (3, 3)
    np.testing.assert_allclose(np.diag(m), 1.0, atol=0)
    assert m[1, 0] == pytest.approx(CHAIN_M_10, abs=1e-12)
    assert np.all(m >= 1.0)


def test_fairness_matrix_frozen():
    model, arms = chain_model()
    d = DivergenceSet.exact(model, arms).d_ssp
    assert d[1, 1] == pytest.approx(CHAIN_D_SSP_11, abs=1e-12)
    # Against itself each weight is |ratio - 1| >= 0, so every entry >= ln 2.
    assert np.all(d >= math.log(2.0) - 1e-12)


def test_fairness_matrix_independent_recomputation():
    model, arms = chain_model()
    t1, t0 = arms[1].table, arms[0].table
    d = DivergenceSet.exact(model, arms).d_ssp
    parts = []
    for a in (0, 1):
        total = 0.0
        for v in range(3):
            w_v = t1[a, v] / t0[a, v]
            ratio = t1[0, v] / t1[1, v]
            total += t1[a, v] * math.exp(abs(w_v * (ratio - 1.0)))
        parts.append(total)
    assert d[1, 0] == pytest.approx(math.log(parts[0] + parts[1]), abs=1e-12)


def test_logsumexp_stability_under_extreme_ratios():
    model = CausalModel(
        nodes=("S", "V", "Y"),
        cards={"S": 2, "V": 2, "Y": 2},
        parents={"S": (), "V": (), "Y": ("S", "V")},
        cpts={
            "S": np.array([[0.5, 0.5]]),
            "V": np.array([[0.5, 0.5]]),
            "Y": np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = (
        Arm(index=0, table=np.array([[0.9999, 0.0001]])),
        Arm(index=1, table=np.array([[0.0001, 0.9999]])),
    )
    with np.errstate(over="raise"):
        ds = DivergenceSet.exact(model, arms)
    assert all(np.all(np.isfinite(x)) for x in (ds.m, ds.d_ssp, ds.d_sps))
    # The huge cell dominates: ln E[w exp(w - 1)] ~ ln p + ln w + w - 1.
    w = 0.9999 / 0.0001
    dominant = math.log(0.0001) + math.log(w) + w - 1.0
    assert ds.m[0, 1] == pytest.approx(1.0 + dominant, abs=1e-6)


@st.composite
def _lse_inputs(draw):
    """Float arrays of 1 to 3 axes with -inf entries, -inf rows, ties and huge entries."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7))
    special = st.sampled_from([-np.inf, 0.0, 1.0, 709.0, 709.78, 709.79, 710.0, 1e300, -745.2])
    elements = st.one_of(st.floats(-800.0, 800.0), special)
    a = draw(hnp.arrays(np.float64, shape, elements=elements))
    rows = draw(hnp.arrays(np.bool_, shape[:-1]))
    a[rows] = -np.inf
    return a


@settings(max_examples=300, deadline=None)
@given(_lse_inputs())
def test_logsumexp_port_is_scipy_bit_for_bit(a):
    got = np.asarray(_logsumexp(a))
    want = np.asarray(logsumexp(a, axis=-1))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_logsumexp_port_edge_rows():
    a = np.array([
        [-np.inf, -np.inf, -np.inf],
        [2.0, 2.0, 2.0],
        [709.78, 709.78, -np.inf],
        [1e308, 1e308, 0.0],
        [np.inf, 0.0, 1.0],
    ])
    got = _logsumexp(a)
    assert got.tobytes() == logsumexp(a, axis=-1).tobytes()
    assert got[0] == -np.inf and got[-1] == np.inf


def _assert_matches_reference(model, arms):
    got = DivergenceSet.exact(model, arms)
    want = reference_divergence_set(model, arms)
    for name in ("m", "d_ssp", "d_sps"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-12, err_msg=name
        )
    np.testing.assert_array_equal(np.diag(got.m), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_divergence_set_exact_matches_pairwise_reference_random(seed):
    inst = random_instance(np.random.default_rng(seed))
    _assert_matches_reference(inst.model, inst.arms)


def test_divergence_set_exact_matches_pairwise_reference_fixtures():
    _assert_matches_reference(*chain_model())
    inst = generate_synthetic(
        SyntheticConfig(n_arms=4, support=5, seed=2, fairness_eps=0.5,
                        fairness_gap_band=(0.3, 0.45), reward_gap_band=(0.05, 0.15))
    )
    _assert_matches_reference(inst.model, inst.arms)


@pytest.mark.parametrize("workload", sorted(BENCH_INSTANCES))
def test_divergence_set_exact_matches_pairwise_reference_on_the_bench_instances(workload):
    instance = BENCH_INSTANCES[workload]()
    _assert_matches_reference(instance.model, instance.arms)


# sha256 prefixes of the m, d_ssp and d_sps bytes of DivergenceSet.exact.
EXACT_PINS = {
    "band-k5": "d2092f0485979c13",
    "liver-k10": "580533434a04be17",
    "synth-k30": "01e81240988ddce3",
}


@pytest.mark.parametrize("workload", sorted(EXACT_PINS))
def test_divergence_set_exact_is_pinned_on_the_bench_instances(workload):
    """The exact matrices of the three benchmark instances, byte for byte.

    Unrounded: a reordered sum or a reduction split differently moves the
    last bits, and every run's cutoffs read these matrices.
    """
    instance = BENCH_INSTANCES[workload]()
    ds = DivergenceSet.exact(instance.model, instance.arms)
    h = hashlib.sha256()
    for name in ("m", "d_ssp", "d_sps"):
        h.update(getattr(ds, name).tobytes())
    assert h.hexdigest()[:16] == EXACT_PINS[workload]


def test_warm_divergences_work_out_no_weight(monkeypatch):
    # From a cold memo, one exact call works the weight factors out once and
    # builds the kernel from them once; a warm call does neither.
    weight_factors = sampling._weight_factors
    calls = []

    def counted(*args):
        calls.append(args)
        return weight_factors(*args)

    monkeypatch.setattr(sampling, "_weight_factors", counted)
    builds = count_kernel_builds(monkeypatch)
    model, arms = chain_model()
    DivergenceSet.exact(model, arms)
    assert (len(calls), len(builds)) == (1, 1)
    DivergenceSet.exact(model, arms)
    assert (len(calls), len(builds)) == (1, 1)


def test_quantile_frozen_values_and_validation():
    model, arms = chain_model()
    # P_1 masses over w = P_1/P_0: {0.5: 0.10, 0.6: 0.18, 1.0: 0.12, 1.2: 0.24, 2.0: 0.36}.
    assert empirical_quantile_eta(model, arms[1], arms[0], 1.0) == pytest.approx(1.2)
    assert empirical_quantile_eta(model, arms[1], arms[0], 0.5) == pytest.approx(2.0)
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            empirical_quantile_eta(model, arms[1], arms[0], bad)
        with pytest.raises(ValueError):
            empirical_quantile_gamma(model, arms[1], arms[0], bad, "ssp")


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.125])
def test_cutoffs_dominate_quantiles_chain(eps):
    model, arms = chain_model()
    ds = DivergenceSet.exact(model, arms)
    cap = 2.0 * math.log(2.0 / eps)
    for i in range(3):
        for j in range(3):
            assert empirical_quantile_eta(model, arms[i], arms[j], eps) <= cap * ds.m[i, j] + 1e-12
            for direction, mat in (("ssp", ds.d_ssp), ("sps", ds.d_sps)):
                gamma = empirical_quantile_gamma(model, arms[i], arms[j], eps, direction)
                assert gamma <= cap * mat[i, j] + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 0.25]))
def test_cutoffs_dominate_quantiles_random(seed, eps):
    inst = random_instance(np.random.default_rng(seed))
    model, arms = inst.model, inst.arms
    ds = DivergenceSet.exact(model, arms)
    cap = 2.0 * math.log(2.0 / eps)
    for i in range(len(arms)):
        for j in range(len(arms)):
            assert empirical_quantile_eta(model, arms[i], arms[j], eps) <= cap * ds.m[i, j] + 1e-12
            for direction, mat in (("ssp", ds.d_ssp), ("sps", ds.d_sps)):
                gamma = empirical_quantile_gamma(model, arms[i], arms[j], eps, direction)
                assert gamma <= cap * mat[i, j] + 1e-12


def count_reductions(monkeypatch) -> list:
    """The laws reduced to exact matrices from here on, from a cold tables memo."""
    reduce = divergence.reduce_cell_laws
    reductions = []

    def counted(laws, kernel):
        reductions.append(laws)
        return reduce(laws, kernel)

    monkeypatch.setattr(divergence, "reduce_cell_laws", counted)
    sampling._TABLES.clear()
    return reductions


def test_equal_instances_built_apart_reduce_once(monkeypatch):
    reductions = count_reductions(monkeypatch)
    (model_a, arms_a), (model_b, arms_b) = chain_model(), chain_model()
    a = DivergenceSet.exact(model_a, arms_a)
    b = DivergenceSet.exact(model_b, arms_b)
    assert len(reductions) == 1
    for name in ("m", "d_ssp", "d_sps"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert not np.shares_memory(getattr(a, name), getattr(b, name))
    with pytest.raises(ValueError, match="read-only"):
        sampling.instance_tables(model_a, arms_a).divergences[0][0, 1] = 2.0


def test_editing_returned_matrices_does_not_reach_the_next_exact(monkeypatch):
    reductions = count_reductions(monkeypatch)
    model, arms = chain_model()
    first = DivergenceSet.exact(model, arms)
    want = first.m.copy()
    first.m[0, 1] = 99.0
    first.d_ssp *= 2.0
    again = DivergenceSet.exact(model, arms)
    assert len(reductions) == 1
    np.testing.assert_array_equal(again.m, want)
    np.testing.assert_array_equal(again.d_ssp, first.d_ssp / 2.0)


def test_editing_an_arm_table_in_place_gives_new_matrices(monkeypatch):
    reductions = count_reductions(monkeypatch)
    model, arms = chain_model()
    before = DivergenceSet.exact(model, arms)
    arms[1].table[0] = [0.2, 0.2, 0.6]
    after = DivergenceSet.exact(model, arms)
    assert len(reductions) == 2
    assert not np.array_equal(before.m, after.m)
    assert not np.array_equal(before.d_ssp, after.d_ssp)
    np.testing.assert_allclose(after.m, reference_divergence_set(model, arms).m, rtol=1e-12)
