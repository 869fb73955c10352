"""Pooled clipped estimators: pooling algebra, bias brackets, missing semantics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircb.divergence import DivergenceSet
from faircb.estimation import SamplePool, estimate_all
from faircb.model import REGIMES, Arm, CausalModel, Regime
from faircb import sampling
from faircb.sampling import BatchSamples, Cells

from helpers import (
    CellBatch,
    NoSamples,
    ReferencePool,
    blockwise_estimate_all,
    blockwise_pulled_blocks,
    chain_model,
    clipped_fairness_expectation,
    clipped_outcome_expectation,
    exact_fairness,
    exact_outcome_mean,
    pooled_fairness_estimate,
    pooled_outcome_estimate,
    random_instance,
    sample_block,
    side_child_model,
)

EPS_GRID = (1.0, 0.5, 0.25, 0.125)


def fill_pools(model, arms, per_regime, rng) -> tuple[SamplePool, ReferencePool]:
    """The same pulls in a per-cell pool and in a per-pull reference pool."""
    pool, ref = SamplePool(sampling.instance_tables(model, arms)), ReferencePool(len(arms))
    for arm in arms:
        for regime in Regime:
            batch = sample_block(model, arm, regime, per_regime, rng)
            pool.add(batch)
            ref.add(batch)
    return pool, ref


def test_pool_bookkeeping():
    model, arms = chain_model()
    rng = np.random.default_rng(0)
    pool = SamplePool(sampling.instance_tables(model, arms))
    pool.add(sample_block(model, arms[0], Regime.OBSERVATIONAL, 7, rng))
    pool.add(sample_block(model, arms[0], Regime.OBSERVATIONAL, 5, rng))
    pool.add(sample_block(model, arms[2], Regime.FORCE_S, 4, rng))
    pool.add(sample_block(model, arms[1], Regime.FORCE_SPRIME, 1, rng))
    assert pool.counts(Regime.OBSERVATIONAL)[0] == 12
    assert pool.counts(Regime.FORCE_S)[2] == 4
    np.testing.assert_array_equal(pool.counts(Regime.OBSERVATIONAL), [12, 0, 0])
    np.testing.assert_array_equal(pool.counts(Regime.FORCE_SPRIME), [0, 1, 0])
    blocks = pool.pulled()
    assert [(j, REGIMES[r]) for j, r in zip(blocks.arms.tolist(), blocks.regimes.tolist())] == [
        (0, Regime.OBSERVATIONAL), (1, Regime.FORCE_SPRIME), (2, Regime.FORCE_S)]
    assert blocks.pulls.tolist() == [12, 1, 4]
    size = int(blocks.sizes[0])
    assert 0 < size <= 12  # the chain model has 12 cells
    assert blocks.sizes.sum() == blocks.cy.shape[0] == blocks.weights.shape[0]
    assert blocks.weights[:size].T.shape == (3, size)
    # A zero-length batch draws no entry, so it marks no block as pulled.
    pool.add(sample_block(model, arms[1], Regime.OBSERVATIONAL, 0, rng))
    assert pool.counts(Regime.OBSERVATIONAL)[1] == 0
    assert len(pool.pulled().arms) == 3


def test_estimate_all_reads_only_the_pulled_block(monkeypatch):
    model, arms = chain_model()
    div = DivergenceSet.exact(model, arms)
    rng = np.random.default_rng(3)
    for j, arm in enumerate(arms):
        for r, regime in enumerate(Regime):
            pool = SamplePool(sampling.instance_tables(model, arms))
            pool.add(sample_block(model, arm, regime, 50, rng))
            read = []
            pulled = pool.pulled
            monkeypatch.setattr(pool, "pulled", lambda: read.append(pulled()) or read[-1])
            vec = estimate_all(pool, 0.5, div)
            [blocks] = read
            assert list(zip(blocks.arms.tolist(), blocks.regimes.tolist())) == [(j, r)]
            n_eff = (vec.n_eff_y, vec.n_eff_sps, vec.n_eff_ssp)
            estimates = (vec.y, vec.zeta_sps, vec.zeta_ssp)
            cutoffs = (div.m, div.d_sps, div.d_ssp)
            for row in range(3):
                if row == r:
                    np.testing.assert_array_equal(n_eff[row], 50 / cutoffs[row][:, j])
                    assert not np.isnan(estimates[row]).any()
                else:
                    assert not n_eff[row].any() and np.isnan(estimates[row]).all()


def test_estimate_all_matches_single_target():
    model, arms = chain_model()
    div = DivergenceSet.exact(model, arms)
    pool, ref = fill_pools(model, arms, 400, np.random.default_rng(1))
    for eps in (1.0, 0.25):
        vec = estimate_all(pool, eps, div)
        assert vec.eps == eps
        for k in range(3):
            assert vec.y[k] == pytest.approx(
                pooled_outcome_estimate(ref, arms, k, eps, div.m), abs=1e-12
            )
            assert vec.zeta_ssp[k] == pytest.approx(
                pooled_fairness_estimate(ref, arms, k, eps, div.d_ssp, "ssp"), abs=1e-12
            )
            assert vec.zeta_sps[k] == pytest.approx(
                pooled_fairness_estimate(ref, arms, k, eps, div.d_sps, "sps"), abs=1e-12
            )


def _reference_or_nan(estimate, *args) -> float:
    try:
        return estimate(*args)
    except NoSamples:
        return math.nan


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_cell_pool_matches_per_pull_reference(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    model, arms = inst.model, inst.arms
    div = DivergenceSet.exact(model, arms)
    pool, ref = SamplePool(sampling.instance_tables(model, arms)), ReferencePool(len(arms))
    blocks = [(arm, regime) for arm in arms for regime in Regime]
    # Up to three adds per block; some blocks stay empty, so some estimates are missing.
    adds = [(arm, regime, int(n)) for arm, regime in blocks
            for n in rng.choice([0, 1, 3, 20, 150], size=int(rng.integers(0, 4)))]
    # At least one one-pull and one zero-length batch, next to a non-empty add of the same block.
    arm, regime = blocks[int(rng.integers(len(blocks)))]
    adds += [(arm, regime, 1), (arm, regime, 0), (arm, regime, 12)]
    for arm, regime, n in adds:
        batch = sample_block(model, arm, regime, n, rng)
        pool.add(batch)
        ref.add(batch)
    for regime in Regime:
        np.testing.assert_array_equal(pool.counts(regime), [
            0 if ref.packed(j, regime) is None else ref.packed(j, regime).y.shape[0]
            for j in range(len(arms))
        ])
    for eps in EPS_GRID:
        vec = estimate_all(pool, eps, div)
        for name, got, estimate, extra in (
            ("y", vec.y, pooled_outcome_estimate, (div.m,)),
            ("ssp", vec.zeta_ssp, pooled_fairness_estimate, (div.d_ssp, "ssp")),
            ("sps", vec.zeta_sps, pooled_fairness_estimate, (div.d_sps, "sps")),
        ):
            want = [_reference_or_nan(estimate, ref, arms, k, eps, *extra) for k in range(len(arms))]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


def exact_estimator_mean_outcome(model, arms, k, eps, m, tau):
    z = sum(tau[j] / m[k, j] for j in range(len(arms)) if tau[j] > 0)
    acc = sum(
        tau[j] / m[k, j] * clipped_outcome_expectation(model, arms, k, j, eps, m[k, j])
        for j in range(len(arms))
        if tau[j] > 0
    )
    return acc / z


def exact_estimator_mean_fairness(model, arms, k, eps, d, tau, direction):
    o = sum(tau[j] / d[k, j] for j in range(len(arms)) if tau[j] > 0)
    acc = sum(
        tau[j] / d[k, j] * clipped_fairness_expectation(model, arms, k, j, eps, d[k, j], direction)
        for j in range(len(arms))
        if tau[j] > 0
    )
    return acc / o


@pytest.mark.parametrize("fixture", [chain_model, side_child_model])
def test_exact_bias_brackets(fixture):
    model, arms = fixture()
    div = DivergenceSet.exact(model, arms)
    rng = np.random.default_rng(5)
    for eps in EPS_GRID:
        for _ in range(3):
            tau = rng.integers(1, 50, size=len(arms))
            for k in range(len(arms)):
                mu = exact_outcome_mean(model, arms[k])
                mean_hat = exact_estimator_mean_outcome(model, arms, k, eps, div.m, tau)
                assert mean_hat <= mu + 1e-12
                assert mu - mean_hat <= eps / 2.0 + 1e-12
                for direction, dmat in (("ssp", div.d_ssp), ("sps", div.d_sps)):
                    zeta = exact_fairness(model, arms[k], direction)
                    mean_z = exact_estimator_mean_fairness(model, arms, k, eps, dmat, tau, direction)
                    assert abs(mean_z - zeta) <= eps / 2.0 + 1e-12


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_bias_brackets_random(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    model, arms = inst.model, inst.arms
    div = DivergenceSet.exact(model, arms)
    tau = rng.integers(1, 20, size=len(arms))
    for eps in (1.0, 0.25):
        for k in range(len(arms)):
            mu = exact_outcome_mean(model, arms[k])
            mean_hat = exact_estimator_mean_outcome(model, arms, k, eps, div.m, tau)
            assert mean_hat <= mu + 1e-12
            assert mu - mean_hat <= eps / 2.0 + 1e-12
            zeta = exact_fairness(model, arms[k], "ssp")
            mean_z = exact_estimator_mean_fairness(model, arms, k, eps, div.d_ssp, tau, "ssp")
            assert abs(mean_z - zeta) <= eps / 2.0 + 1e-12


def test_estimator_concentrates_on_exact_mean():
    model, arms = chain_model()
    div = DivergenceSet.exact(model, arms)
    pool, _ = fill_pools(model, arms, 2000, np.random.default_rng(17))
    eps = 0.25
    vec = estimate_all(pool, eps, div)
    tau = np.full(3, 2000)
    for k in range(3):
        assert vec.y[k] == pytest.approx(
            exact_estimator_mean_outcome(model, arms, k, eps, div.m, tau), abs=0.1
        )
        assert vec.zeta_ssp[k] == pytest.approx(
            exact_estimator_mean_fairness(model, arms, k, eps, div.d_ssp, tau, "ssp"), abs=0.15
        )


def test_missing_estimates_are_nan():
    model, arms = chain_model()
    div = DivergenceSet.exact(model, arms)
    pool, ref = SamplePool(sampling.instance_tables(model, arms)), ReferencePool(3)
    vec = estimate_all(pool, 0.5, div)
    assert np.all(np.isnan(vec.y))
    with pytest.raises(NoSamples):
        pooled_outcome_estimate(ref, arms, 0, 0.5, div.m)
    rng = np.random.default_rng(3)
    batch = sample_block(model, arms[0], Regime.OBSERVATIONAL, 50, rng)
    pool.add(batch)
    ref.add(batch)
    vec = estimate_all(pool, 0.5, div)
    # One observational source transports to every target arm.
    assert np.all(np.isfinite(vec.y))
    assert np.all(np.isnan(vec.zeta_ssp)) and np.all(np.isnan(vec.zeta_sps))
    with pytest.raises(NoSamples):
        pooled_fairness_estimate(ref, arms, 0, 0.5, div.d_ssp, "ssp")
    with pytest.raises(ValueError):
        pooled_fairness_estimate(ref, arms, 0, 0.5, div.d_ssp, "spsp")
    pool.add(sample_block(model, arms[1], Regime.FORCE_SPRIME, 50, rng))
    vec = estimate_all(pool, 0.5, div)
    assert np.all(np.isfinite(vec.zeta_ssp)) and np.all(np.isnan(vec.zeta_sps))


def single_context_model():
    model = CausalModel(
        nodes=("S", "V", "Y"),
        cards={"S": 2, "V": 2, "Y": 2},
        parents={"S": (), "V": (), "Y": ("S", "V")},
        cpts={
            "S": np.array([[0.5, 0.5]]),
            "V": np.array([[0.1, 0.9]]),
            "Y": np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = (
        Arm(index=0, table=np.array([[0.1, 0.9]])),
        Arm(index=1, table=np.array([[0.9, 0.1]])),
    )
    return model, arms


def test_clipping_drops_oversized_weights():
    model, arms = single_context_model()
    div = DivergenceSet.exact(model, arms)
    pool = ReferencePool(2)
    pool.add(
        # One hand-built pull of arm 0 at v = 0 with y = 1: the transported
        # weight onto arm 1 is 0.9 / 0.1 = 9.
        CellBatch(
            drawn=(np.array([0]), np.array([0])),
            counts=np.array([[1]]),
            cells=Cells(
                y=np.array([1.0]),
                v_row=np.array([0]),
                v_val=np.array([0]),
                v_row_s=np.array([0]),
                v_row_sp=np.array([0]),
                child_ratio=np.array([1.0]),
            ),
        )
    )
    wide = pooled_outcome_estimate(pool, arms, 1, 0.5, div.m)
    assert wide == pytest.approx(9.0, rel=1e-12)
    thr = 2.0 * math.log(2.0 / 1.5) * div.m[1, 0]
    assert thr < 9.0
    assert pooled_outcome_estimate(pool, arms, 1, 1.5, div.m) == 0.0


def estimate_bytes(pool, div) -> bytes:
    """The bytes of every estimate array of ``pool`` over the eps grid."""
    chunks = []
    for eps in EPS_GRID:
        vec = estimate_all(pool, eps, div)
        chunks += [arr.tobytes() for arr in (vec.y, vec.zeta_ssp, vec.zeta_sps)]
    return b"".join(chunks)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_estimates_do_not_depend_on_how_pulls_are_split_over_adds(seed):
    """A pool fed one phase's batch whole, or cut into pieces added in any order
    (entries apart, an entry's pulls split across adds, empty adds), gives the same bytes."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    model, arms = inst.model, inst.arms
    div = DivergenceSet.exact(model, arms)
    shape = (len(arms), len(REGIMES))
    sizes = rng.integers(0, 60, size=shape) * (rng.random(shape) < 0.7)
    tables = sampling.instance_tables(model, arms)
    batch = sampling.sample_batch(tables.laws, sizes, rng)
    whole = SamplePool(tables)
    whole.add(batch)
    # Each piece is one entry's share; a batch holds each (arm, regime) at most
    # once, so the two shares of an entry go to different adds.
    halves = [[], []]
    for j, r, counts in zip(*batch.drawn, batch.counts):
        part = rng.binomial(counts, rng.random())
        for half, share in zip(halves, (part, counts - part)):
            if share.any():
                half.append((j, r, share))
    split = SamplePool(tables)
    for half in (halves[i] for i in rng.permutation(2)):
        order = rng.permutation(len(half))
        for group in np.array_split(order, int(rng.integers(1, len(half) + 2))):
            split.add(BatchSamples(
                (np.array([half[i][0] for i in group], dtype=np.intp),
                 np.array([half[i][1] for i in group], dtype=np.intp)),
                np.array([half[i][2] for i in group], dtype=np.int64).reshape(len(group), tables.laws.shape[2]),
            ))
    for regime in Regime:
        np.testing.assert_array_equal(split.counts(regime), whole.counts(regime))
    assert estimate_bytes(split, div) == estimate_bytes(whole, div)


ESTIMATE_FIELDS = ("y", "zeta_ssp", "zeta_sps", "n_eff_y", "n_eff_ssp", "n_eff_sps")
ESTIMATE_FIXTURES = {"chain": chain_model, "side-child": side_child_model}


def layout(a: np.ndarray) -> tuple[bool, bool]:
    return a.flags.c_contiguous, a.flags.f_contiguous


def assert_blockwise_bytes(pool: SamplePool, div: DivergenceSet, kernel: np.ndarray) -> None:
    """The batched gather and estimates of ``pool`` are the blockwise ones, byte for byte,
    at every eps from 1 down to 2^-12, so clipping runs from heavy to none."""
    blocks = pool.pulled()
    ref = list(blockwise_pulled_blocks(pool, kernel))
    assert [(j, r) for j, r, *_ in ref] == list(zip(blocks.arms.tolist(), blocks.regimes.tolist()))
    ends = np.cumsum(blocks.sizes)
    for b, ((_, _, w, counts, y), lo, hi) in enumerate(zip(ref, ends - blocks.sizes, ends)):
        got = blocks.weights[lo:hi].T
        assert got.tobytes() == w.tobytes() and layout(got) == layout(w)
        assert blocks.cy[lo:hi].tobytes() == (counts * y).tobytes()
        assert blocks.pulls[b] == counts.sum()
    for e in range(13):
        got = estimate_all(pool, 2.0**-e, div)
        want = blockwise_estimate_all(pool, 2.0**-e, div, kernel)
        for name in ESTIMATE_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (e, name)


def random_rows(rng, laws: np.ndarray, drawn) -> np.ndarray:
    """Random count rows for the ``drawn`` entries on cells their laws reach, from
    a few pulls to thousands per cell; every row has at least one pull."""
    rows = []
    for j, r in zip(*drawn):
        reached = np.flatnonzero(laws[j, r])
        row = np.zeros(laws.shape[2], dtype=np.int64)
        at = reached[rng.random(reached.size) < rng.random()]
        at = at if at.size else reached[:1]
        row[at] = rng.integers(1, int(rng.choice([2, 20, 2000])) + 1, size=at.size)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(drawn[0]), laws.shape[2])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["random", *ESTIMATE_FIXTURES]), st.integers(0, 10_000))
def test_batched_estimates_are_the_blockwise_ones_bit_for_bit(fixture, seed):
    """An empty pool, a single block, random count rows over random block
    subsets added over several batches, and a pool cleared as v1 clears it."""
    rng = np.random.default_rng(seed)
    if fixture == "random":
        inst = random_instance(rng)
        model, arms = inst.model, inst.arms
    else:
        model, arms = ESTIMATE_FIXTURES[fixture]()
    tables = sampling.instance_tables(model, arms)
    div = DivergenceSet.exact(model, arms)
    pool = SamplePool(tables)
    assert np.shares_memory(pool._rows, tables.kernel)
    assert_blockwise_bytes(pool, div, tables.kernel)
    single = (np.array([rng.integers(len(arms))]), np.array([rng.integers(len(REGIMES))]))
    pool.add(BatchSamples(single, random_rows(rng, tables.laws, single)))
    assert_blockwise_bytes(pool, div, tables.kernel)
    for _ in range(3):
        drawn = np.nonzero(rng.random((len(arms), len(REGIMES))) < rng.random())
        pool.add(BatchSamples(drawn, random_rows(rng, tables.laws, drawn)))
        assert_blockwise_bytes(pool, div, tables.kernel)
    pool.clear()
    assert_blockwise_bytes(pool, div, tables.kernel)
    assert np.isnan(estimate_all(pool, 0.5, div).y).all()
    drawn = np.nonzero(rng.random((len(arms), len(REGIMES))) < 0.5)
    pool.add(BatchSamples(drawn, random_rows(rng, tables.laws, drawn)))
    assert_blockwise_bytes(pool, div, tables.kernel)
