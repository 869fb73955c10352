"""Vectorized ancestral sampling and per-sample reweighting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faircb.sampling as sampling
from faircb.errors import EnumerationTooLarge
from faircb.model import Arm, CausalModel, Instance, Regime
from faircb.netgen import build_network_experiment, liver_network
from faircb.sampling import counterfactual_weight, make_sampler, transport_weight
from faircb.sweep import run_algorithm

from helpers import (
    Sample,
    WrongRegime,
    ZeroDenominator,
    as_pulls,
    chain_model,
    importance_weight_fairness,
    importance_weight_outcome,
    random_instance,
    reference_sample_batch,
    sample,
    sample_block,
    side_child_model,
)

_PULL_FIELDS = ("y", "v_row", "v_val", "v_row_s", "v_row_sp", "child_ratio")


def assert_same_pulls(batch, ref) -> None:
    """``batch`` holds the cell codes and, cell by cell, the pull fields of the reference ``ref``."""
    assert batch.blocks == ((ref.arm, ref.regime, ref.cell.shape[0]),)
    assert batch.n_cells == ref.n_cells
    np.testing.assert_array_equal(batch.cell, ref.cell, err_msg="cell")
    pulls = batch.cells.take(batch.cell)
    for name in _PULL_FIELDS:
        np.testing.assert_array_equal(getattr(pulls, name), getattr(ref.fields, name), err_msg=name)


def detached_v_model():
    """S and V are both roots; Y is their joint child, so S has one non-V child path."""
    model = CausalModel(
        nodes=("S", "V", "Y"),
        cards={"S": 2, "V": 2, "Y": 2},
        parents={"S": (), "V": (), "Y": ("S", "V")},
        cpts={
            "S": np.array([[0.5, 0.5]]),
            "V": np.array([[0.7, 0.3]]),
            "Y": np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = (
        Arm(index=0, table=model.cpts["V"].copy()),
        Arm(index=1, table=np.array([[0.2, 0.8]])),
    )
    return model, arms


def make_test_sample(**overrides) -> Sample:
    base = dict(
        arm=0,
        regime=Regime.OBSERVATIONAL,
        s_value=0,
        v_parents=(0,),
        v_value=0,
        s_child_contexts=(("V", (), 0),),
        outcome=1.0,
        v_row=0,
        v_row_s=0,
        v_row_sp=1,
        child_ratio=1.0,
        cell=0,
        n_cells=8,
    )
    base.update(overrides)
    return Sample(**base)


def test_batch_shapes_and_ranges():
    model, arms = chain_model()
    batch = sample_block(model, arms[1], Regime.OBSERVATIONAL, 500, np.random.default_rng(0))
    assert batch.n == 500
    assert batch.blocks == ((1, Regime.OBSERVATIONAL, 500),)
    pulls = batch.cells.take(batch.cell)
    for field in (pulls.y, pulls.v_row, pulls.v_val, pulls.v_row_s, pulls.v_row_sp, pulls.child_ratio):
        assert field.shape == (500,)
    assert set(np.unique(pulls.v_val)) <= {0, 1, 2}
    assert set(np.unique(pulls.v_row)) <= {0, 1}
    np.testing.assert_array_equal(pulls.v_row_s, 0)
    np.testing.assert_array_equal(pulls.v_row_sp, 1)
    # V is the only child of S here, so no residual child ratio remains.
    np.testing.assert_array_equal(pulls.child_ratio, 1.0)


def test_rows_collapse_when_sensitive_not_a_parent():
    model, arms = detached_v_model()
    batch = sample_block(model, arms[1], Regime.OBSERVATIONAL, 200, np.random.default_rng(1))
    pulls = batch.cells.take(batch.cell)
    np.testing.assert_array_equal(pulls.v_row, 0)
    np.testing.assert_array_equal(pulls.v_row_s, pulls.v_row)
    np.testing.assert_array_equal(pulls.v_row_sp, pulls.v_row)
    # Y is a non intervention child of S: the packed ratio is P(y|s,v)/P(y|s',v).
    assert not np.allclose(pulls.child_ratio, 1.0)
    assert np.all(pulls.child_ratio > 0)


def test_empirical_frequencies():
    model, arms = chain_model()
    rng = np.random.default_rng(42)
    batch = sample_block(model, arms[0], Regime.OBSERVATIONAL, 20_000, rng)
    pulls = batch.cells.take(batch.cell)
    # v_row realizes S, so its frequencies recover P(S); y recovers the arm mean.
    assert pulls.v_row.mean() == pytest.approx(0.6, abs=0.015)
    assert pulls.y.mean() == pytest.approx(0.508, abs=0.015)


def test_forced_regimes_clamp_sensitive():
    model, arms = chain_model()
    rng = np.random.default_rng(3)
    batch = sample_block(model, arms[0], Regime.FORCE_S, 300, rng)
    forced_s = batch.cells.take(batch.cell)
    np.testing.assert_array_equal(forced_s.v_row, forced_s.v_row_s)
    batch = sample_block(model, arms[0], Regime.FORCE_SPRIME, 300, rng)
    forced_sp = batch.cells.take(batch.cell)
    np.testing.assert_array_equal(forced_sp.v_row, forced_sp.v_row_sp)
    assert sample(model, arms[0], Regime.FORCE_S, rng).s_value == 0
    assert sample(model, arms[0], Regime.FORCE_SPRIME, rng).s_value == 1
    assert Regime.OBSERVATIONAL.forced_value is None


def test_single_sample_consistency():
    model, arms = chain_model()
    rng = np.random.default_rng(9)
    for _ in range(50):
        smp = sample(model, arms[1], Regime.OBSERVATIONAL, rng)
        assert smp.v_row == smp.v_parents[0]
        assert smp.outcome in (0.0, 1.0)
        names = [name for name, _, _ in smp.s_child_contexts]
        assert names == ["V"]
        assert smp.child_ratio == 1.0


def test_sampling_is_deterministic_per_seed():
    model, arms = chain_model()
    a = sample_block(model, arms[1], Regime.OBSERVATIONAL, 100, np.random.default_rng(5))
    b = sample_block(model, arms[1], Regime.OBSERVATIONAL, 100, np.random.default_rng(5))
    np.testing.assert_array_equal(a.cell, b.cell)
    np.testing.assert_array_equal(a.cells.take(a.cell).y, b.cells.take(b.cell).y)
    np.testing.assert_array_equal(a.cells.take(a.cell).v_val, b.cells.take(b.cell).v_val)


def test_make_sampler_binds_arms():
    model, arms = chain_model()
    pull = make_sampler(model, arms)
    blocks = [(2, Regime.OBSERVATIONAL, 16), (0, Regime.FORCE_S, 3)]
    batch = pull(blocks, np.random.default_rng(0))
    assert batch.blocks == tuple(blocks)
    assert batch.n == 19


def test_outcome_weight_identity_and_transport():
    model, arms = chain_model()
    rng = np.random.default_rng(11)
    smp = sample(model, arms[1], Regime.OBSERVATIONAL, rng)
    assert importance_weight_outcome(smp, arms[1], arms[1]) == 1.0
    expected = arms[0].table[smp.v_row, smp.v_value] / arms[1].table[smp.v_row, smp.v_value]
    assert importance_weight_outcome(smp, arms[1], arms[0]) == pytest.approx(expected, rel=1e-12)
    # Reweighted pulls of arm 1 recover the mean of arm 2 in expectation.
    batch = sample_block(model, arms[1], Regime.OBSERVATIONAL, 50_000, rng)
    pulls = batch.cells.take(batch.cell)
    w = arms[2].table[pulls.v_row, pulls.v_val] / arms[1].table[pulls.v_row, pulls.v_val]
    assert (pulls.y * w).mean() == pytest.approx(8.0 / 15.0, abs=0.03)


def test_fairness_weight_value_and_mean():
    model, arms = chain_model()
    rng = np.random.default_rng(21)
    smp = sample(model, arms[1], Regime.FORCE_SPRIME, rng)
    ratio = arms[1].table[smp.v_row_s, smp.v_value] / arms[1].table[smp.v_row_sp, smp.v_value]
    assert importance_weight_fairness(smp, arms[1], arms[1], "ssp") == pytest.approx(
        ratio - 1.0, rel=1e-12
    )
    batch = sample_block(model, arms[1], Regime.FORCE_SPRIME, 50_000, rng)
    pulls = batch.cells.take(batch.cell)
    r = arms[1].table[pulls.v_row_s, pulls.v_val] / arms[1].table[pulls.v_row_sp, pulls.v_val]
    assert (pulls.y * (r - 1.0)).mean() == pytest.approx(-0.35, abs=0.03)


def test_fairness_weight_regime_guard():
    model, arms = chain_model()
    rng = np.random.default_rng(2)
    obs = sample(model, arms[0], Regime.OBSERVATIONAL, rng)
    forced_s = sample(model, arms[0], Regime.FORCE_S, rng)
    forced_sp = sample(model, arms[0], Regime.FORCE_SPRIME, rng)
    for direction in ("ssp", "sps"):
        with pytest.raises(WrongRegime):
            importance_weight_fairness(obs, arms[0], arms[0], direction)
    with pytest.raises(WrongRegime):
        importance_weight_fairness(forced_s, arms[0], arms[0], "ssp")
    with pytest.raises(WrongRegime):
        importance_weight_fairness(forced_sp, arms[0], arms[0], "sps")
    assert np.isfinite(importance_weight_fairness(forced_sp, arms[0], arms[0], "ssp"))
    assert np.isfinite(importance_weight_fairness(forced_s, arms[0], arms[0], "sps"))
    with pytest.raises(ValueError):
        importance_weight_fairness(forced_sp, arms[0], arms[0], "spsp")
    with pytest.raises(ValueError):
        counterfactual_weight(as_pulls([forced_sp]).fields, arms[0].table, arms[0].table, "spsp")


def test_zero_denominator_errors():
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    hole = Arm(index=0, table=table)
    other = Arm(index=1, table=np.array([[0.5, 0.5], [0.5, 0.5]]))
    smp = make_test_sample(v_row=0, v_value=1)
    with pytest.raises(ZeroDenominator):
        importance_weight_outcome(smp, hole, other)
    # s' support empty at the sampled value: the attribute ratio denominator dies.
    forced = make_test_sample(
        regime=Regime.FORCE_SPRIME, s_value=1, v_row=1, v_row_s=0, v_row_sp=1, v_value=0
    )
    with pytest.raises(ZeroDenominator):
        importance_weight_fairness(forced, other, hole, "ssp")
    # Numerator zero flips into a vanishing ratio for the reverse direction.
    forced_s = make_test_sample(
        regime=Regime.FORCE_S, s_value=0, v_row=0, v_row_s=0, v_row_sp=1, v_value=1
    )
    with pytest.raises(ZeroDenominator):
        importance_weight_fairness(forced_s, other, hole, "sps")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_batch_invariants_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    model = inst.model
    for regime in Regime:
        batch = sample_block(model, inst.arms[-1], regime, 64, rng)
        pulls = batch.cells.take(batch.cell)
        assert np.all(np.isfinite(pulls.child_ratio)) and np.all(pulls.child_ratio > 0)
        assert np.all((pulls.y >= 0.0) & (pulls.y <= 1.0))
        on_row = np.where(pulls.v_row == pulls.v_row_s, True, pulls.v_row == pulls.v_row_sp)
        if regime is Regime.OBSERVATIONAL:
            assert np.all(on_row)
        elif regime is Regime.FORCE_S:
            np.testing.assert_array_equal(pulls.v_row, pulls.v_row_s)
        else:
            np.testing.assert_array_equal(pulls.v_row, pulls.v_row_sp)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_weight_kernel_matches_scalar_references(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    model, arms = inst.model, inst.arms
    tables = np.stack([a.table for a in arms])
    # Every (target, source) pair at once: targets on axis 0, sources on axis 1.
    targets, sources = tables[:, None], tables[None, :]
    for arm in arms:
        for regime in Regime:
            # The batched sampler and the single-pull reference agree draw for draw.
            draw_seed = int(rng.integers(2**32))
            one = sample_block(model, arm, regime, 1, np.random.default_rng(draw_seed))
            ref = as_pulls([sample(model, arm, regime, np.random.default_rng(draw_seed))])
            assert_same_pulls(one, ref)

            pulls = [sample(model, arm, regime, rng) for _ in range(12)]
            batch = as_pulls(pulls).fields
            w = transport_weight(batch, targets, sources)
            expected = [
                [[importance_weight_outcome(p, src, tgt) for p in pulls] for src in arms]
                for tgt in arms
            ]
            np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0.0)
            if regime is Regime.OBSERVATIONAL:
                continue
            direction = "ssp" if regime is Regime.FORCE_SPRIME else "sps"
            u = counterfactual_weight(batch, targets, sources, direction)
            expected = [
                [[importance_weight_fairness(p, src, tgt, direction) for p in pulls] for src in arms]
                for tgt in arms
            ]
            np.testing.assert_allclose(u, expected, rtol=1e-12, atol=0.0)


def barren_model():
    """A childless S among barren nodes: before the first sampled node, between two, after the last.

    Topological order: B0 S A B1 V B2 Y B3.  Only S, A, V and Y are read.
    """
    model = CausalModel(
        nodes=("B0", "S", "A", "B1", "V", "B2", "Y", "B3"),
        cards={"B0": 3, "S": 2, "A": 2, "B1": 2, "V": 3, "B2": 2, "Y": 2, "B3": 4},
        parents={
            "B0": (), "S": (), "A": (), "B1": ("A",), "V": ("A",),
            "B2": ("V", "B1"), "Y": ("V",), "B3": ("Y", "B0"),
        },
        cpts={
            "B0": np.array([[0.2, 0.3, 0.5]]),
            "S": np.array([[0.4, 0.6]]),
            "A": np.array([[0.7, 0.3]]),
            "B1": np.array([[0.5, 0.5], [0.1, 0.9]]),
            "V": np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]),
            "B2": np.full((6, 2), 0.5),
            "Y": np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]),
            "B3": np.full((6, 4), 0.25),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = (Arm(0, model.cpts["V"].copy()), Arm(1, np.full((2, 3), 1.0 / 3.0)))
    return model, arms


def liver_experiment(n_arms: int):
    return build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=n_arms, seed=0, fairness_eps=0.2
    )


def assert_same_stream(model, arm, regime, n, seed):
    """``sample_batch`` and the full walk agree on the batch and on the draws after it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_pulls(
        sample_block(model, arm, regime, n, rng), reference_sample_batch(model, arm, regime, n, ref_rng)
    )
    np.testing.assert_array_equal(rng.random(5), ref_rng.random(5))


@pytest.mark.parametrize("n", [1, 500])
@pytest.mark.parametrize("regime", list(Regime))
def test_pruned_sampling_keeps_the_stream(regime, n):
    model, arms = barren_model()
    for seed in range(3):
        for arm in arms:
            assert_same_stream(model, arm, regime, n, seed)
    liver = liver_experiment(3)
    for arm in liver.arms:
        assert_same_stream(liver.model, arm, regime, n, 7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pruned_sampling_keeps_the_stream_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    for regime in Regime:
        for n in (1, 37):
            assert_same_stream(inst.model, inst.arms[-1], regime, n, seed)


def assert_phase_stream(model, arms, blocks, seed):
    """One sampler call over ``blocks`` gives, block for block, the cell codes
    of consecutive full-walk batches, and leaves the generator where they do."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = make_sampler(model, arms)(blocks, rng)
    assert batch.blocks == tuple((arms[j].index, regime, n) for j, regime, n in blocks)
    start = 0
    for j, regime, n in blocks:
        ref = reference_sample_batch(model, arms[j], regime, n, ref_rng)
        np.testing.assert_array_equal(batch.cell[start : start + n], ref.cell, err_msg=f"{j} {regime}")
        start += n
    assert batch.n == start
    assert rng.random() == ref_rng.random()


block_lists = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(list(Regime)), st.sampled_from([0, 1, 2, 7, 40])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), block_lists)
def test_phase_draw_keeps_the_stream_on_random_instances(seed, blocks):
    # Arms in any order, repeated or not, every regime, zero-count blocks
    # among them; S has children on some instances and none on others.
    inst = random_instance(np.random.default_rng(seed))
    blocks = [(j % len(inst.arms), regime, n) for j, regime, n in blocks]
    assert_phase_stream(inst.model, inst.arms, blocks, seed)


def test_phase_draw_keeps_the_stream_with_barren_nodes():
    # A childless S among barren nodes, and the liver network: 60 barren
    # nodes and read nodes with several parents.
    model, arms = barren_model()
    blocks = [(1, Regime.FORCE_S, 5), (0, Regime.OBSERVATIONAL, 9), (1, Regime.FORCE_SPRIME, 0),
              (0, Regime.FORCE_SPRIME, 4)]
    assert_phase_stream(model, arms, blocks, 3)
    liver = liver_experiment(3)
    blocks = [(j, regime, 20 + 3 * j) for j in range(3) for regime in Regime]
    assert_phase_stream(liver.model, liver.arms, blocks, 11)


def assert_cells_hold_the_full_walk_fields(model, arm, regime, n, seed):
    """The table entry of every occupied cell holds the fields that the full
    walk computes for each of the pulls in that cell."""
    table = sample_block(model, arm, regime, 1, np.random.default_rng(seed)).cells
    ref = reference_sample_batch(model, arm, regime, n, np.random.default_rng(seed))
    assert table.n_cells == ref.n_cells
    for code in np.unique(ref.cell):
        at = ref.cell == code
        for name in _PULL_FIELDS:
            np.testing.assert_array_equal(
                getattr(ref.fields, name)[at], getattr(table, name)[code], err_msg=f"{name} of cell {code}"
            )


def test_cell_code_covers_the_read_nodes():
    # Side child: the read nodes are S, V, Y, W (S is V's parent and W's), 16 cells.
    model, arms = side_child_model()
    batch = sample_block(model, arms[1], Regime.OBSERVATIONAL, 400, np.random.default_rng(4))
    assert batch.n_cells == 16
    assert batch.cell.min() >= 0 and batch.cell.max() < 16
    for regime in Regime:
        for arm in arms:
            assert_cells_hold_the_full_walk_fields(model, arm, regime, 400, 4)
    # The read nodes of the liver network span 384 cells.
    liver = liver_experiment(2)
    assert sample_block(liver.model, liver.arms[0], Regime.FORCE_S, 5, np.random.default_rng(5)).n_cells == 384
    for regime in Regime:
        assert_cells_hold_the_full_walk_fields(liver.model, liver.arms[0], regime, 2000, 5)


def test_cell_count_above_the_enumeration_cap_raises(monkeypatch):
    monkeypatch.setenv("FCB_ENUM_CAP", "11")
    model, arms = chain_model()  # reads S, V and Y: 2 * 3 * 2 = 12 cells
    with pytest.raises(EnumerationTooLarge, match="12 cells"):
        sample_block(model, arms[0], Regime.OBSERVATIONAL, 3, np.random.default_rng(0))
    monkeypatch.setenv("FCB_ENUM_CAP", "12")
    model, arms = chain_model()
    assert sample_block(model, arms[0], Regime.OBSERVATIONAL, 3, np.random.default_rng(0)).n_cells == 12


def test_cell_table_is_decoded_once_per_model(monkeypatch):
    decode = sampling._decode_cells
    decoded = []

    def counted(model, *args):
        decoded.append(model)
        return decode(model, *args)

    monkeypatch.setattr(sampling, "_decode_cells", counted)
    model, arms = chain_model()
    instance = Instance(model=model, arms=tuple(arms))
    # csr-v1 pools each phase apart, csr-v2 pools them all; both read the one table.
    traces = [
        run_algorithm(instance, algorithm, 20_000, np.random.default_rng(0), budget=1.0,
                      fairness_eps=0.2)
        for algorithm in ("csr-v1", "csr-v2")
    ]
    assert sum(len(trace.phases) for trace in traces) > 2
    assert len(decoded) == 1 and decoded[0] is model
