"""The cell-law sampler, its stream contract and memo, per-sample reweighting and the weight kernel."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import faircb.sampling as sampling
from faircb.divergence import DivergenceSet
from faircb.errors import EnumerationTooLarge
from faircb.estimation import SamplePool
from faircb.io import instance_from_dict, instance_to_dict
from faircb.model import REGIMES, Arm, CausalModel, Instance, Regime
from faircb.oracles import oracle_report
from faircb.sampling import BatchSamples
from faircb.sweep import run_algorithm

from helpers import (
    BENCH_INSTANCES,
    Sample,
    WrongRegime,
    ZeroDenominator,
    as_pulls,
    brute_fairness,
    brute_law,
    chain_model,
    count_kernel_builds,
    counterfactual_weight,
    exact_fairness,
    exact_outcome_mean,
    importance_weight_fairness,
    importance_weight_outcome,
    liver_experiment,
    pull_fields,
    random_instance,
    reference_sample_batch,
    sample,
    sample_block,
    side_child_model,
    take,
    transport_weight,
)

_PULL_FIELDS = ("y", "v_row", "v_val", "v_row_s", "v_row_sp", "child_ratio")


def laws_of(model, arms) -> np.ndarray:
    """The ``(K, 3, n_cells)`` cell laws a run over ``arms`` draws from."""
    return sampling.instance_tables(model, arms).laws


def draw(model, arms, sizes, rng) -> BatchSamples:
    """One ``sample_batch`` call over the count matrix ``sizes`` of ``arms``."""
    return sampling.sample_batch(laws_of(model, arms), np.asarray(sizes), rng)


def assert_table_holds(cells, ref) -> None:
    """The ``Cells`` table entry of every pull of the reference ``ref`` holds that pull's fields."""
    assert cells.y.size == ref.n_cells
    at = take(cells, ref.cell)
    for name in _PULL_FIELDS:
        np.testing.assert_array_equal(getattr(at, name), getattr(ref.fields, name), err_msg=name)


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
    assert [a.tolist() for a in batch.drawn] == [[1], [0]]
    assert batch.counts.shape == (1, 12) and batch.counts.sum() == 500
    pulls = pull_fields(batch)
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
    pulls = pull_fields(batch)
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
    pulls = pull_fields(batch)
    # v_row realizes S, so its frequencies recover P(S); y recovers the arm mean.
    assert pulls.v_row.mean() == pytest.approx(0.6, abs=0.015)
    assert pulls.y.mean() == pytest.approx(0.508, abs=0.015)


def test_forced_regimes_clamp_sensitive():
    model, arms = chain_model()
    rng = np.random.default_rng(3)
    batch = sample_block(model, arms[0], Regime.FORCE_S, 300, rng)
    forced_s = pull_fields(batch)
    np.testing.assert_array_equal(forced_s.v_row, forced_s.v_row_s)
    batch = sample_block(model, arms[0], Regime.FORCE_SPRIME, 300, rng)
    forced_sp = pull_fields(batch)
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
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(pull_fields(a).y, pull_fields(b).y)
    np.testing.assert_array_equal(pull_fields(a).v_val, pull_fields(b).v_val)


def test_outcome_weight_identity_and_transport():
    model, arms = chain_model()
    rng = np.random.default_rng(11)
    smp = sample(model, arms[1], Regime.OBSERVATIONAL, rng)
    assert importance_weight_outcome(smp, arms[1], arms[1]) == 1.0
    expected = arms[0].table[smp.v_row, smp.v_value] / arms[1].table[smp.v_row, smp.v_value]
    assert importance_weight_outcome(smp, arms[1], arms[0]) == pytest.approx(expected, rel=1e-12)
    # Reweighted pulls of arm 1 recover the mean of arm 2 in expectation.
    batch = sample_block(model, arms[1], Regime.OBSERVATIONAL, 50_000, rng)
    pulls = pull_fields(batch)
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
    pulls = pull_fields(batch)
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
        pulls = pull_fields(batch)
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
            # The model's cell table holds the fields of a single-pull reference draw.
            ref = as_pulls([sample(model, arm, regime, rng)])
            assert_table_holds(sampling.instance_tables(model, arms).cells, ref)

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


def assert_block_is_one_multinomial(model, arms, j, regime, n, seed):
    """A one-entry draw is ``rng.multinomial(n, law)`` of its cell law, and leaves
    the generator where that multinomial does."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = np.zeros((len(arms), len(REGIMES)), dtype=np.int64)
    sizes[j, REGIMES.index(regime)] = n
    batch = draw(model, arms, sizes, rng)
    law = laws_of(model, arms)[j, REGIMES.index(regime)]
    np.testing.assert_array_equal(batch.counts, [ref_rng.multinomial(n, law)])
    assert rng.random() == ref_rng.random()


def assert_pruned_law_is_the_full_joint_law(model, arms):
    """The laws enumerated over the closure of the read nodes equal, to
    1e-12, the brute-force laws over the full joint, barren nodes included."""
    laws = laws_of(model, arms)
    for k, arm in enumerate(arms):
        for row, regime in enumerate(Regime):
            np.testing.assert_allclose(laws[k, row], brute_law(model, arm, regime), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 500])
@pytest.mark.parametrize("regime", list(Regime))
def test_pruned_sampling_keeps_the_stream(regime, n):
    # Sampling enumerates the closure of the read nodes only; each block is
    # still one multinomial of its law, and that law is the full joint's.
    model, arms = barren_model()
    assert_pruned_law_is_the_full_joint_law(model, arms)
    for seed in range(3):
        for j in range(len(arms)):
            assert_block_is_one_multinomial(model, arms, j, regime, n, seed)
    liver = liver_experiment(3)
    for j in range(len(liver.arms)):
        assert_block_is_one_multinomial(liver.model, liver.arms, j, regime, n, 7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pruned_sampling_keeps_the_stream_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    assert_pruned_law_is_the_full_joint_law(inst.model, inst.arms)
    for regime in Regime:
        for n in (1, 37):
            assert_block_is_one_multinomial(inst.model, inst.arms, len(inst.arms) - 1, regime, n, seed)


def assert_phase_stream(model, arms, sizes, seed):
    """One ``sample_batch`` call over the count matrix ``sizes`` gives, entry for
    entry in row-major order, the counts of one ``rng.multinomial`` per nonzero
    entry, draws nothing for a zero entry, and leaves the generator where those
    multinomials do."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    laws = laws_of(model, arms)
    batch = sampling.sample_batch(laws, sizes, rng)
    entries = [(j, r) for j in range(len(arms)) for r in range(len(REGIMES)) if sizes[j, r]]
    assert list(zip(*(a.tolist() for a in batch.drawn))) == entries
    assert batch.counts.shape == (len(entries), laws.shape[2])
    for row, (j, r) in zip(batch.counts, entries):
        np.testing.assert_array_equal(row, ref_rng.multinomial(sizes[j, r], laws[j, r]))
    assert batch.n == sizes.sum() == batch.counts.sum()
    assert rng.random() == ref_rng.random()


# Twelve entries fill the (K, 3) count matrix of up to four arms.
entry_lists = st.lists(st.sampled_from([0, 0, 1, 2, 7, 40]), min_size=12, max_size=12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), entry_lists)
def test_phase_draw_keeps_the_stream_on_random_instances(seed, entries):
    # Any (K, 3) count matrix with zeros among its entries, the all-zero one
    # too; S has children on some instances and none on others.
    inst = random_instance(np.random.default_rng(seed))
    sizes = np.array(entries[: 3 * len(inst.arms)]).reshape(len(inst.arms), len(REGIMES))
    assert_phase_stream(inst.model, inst.arms, sizes, seed)


def test_phase_draw_keeps_the_stream_with_barren_nodes():
    # A childless S among barren nodes, and the liver network: 60 barren
    # nodes and read nodes with several parents.
    model, arms = barren_model()
    assert_phase_stream(model, arms, np.array([[9, 0, 4], [0, 5, 0]]), 3)
    liver = liver_experiment(3)
    sizes = np.repeat(20 + 3 * np.arange(3), 3).reshape(3, 3)
    assert_phase_stream(liver.model, liver.arms, sizes, 11)


def assert_cells_hold_the_full_walk_fields(model, arm, regime, n, seed):
    """The table entry of every occupied cell holds the fields that the full
    walk computes for each of the pulls in that cell."""
    table = sample_block(model, arm, regime, 1, np.random.default_rng(seed)).cells
    ref = reference_sample_batch(model, arm, regime, n, np.random.default_rng(seed))
    assert table.y.size == ref.n_cells
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
    assert batch.counts.shape == (1, 16) and batch.counts.sum() == 400
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
    sampling._TABLES.clear()
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


def assert_laws_match_the_oracles(model, arms, fairness) -> None:
    """Each arm's observational law, weighed by y, gives its exact mean, and
    each forced law, weighed by y times the arm's own counterfactual weight,
    gives its counterfactual gap ``fairness(model, arm, direction)``, to 1e-12."""
    laws = laws_of(model, arms)
    cells = sampling.instance_tables(model, arms).cells
    rows = {regime: row for row, regime in enumerate(Regime)}
    for k, arm in enumerate(arms):
        law = laws[k, rows[Regime.OBSERVATIONAL]]
        assert law @ cells.y == pytest.approx(exact_outcome_mean(model, arm), abs=1e-12)
        for direction, regime in (("ssp", Regime.FORCE_SPRIME), ("sps", Regime.FORCE_S)):
            law = laws[k, rows[regime]]
            at = np.flatnonzero(law)
            occupied = take(cells, at)
            u = counterfactual_weight(occupied, arm.table, arm.table, direction)
            assert law[at] @ (occupied.y * u) == pytest.approx(fairness(model, arm, direction), abs=1e-12)
        np.testing.assert_allclose(laws[k].sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["chain", "side-child", "liver"])
def test_laws_match_the_exact_oracles(fixture):
    if fixture == "liver":
        # Seventy nodes are beyond the brute force; the pruned enumeration
        # oracle is the reference there.
        liver = liver_experiment(10)
        assert_laws_match_the_oracles(liver.model, liver.arms, exact_fairness)
        return
    model, arms = {"chain": chain_model, "side-child": side_child_model}[fixture]()
    assert_laws_match_the_oracles(model, arms, brute_fairness)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_laws_match_the_exact_oracles_on_random_instances(seed):
    inst = random_instance(np.random.default_rng(seed))
    assert_laws_match_the_oracles(inst.model, inst.arms, brute_fairness)


# Each (arm, regime) law is tested once; every p-value must reach 1e-6.  Under
# the null the chance that any of the 135 tests falls below is about 1.4e-4.
CHI2_DRAWS = 20_000
CHI2_P_MIN = 1e-6


def chi_square_p(observed: np.ndarray, law: np.ndarray) -> float:
    """Pearson's test of ``observed`` counts against ``law``, the cells with an
    expected count under five pooled into one bin.  A pull in a cell of zero
    law fails outright."""
    n = observed.sum()
    expected = n * law
    if observed[law == 0.0].any():
        return 0.0
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0.0
    obs, exp = obs[keep], exp[keep]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(scipy.stats.chi2.sf(stat, obs.size - 1))


@pytest.mark.parametrize("workload", sorted(BENCH_INSTANCES))
def test_laws_follow_the_ancestral_reference(workload):
    inst = BENCH_INSTANCES[workload]()
    model, arms = inst.model, inst.arms
    laws = laws_of(model, arms)
    rng = np.random.default_rng(20260)
    p_values = {}
    for k, arm in enumerate(arms):
        for row, regime in enumerate(Regime):
            ref = reference_sample_batch(model, arm, regime, CHI2_DRAWS, rng)
            observed = np.bincount(ref.cell, minlength=ref.n_cells)
            p_values[k, regime.value] = chi_square_p(observed, laws[k, row])
    worst = min(p_values, key=p_values.get)
    assert p_values[worst] >= CHI2_P_MIN, (worst, p_values[worst])


def test_closure_over_the_cap_raises_before_any_pull(monkeypatch):
    # The liver's read nodes span 384 cells, their closure 9216.
    liver = liver_experiment(2)
    monkeypatch.setenv("FCB_ENUM_CAP", "9215")
    sampling._TABLES.clear()
    with pytest.raises(EnumerationTooLarge, match="9216 cells over .*'fibrosis'"):
        sampling.instance_tables(liver.model, liver.arms)
    assert not sampling._TABLES
    monkeypatch.setenv("FCB_ENUM_CAP", "9216")
    empty = np.zeros((2, 3), dtype=np.int64)
    assert draw(liver.model, liver.arms, empty, np.random.default_rng(0)).n == 0


def count_law_builds(monkeypatch) -> list:
    """The models whose cell laws are built from here on, from a cold memo."""
    build = sampling._build_laws
    builds = []

    def counted(model, *args):
        builds.append(model)
        return build(model, *args)

    monkeypatch.setattr(sampling, "_build_laws", counted)
    sampling._TABLES.clear()
    return builds


def test_equal_models_share_one_law_build(monkeypatch):
    builds = count_law_builds(monkeypatch)
    (model_a, arms_a), (model_b, arms_b) = chain_model(), chain_model()
    sizes = np.full((3, 3), 50)
    a = draw(model_a, arms_a, sizes, np.random.default_rng(4))
    b = draw(model_b, arms_b, sizes, np.random.default_rng(4))
    assert builds == [model_a]
    np.testing.assert_array_equal(a.counts, b.counts)


def test_editing_an_arm_table_in_place_forces_a_rebuild(monkeypatch):
    builds = count_law_builds(monkeypatch)
    model, arms = chain_model()
    before = laws_of(model, arms).copy()
    laws_of(model, arms)
    assert len(builds) == 1
    arms[1].table[0] = [0.2, 0.2, 0.6]
    laws_of(model, arms)
    assert len(builds) == 2
    after = laws_of(model, arms)
    assert not np.array_equal(before[1], after[1])
    np.testing.assert_array_equal(before[[0, 2]], after[[0, 2]])
    with pytest.raises(ValueError, match="read-only"):
        after[0, 0, 0] = 0.5


def exact_and_report(instance) -> tuple:
    """The bytes of the exact divergences of ``instance`` and its oracle report."""
    div = DivergenceSet.exact(instance.model, instance.arms)
    report = oracle_report(instance, instance.fairness_eps)
    return div.m.tobytes(), div.d_ssp.tobytes(), div.d_sps.tobytes(), report


def assert_matches_a_fresh_copy(instance) -> tuple:
    """``exact_and_report`` of ``instance`` equals that of a copy rebuilt from its
    file contents on a cold memo, bit for bit; returns it."""
    got = exact_and_report(instance)
    sampling._TABLES.clear()
    assert got == exact_and_report(instance_from_dict(instance_to_dict(instance)))
    return got


def test_editing_the_model_in_place_reaches_the_divergences_and_the_report():
    # PBC is the child of S in the liver network, so its table enters every
    # counterfactual weight; the target encoding enters every outcome.
    instance = liver_experiment(10)
    before = exact_and_report(instance)
    pbc = instance.model.cpts["PBC"]
    pbc[:4] = pbc[:4, ::-1].copy()  # the rows of S = s
    after_pbc = assert_matches_a_fresh_copy(instance)
    instance.model.target_values[:] = [0.25, 1.0]
    after_y = assert_matches_a_fresh_copy(instance)
    assert before != after_pbc != after_y


def test_making_y_a_child_of_s_in_place_reaches_the_report():
    # The read nodes and the child ratio follow the parent tuples, so a new
    # child of S must reach the next build, as it does on a fresh copy.
    model, arms = chain_model()
    instance = Instance(model, arms, fairness_eps=0.2)
    before = oracle_report(instance, 0.2)
    y = np.repeat(model.cpts["Y"], 2, axis=0)  # rows (v, s) of the parents (V, S)
    y[1::2] = y[1::2, ::-1]  # S = s' flips the outcome
    model.parents["Y"], model.cpts["Y"] = ("V", "S"), y
    after = assert_matches_a_fresh_copy(instance)[3]
    assert after != before
    assert model.children("S") == ("V", "Y")


def test_law_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(sampling, "_MEMO_TABLES", 2)
    builds = count_law_builds(monkeypatch)
    model, arms = chain_model()
    subsets = [arms[:1], arms[1:2], arms[2:], arms[:2], arms]
    for subset in subsets:
        laws_of(model, subset)
        assert len(sampling._TABLES) <= 2
    assert len(builds) == len(subsets)
    # The two most recent arm sets survive eviction; the first does not.
    laws_of(model, arms)
    laws_of(model, arms[:2])
    assert len(builds) == len(subsets)
    laws_of(model, arms[:1])
    assert len(builds) == len(subsets) + 1


def kernel_of(model, arms) -> tuple[np.ndarray, sampling.Cells, np.ndarray]:
    """The weight kernel of ``arms`` over the model's cells, the cells and the arm tables."""
    found = sampling.instance_tables(model, arms)
    return found.kernel, found.cells, np.stack([arm.table for arm in arms])


def layout(a: np.ndarray) -> tuple[bool, bool]:
    return a.flags.c_contiguous, a.flags.f_contiguous


KERNEL_FIXTURES = {"chain": chain_model, "side-child": side_child_model}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["random", *KERNEL_FIXTURES]), st.integers(0, 10_000))
def test_kernel_is_the_weights_of_any_cell_subset(fixture, seed):
    """``W[r, j][:, occ]`` is, bit for bit, what the weight functions give the
    cells ``occ``; the pool's gather of those cells also keeps their layout,
    which fixes the estimates' summation order.  The chain and side-child
    models have S as a parent of V."""
    rng = np.random.default_rng(seed)
    if fixture == "random":
        inst = random_instance(rng)
        model, arms = inst.model, inst.arms
    else:
        model, arms = KERNEL_FIXTURES[fixture]()
    kernel, cells, tables = kernel_of(model, arms)
    K = len(arms)
    assert kernel.shape == (3, K, K, cells.y.size)
    for j in range(K):
        for r, regime in enumerate(REGIMES):
            occ = np.flatnonzero(rng.random(cells.y.size) < rng.random())
            sub = take(cells, occ)
            with np.errstate(divide="ignore", invalid="ignore"):
                if regime is Regime.OBSERVATIONAL:
                    want = transport_weight(sub, tables, tables[j])
                else:
                    direction = "sps" if regime is Regime.FORCE_S else "ssp"
                    want = counterfactual_weight(sub, tables, tables[j], direction)
            assert kernel[r, j][:, occ].tobytes() == want.tobytes(), (j, regime)
            if occ.size == 0:
                continue
            counts = np.zeros((1, cells.y.size), dtype=np.int64)
            counts[0, occ] = rng.integers(1, 5, size=occ.size)
            pool = SamplePool(sampling.instance_tables(model, arms))
            assert np.shares_memory(pool._rows, kernel)
            pool.add(BatchSamples((np.array([j]), np.array([r])), counts))
            got = pool.pulled().weights.T
            assert got.tobytes() == want.tobytes() and layout(got) == layout(want), (j, regime)


def test_kernel_build_peaks_under_one_and_a_half_kernels():
    instance = BENCH_INSTANCES["synth-k30"]()
    tables = sampling.instance_tables(instance.model, instance.arms)
    tracemalloc.start()
    try:
        kernel = sampling._build_kernel(tables.transport, tables.regime)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kernel.nbytes
    assert kernel.tobytes() == tables.kernel.tobytes() and kernel.strides == tables.kernel.strides


def test_equal_instances_share_one_kernel(monkeypatch):
    builds = count_kernel_builds(monkeypatch)
    (model_a, arms_a), (model_b, arms_b) = chain_model(), chain_model()
    kernel_a = kernel_of(model_a, arms_a)[0]
    kernel_b = kernel_of(model_b, arms_b)[0]
    assert len(builds) == 1
    assert kernel_a is kernel_b


def test_editing_an_arm_table_in_place_forces_a_kernel_rebuild(monkeypatch):
    builds = count_kernel_builds(monkeypatch)
    model, arms = chain_model()
    before = kernel_of(model, arms)[0]
    assert kernel_of(model, arms)[0] is before
    arms[1].table[0] = [0.2, 0.2, 0.6]
    after = kernel_of(model, arms)[0]
    assert len(builds) == 2
    # Arm 1's weights move as a source and as a target; no other pair's do.
    assert not np.array_equal(before[:, 1], after[:, 1], equal_nan=True)
    assert not np.array_equal(before[:, :, 1], after[:, :, 1], equal_nan=True)
    np.testing.assert_array_equal(before[:, 0][:, [0, 2]], after[:, 0][:, [0, 2]])
    np.testing.assert_array_equal(before[:, 2][:, [0, 2]], after[:, 2][:, [0, 2]])
    with pytest.raises(ValueError, match="read-only"):
        after[0, 0, 0, 0] = 0.5


def test_kernel_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(sampling, "_MEMO_TABLES", 2)
    builds = count_kernel_builds(monkeypatch)
    model, arms = chain_model()
    subsets = [arms[:1], arms[1:2], arms[2:], arms[:2], arms]
    for subset in subsets:
        kernel_of(model, subset)
        assert len(sampling._TABLES) <= 2
    assert len(builds) == len(subsets)
    # The two most recent arm sets survive eviction; the first does not.
    kernel_of(model, arms)
    kernel_of(model, arms[:2])
    assert len(builds) == len(subsets)
    kernel_of(model, arms[:1])
    assert len(builds) == len(subsets) + 1
