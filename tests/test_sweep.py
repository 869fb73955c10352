"""Tests for seeded sweeps and their CSV/JSON outputs."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

import faircb.sampling as sampling
import faircb.sweep as sweep_mod
from faircb import divergence, oracles
from faircb.bandit import RunTrace
from faircb.divergence import DivergenceSet
from faircb.io import instance_digest
from faircb.model import Instance
from faircb.oracles import oracle_report
from faircb.sweep import (
    ALGORITHMS,
    default_budget,
    error_curve_to_csv,
    error_curve_to_json,
    run_algorithm,
    run_sweep,
)
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import chain_model, count_kernel_builds, liver_experiment


@pytest.fixture(scope="module")
def instance():
    config = SyntheticConfig(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
    )
    return generate_synthetic(config)


def row_key(row):
    # Everything except wall_time_s, which is a measurement.
    return (
        row.budget,
        row.algorithm,
        row.runs,
        row.misidentifications,
        row.no_fair_arm,
        row.failures,
        row.error_rate,
        row.base_seed,
    )


def test_default_budget_is_the_most_expensive_pull(instance):
    assert default_budget(instance) == 1.0
    model, arms = chain_model()
    flat = Instance(model=model, arms=arms, name="chain")
    assert default_budget(flat) == 1.0


def test_run_algorithm_dispatches_each_id(instance):
    for algorithm in ALGORITHMS:
        rng = np.random.default_rng(0)
        trace = run_algorithm(instance, algorithm, 400, rng)
        assert isinstance(trace, RunTrace)
        assert trace.decision is None or 0 <= trace.decision < 3


def test_run_algorithm_rejects_unknown_id(instance):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm(instance, "csr-v3", 400, np.random.default_rng(0))


def test_run_algorithm_needs_a_fairness_tolerance():
    model, arms = chain_model()
    bare = Instance(model=model, arms=arms, name="chain")
    with pytest.raises(ValueError, match="fairness tolerance"):
        run_algorithm(bare, "csr-v1", 400, np.random.default_rng(0))
    trace = run_algorithm(bare, "csr-v1", 400, np.random.default_rng(0), fairness_eps=0.2)
    assert isinstance(trace, RunTrace)


def test_sweep_is_deterministic(instance):
    a = run_sweep(instance, budgets=(200, 400), runs=3, base_seed=7)
    b = run_sweep(instance, budgets=(200, 400), runs=3, base_seed=7)
    assert [row_key(r) for r in a.rows] == [row_key(r) for r in b.rows]
    assert a.instance_digest == b.instance_digest == instance_digest(instance)
    assert a.truth == b.truth


def test_sweep_rows_cover_the_grid(instance):
    curve = run_sweep(instance, budgets=(200, 400), runs=2, base_seed=0)
    assert [(r.budget, r.algorithm) for r in curve.rows] == [
        (T, algorithm) for T in (200, 400) for algorithm in ALGORITHMS
    ]
    for row in curve.rows:
        assert row.runs == 2
        assert row.error_rate == row.misidentifications / row.runs
        assert 0 <= row.no_fair_arm <= row.runs
        assert row.failures == 0
        assert row.wall_time_s > 0.0


def test_algorithm_subsets_reproduce_full_sweep_rows(instance):
    # Seeds key off the canonical algorithm table, so running a subset must
    # reproduce the matching rows of the full sweep bit for bit.
    full = run_sweep(instance, budgets=(200,), runs=4, base_seed=3)
    only = run_sweep(instance, budgets=(200,), runs=4, algorithms=("ts-v2",), base_seed=3)
    [sub_row] = only.rows
    [full_row] = [r for r in full.rows if r.algorithm == "ts-v2"]
    assert row_key(sub_row) == row_key(full_row)


def test_pooled_sweep_equals_the_serial_sweep(instance):
    serial = run_sweep(instance, budgets=(200, 400), runs=3, base_seed=11)
    pooled = run_sweep(instance, budgets=(200, 400), runs=3, base_seed=11, width=2)
    assert (pooled.instance_digest, pooled.truth) == (serial.instance_digest, serial.truth)

    def fields(row):
        record = asdict(row)
        del record["wall_time_s"]
        return record

    assert [fields(r) for r in pooled.rows] == [fields(r) for r in serial.rows]


@pytest.mark.parametrize("width", [0, -1])
def test_sweep_rejects_a_width_below_one(instance, width):
    with pytest.raises(ValueError, match="width must be >= 1"):
        run_sweep(instance, budgets=(200,), runs=1, width=width)


def test_pool_is_capped_at_one_worker_per_row(instance, monkeypatch):
    widths = []

    class RecordingExecutor:
        """Records ``max_workers`` and runs the cells in this process; starts no worker."""

        def __init__(self, max_workers, initializer, initargs):
            widths.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize):
            return map(fn, cells)

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(sweep_mod, "_SHARED", None)
    algorithms = ("csr-v1", "csr-v2")
    wide = run_sweep(instance, budgets=(200, 400), runs=2, algorithms=algorithms, width=64)
    assert widths == [4]
    serial = run_sweep(instance, budgets=(200, 400), runs=2, algorithms=algorithms)
    assert [row_key(r) for r in wide.rows] == [row_key(r) for r in serial.rows]
    run_sweep(instance, budgets=(200,), runs=2, algorithms=("csr-v1",), width=64)
    assert widths == [4]  # a single row runs serially


def test_sweep_records_failures_as_errors(instance, monkeypatch):
    # The cells call the runners through the sweep module, where the
    # benchmark's tracer also wraps them.
    real = sweep_mod.run_csr

    def flaky(prepared, T, fairness_eps, variant, *args, **kwargs):
        if variant == "v1":
            raise RuntimeError("synthetic breakage")
        return real(prepared, T, fairness_eps, variant, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_csr", flaky)
    curve = run_sweep(instance, budgets=(200,), runs=3, algorithms=("csr-v1", "csr-v2"))
    broken = next(r for r in curve.rows if r.algorithm == "csr-v1")
    healthy = next(r for r in curve.rows if r.algorithm == "csr-v2")
    assert broken.failures == 3
    assert broken.misidentifications == 3
    assert broken.error_rate == 1.0
    assert broken.no_fair_arm == 0
    assert broken.failure_kinds == {"RuntimeError": 3}
    assert broken.first_failure == "RuntimeError: synthetic breakage"
    assert healthy.failures == 0
    assert healthy.failure_kinds == {} and healthy.first_failure is None


@pytest.mark.parametrize(
    "budgets, runs, algorithms, match",
    [
        ((200,), 0, ALGORITHMS, "runs must be >= 1"),
        ((200, 3), 1, ("csr-v1",), r"csr-v1 needs budgets >= 4, got \[3\]"),
        ((7, 200), 1, ("csr-v2", "ts-v1"), r"ts-v1 needs budgets >= 8, got \[7\]"),
    ],
)
def test_sweep_rejects_bad_input_before_any_run(instance, budgets, runs, algorithms, match):
    with pytest.raises(ValueError, match=match):
        run_sweep(instance, budgets=budgets, runs=runs, algorithms=algorithms)


def test_sweep_accepts_the_schedule_minimums(instance):
    curve = run_sweep(instance, budgets=(4,), runs=1, algorithms=("csr-v1", "csr-v2"))
    curve_ts = run_sweep(instance, budgets=(8,), runs=1, algorithms=("ts-v1", "ts-v2"))
    assert all(row.failures == 0 for row in curve.rows + curve_ts.rows)


def test_sweep_requires_oracle_truth():
    model, arms = chain_model()
    bare = Instance(model=model, arms=arms, name="chain")
    with pytest.raises(ValueError, match="fairness_eps"):
        run_sweep(bare, budgets=(200,), runs=1)


def test_sweep_rejects_unknown_algorithms(instance):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_sweep(instance, budgets=(200,), runs=1, algorithms=("csr-v1", "sr"))


def test_error_curve_files(tmp_path, instance):
    curve = run_sweep(instance, budgets=(200, 400), runs=2, base_seed=1)
    csv_path = tmp_path / "curve.csv"
    json_path = tmp_path / "curve.json"
    error_curve_to_csv(curve, csv_path)
    error_curve_to_json(curve, json_path)

    with open(csv_path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == len(curve.rows)
    assert list(records[0]) == sweep_mod._CSV_FIELDS
    for record, row in zip(records, curve.rows):
        assert int(record["budget"]) == row.budget
        assert record["algorithm"] == row.algorithm
        assert int(record["misidentifications"]) == row.misidentifications
        assert float(record["error_rate"]) == row.error_rate
        assert record["instance_digest"] == curve.instance_digest

    payload = json.loads(json_path.read_text())
    assert payload["instance_digest"] == curve.instance_digest
    assert payload["truth"] == curve.truth
    assert len(payload["rows"]) == len(curve.rows)
    assert payload["rows"][0]["algorithm"] == curve.rows[0].algorithm
    assert payload["rows"][0]["failure_kinds"] == {}
    assert payload["rows"][0]["first_failure"] is None


def test_a_sweep_looks_its_instance_up_once(instance, monkeypatch):
    # Its oracle report reads the tables once and its prepare once; the cells
    # run on the prepared instance and look nothing up.
    lookup = sampling.instance_tables
    lookups = []

    def counted(model, arms):
        lookups.append(arms)
        return lookup(model, arms)

    monkeypatch.setattr(sampling, "instance_tables", counted)
    curve = run_sweep(instance, budgets=(200, 400), runs=2)
    assert sum(row.runs for row in curve.rows) == 16
    assert len(lookups) == 2


def test_an_instance_builds_its_cell_laws_once(monkeypatch):
    # The exact divergences, the oracle report, a sweep (which reads both)
    # and a run that prepares its own divergences all reduce one law table.
    instance = liver_experiment(10)
    build, joint = sampling._build_laws, oracles.enumerate_joint
    builds, enumerations = [], []

    def counted_build(model, *args):
        builds.append(args[-1])
        return build(model, *args)

    def counted_enumeration(*args, **kwargs):
        enumerations.append(args)
        return joint(*args, **kwargs)

    monkeypatch.setattr(sampling, "_build_laws", counted_build)
    sampling._TABLES.clear()
    for module in (oracles, divergence):
        monkeypatch.setattr(module, "enumerate_joint", counted_enumeration)
    DivergenceSet.exact(instance.model, instance.arms)
    oracle_report(instance, instance.fairness_eps)
    run_sweep(instance, [2000], runs=1, algorithms=["csr-v2"], width=1)
    run_algorithm(instance, "ts-v2", 2000, np.random.default_rng(0))
    assert len(builds) == 1
    assert enumerations == []


def test_an_instance_builds_its_weight_kernel_once(monkeypatch):
    # The exact divergences, a sweep and a run that prepares its own
    # divergences all read one kernel.
    instance = liver_experiment(10)
    builds = count_kernel_builds(monkeypatch)
    DivergenceSet.exact(instance.model, instance.arms)
    run_sweep(instance, [2000], runs=1, algorithms=["csr-v2"], width=1)
    run_algorithm(instance, "ts-v2", 2000, np.random.default_rng(0))
    assert len(builds) == 1
