"""Seeded experiment sweeps over sample budgets and algorithms.

Every run draws its generator from ``SeedSequence(base_seed,
spawn_key=(budget_index, algorithm_id, run_index))``, so any row of the
output is reproducible in isolation.  A run that raises is recorded as a
failure, by exception class, and scored as an error.

A sweep prepares its instance once (``bandit.prepare``) and its cells make
no content lookup; ``run_algorithm`` prepares on each call.  At ``width > 1``
the runs go to a pool of ``min(width, rows)`` worker processes, one per
(budget, algorithm) row at most.  The prepared instance, the instance and
the oracle truth reach each worker once, through the pool initializer; a cell
then travels as its indices only, one row per chunk.  Workers started by fork
inherit the parent's allocation memo (see ``bandit``).
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .allocation import cheap_arm_cap
from .bandit import MIN_T_CSR, MIN_T_TWO_STAGE, PreparedInstance, RunTrace, prepare
from .bandit import run_csr, run_two_stage
from .divergence import DivergenceSet
from .io import instance_digest
from .model import Instance
from .oracles import oracle_report

__all__ = ["ALGORITHMS", "SweepRow", "ErrorCurve", "default_budget",
           "run_algorithm", "run_sweep", "error_curve_to_csv", "error_curve_to_json"]

# Canonical ids; seeding uses positions in this tuple, not in the caller's list.
ALGORITHMS = ("csr-v1", "csr-v2", "ts-v1", "ts-v2")


@dataclass(frozen=True)
class SweepRow:
    """Tallies of the seeded runs of one (budget, algorithm) cell.

    ``wall_time_s`` is the sum of the per-run seconds.  Runs overlap at
    ``width > 1``, so there it exceeds the wall time of the sweep.
    ``failure_kinds`` counts the failed runs by exception class and
    ``first_failure`` is ``"Class: message"`` of the first, or None.
    """

    budget: int
    algorithm: str
    runs: int
    misidentifications: int
    no_fair_arm: int
    failures: int
    error_rate: float
    wall_time_s: float
    base_seed: int
    failure_kinds: dict[str, int]
    first_failure: str | None


@dataclass
class ErrorCurve:
    rows: tuple[SweepRow, ...]
    instance_digest: str
    truth: int | None


def default_budget(instance: Instance) -> float:
    """Per-sample cost cap that never binds: the most expensive single pull."""
    costs = [
        max(a.cost_pull, a.cost_force_s, a.cost_force_sprime) for a in instance.arms
    ]
    return max(costs) if costs else 0.0


def run_algorithm(
    instance: Instance,
    algorithm: str,
    T: int,
    rng: np.random.Generator,
    budget: float | None = None,
    fairness_eps: float | None = None,
    divergences: DivergenceSet | None = None,
) -> RunTrace:
    """Dispatch one seeded run of any registered algorithm, preparing the instance for it."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    eps = instance.fairness_eps if fairness_eps is None else fairness_eps
    if eps is None:
        raise ValueError("no fairness tolerance: set instance.fairness_eps or pass one")
    budget = default_budget(instance) if budget is None else budget
    prepared = prepare(instance.model, instance.arms, budget, divergences)
    return _run_prepared(prepared, instance, algorithm, T, rng, eps)


def _run_prepared(prepared: PreparedInstance, instance: Instance, algorithm: str, T: int,
                  rng: np.random.Generator, fairness_eps: float) -> RunTrace:
    family, variant = algorithm.split("-")
    runner = run_csr if family == "csr" else run_two_stage
    extra = (cheap_arm_cap(instance.n_arms, 0, T),) if instance.cheap_arm_constraint else ()
    return runner(prepared, T, fairness_eps, variant, rng, extra_constraints=extra)


class _Outcome(NamedTuple):
    wrong: bool
    declared_none: bool
    seconds: float
    failure: tuple[str, str] | None  # (class name, message) of what a failed run raised


def _run_cell(
    prepared: PreparedInstance,
    instance: Instance,
    truth: int | None,
    algorithm: str,
    T: int,
    base_seed: int,
    budget_index: int,
    run_index: int,
) -> _Outcome:
    """One seeded run scored against the oracle."""
    ss = np.random.SeedSequence(
        base_seed, spawn_key=(budget_index, ALGORITHMS.index(algorithm), run_index)
    )
    rng = np.random.default_rng(ss)
    start = time.perf_counter()
    try:
        trace = _run_prepared(prepared, instance, algorithm, T, rng, instance.fairness_eps)
    except Exception as exc:
        return _Outcome(True, False, time.perf_counter() - start, (type(exc).__name__, str(exc)))
    elapsed = time.perf_counter() - start
    return _Outcome(trace.decision != truth, trace.decision is None, elapsed, None)


# ``_run_cell`` bound to what the cells of a pooled sweep share, set per worker by ``_init_worker``.
_SHARED: Callable[..., _Outcome] | None = None


def _init_worker(run_cell: Callable[..., _Outcome]) -> None:
    global _SHARED
    _SHARED = run_cell


def _run_shared_cell(cell: tuple) -> _Outcome:
    return _SHARED(*cell)


def _row(T: int, algorithm: str, base_seed: int, outcomes: Sequence[_Outcome]) -> SweepRow:
    runs = len(outcomes)
    wrong = sum(o.wrong for o in outcomes)
    failures = [o.failure for o in outcomes if o.failure is not None]
    return SweepRow(
        budget=T,
        algorithm=algorithm,
        runs=runs,
        misidentifications=wrong,
        no_fair_arm=sum(o.declared_none for o in outcomes),
        failures=len(failures),
        error_rate=wrong / runs,
        wall_time_s=sum(o.seconds for o in outcomes),
        base_seed=base_seed,
        failure_kinds=dict(Counter(kind for kind, _ in failures)),
        first_failure=": ".join(failures[0]) if failures else None,
    )


def run_sweep(
    instance: Instance,
    budgets: Sequence[int],
    runs: int,
    algorithms: Sequence[str] = ALGORITHMS,
    base_seed: int = 0,
    width: int = 1,
) -> ErrorCurve:
    """Score ``runs`` seeded runs per (budget, algorithm) against the exact oracle.

    ``width`` (at least 1) caps the worker processes; width 1 runs serially.
    """
    if instance.fairness_eps is None:
        raise ValueError("instance has no fairness_eps; sweeps need the oracle truth")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        low = MIN_T_CSR if algorithm.startswith("csr-") else MIN_T_TWO_STAGE
        short = [int(T) for T in budgets if int(T) < low]
        if short:
            raise ValueError(f"{algorithm} needs budgets >= {low}, got {short}")
    truth = oracle_report(instance, instance.fairness_eps)["best_fair"]
    digest = instance_digest(instance)
    prepared = prepare(instance.model, instance.arms, default_budget(instance))
    run_cell = partial(_run_cell, prepared, instance, truth)

    grid = [(int(T), algorithm, bi) for bi, T in enumerate(budgets) for algorithm in algorithms]
    cells = [(algorithm, T, base_seed, bi, run) for T, algorithm, bi in grid for run in range(runs)]
    # One chunk per row, so more workers than rows would only sit idle.
    workers = min(width, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(run_cell,)
        ) as pool:
            outcomes = list(pool.map(_run_shared_cell, cells, chunksize=runs))
    else:
        outcomes = [run_cell(*cell) for cell in cells]

    rows = tuple(
        _row(T, algorithm, base_seed, outcomes[i * runs : (i + 1) * runs])
        for i, (T, algorithm, _) in enumerate(grid)
    )
    return ErrorCurve(rows=rows, instance_digest=digest, truth=truth)


_CSV_FIELDS = [
    "budget", "algorithm", "runs", "misidentifications", "no_fair_arm",
    "failures", "error_rate", "wall_time_s", "base_seed", "instance_digest",
]


def error_curve_to_csv(curve: ErrorCurve, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for row in curve.rows:
            record = asdict(row)
            record["instance_digest"] = curve.instance_digest
            writer.writerow(record)


def error_curve_to_json(curve: ErrorCurve, path: str | Path) -> None:
    payload = {
        "instance_digest": curve.instance_digest,
        "truth": curve.truth,
        "rows": [asdict(row) for row in curve.rows],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")
