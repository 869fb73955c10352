"""Seeded experiment sweeps over sample budgets and algorithms.

A sweep is a grid of (budget, algorithm) rows, and a row is its unit of
seeding, tallying and dispatch: ``_run_row`` seeds, runs, times and scores
one row's runs and returns its ``SweepRow``.  Row (budget index ``b``,
algorithm ``a``) draws its runs from ``SeedSequence(base_seed,
spawn_key=(b, ALGORITHMS.index(a))).spawn(runs)``, the generators of
``spawn_key=(b, ALGORITHMS.index(a), run)``.  The algorithm is seeded by its
place in ``ALGORITHMS``, so a sweep over a subset of the algorithms
reproduces the full sweep's rows; the budget is seeded by its place in the
caller's list, so a row reproduces only while its budget keeps its place.
A repeated budget or algorithm is refused.  A run that raises is recorded as
a failure, by exception class, and scored as an error.

A sweep prepares its instance once (``bandit.prepare``) and its runs make
no content lookup; ``run_algorithm`` prepares on each call.  The serial loop
and the pool take the same ``(T, algorithm, budget_index)`` row tuples.  At
``width > 1`` the rows go to a pool of ``min(width, rows)`` worker processes,
one task per row.  The prepared instance, the instance and the oracle truth
reach each worker once, through the pool initializer.  Workers started by
fork inherit the parent's allocation memo (see ``bandit``).
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
from typing import Callable, Sequence

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
    """Tallies of one (budget, algorithm) row, a sweep's unit of seeding, tallying and dispatch.

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


def _run_row(prepared: PreparedInstance, instance: Instance, truth: int | None, base_seed: int,
             runs: int, T: int, algorithm: str, budget_index: int) -> SweepRow:
    """The ``runs`` seeded runs of one (budget, algorithm) row, scored against the oracle."""
    seeds = np.random.SeedSequence(base_seed, spawn_key=(budget_index, ALGORITHMS.index(algorithm)))
    wrong = declared_none = 0
    seconds = 0.0
    failures: list[tuple[str, str]] = []  # (class name, message) of what each failed run raised
    for seed in seeds.spawn(runs):
        start = time.perf_counter()
        try:
            trace = _run_prepared(prepared, instance, algorithm, T,
                                  np.random.default_rng(seed), instance.fairness_eps)
        except Exception as exc:
            failures.append((type(exc).__name__, str(exc)))
        else:
            wrong += trace.decision != truth
            declared_none += trace.decision is None
        seconds += time.perf_counter() - start
    wrong += len(failures)
    return SweepRow(
        budget=T,
        algorithm=algorithm,
        runs=runs,
        misidentifications=wrong,
        no_fair_arm=declared_none,
        failures=len(failures),
        error_rate=wrong / runs,
        wall_time_s=seconds,
        base_seed=base_seed,
        failure_kinds=dict(Counter(kind for kind, _ in failures)),
        first_failure=": ".join(failures[0]) if failures else None,
    )


# ``_run_row`` bound to what the rows of a pooled sweep share, set per worker by ``_init_worker``.
_SHARED: Callable[..., SweepRow] | None = None


def _init_worker(run_row: Callable[..., SweepRow]) -> None:
    global _SHARED
    _SHARED = run_row


def _run_shared_row(row: tuple[int, str, int]) -> SweepRow:
    return _SHARED(*row)


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
    budgets = [int(T) for T in budgets]
    for name, values in (("budgets", budgets), ("algorithms", algorithms)):
        repeats = sorted(value for value, n in Counter(values).items() if n > 1)
        if repeats:
            raise ValueError(f"repeated {name}: {repeats}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        low = MIN_T_CSR if algorithm.startswith("csr-") else MIN_T_TWO_STAGE
        short = [T for T in budgets if T < low]
        if short:
            raise ValueError(f"{algorithm} needs budgets >= {low}, got {short}")
    truth = oracle_report(instance, instance.fairness_eps)["best_fair"]
    digest = instance_digest(instance)
    prepared = prepare(instance.model, instance.arms, default_budget(instance))
    run_row = partial(_run_row, prepared, instance, truth, base_seed, runs)

    grid = [(T, algorithm, bi) for bi, T in enumerate(budgets) for algorithm in algorithms]
    # One task per row, so more workers than rows would only sit idle.
    workers = min(width, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(run_row,)
        ) as pool:
            rows = tuple(pool.map(_run_shared_row, grid))
    else:
        rows = tuple(run_row(*row) for row in grid)
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
