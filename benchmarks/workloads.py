"""The three pinned workloads and the closed-loop work one benchmark round does.

Instances are pinned; only the sweep ``base_seed`` and the latency-loop
seeds come from the benchmark's ``--seed``.  Every call into faircb goes
through its module attribute (``sweep.run_sweep``, not an imported name) so
that the traced pass can wrap it.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from faircb import bif, divergence, netgen, oracles, sweep, synth
from faircb.bandit import RunTrace
from faircb.model import Instance
from faircb.sweep import ALGORITHMS, ErrorCurve

LATENCY_ALGORITHM = "csr-v2"


@dataclass(frozen=True)
class Workload:
    """A pinned instance, its sweep grid and the latency runs per round.

    ``prepare`` makes the build input (a generator config or BIF text) and is
    not timed; ``build`` turns it into the instance and is part of set-up.
    ``runs`` is seeded runs per (budget, algorithm) in one sweep call.
    ``family`` names the closed form the oracle check uses.
    """

    name: str
    family: str
    prepare: Callable[[], object]
    build: Callable[[object], Instance]
    budgets: tuple[int, ...]
    runs: int
    width: int
    latency_runs: int
    divergence_band: tuple[float, float] | None = None

    @property
    def top_budget(self) -> int:
        return max(self.budgets)


def _synthetic_config(**fields) -> Callable[[], synth.SyntheticConfig]:
    return lambda: synth.SyntheticConfig(**fields)


def _generate(config: synth.SyntheticConfig) -> Instance:
    return synth.generate_synthetic(config)


def _liver_bif_text() -> str:
    net = bif.ParsedNetwork("liver", netgen.liver_network(), netgen.network_states())
    return bif.serialize_bif(net)


def _liver_experiment(text: str) -> Instance:
    parsed = bif.parse_bif(text)
    return netgen.build_network_experiment(
        parsed.model, "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-k30", "synthetic",
            _synthetic_config(n_arms=30, support=20, seed=5, reward_gap_band=(0.02, 0.06),
                              fairness_gap_band=(1.93, 1.99)),
            _generate, budgets=(3000, 6000), runs=2, width=1, latency_runs=100,
        ),
        Workload(
            "liver-k10", "network", _liver_bif_text, _liver_experiment,
            budgets=(6000, 10000), runs=1, width=1, latency_runs=100,
        ),
        Workload(
            "band-k5", "synthetic",
            _synthetic_config(n_arms=5, support=6, seed=4, fairness_eps=0.5,
                              fairness_gap_band=(0.3, 0.45), reward_gap_band=(0.3, 0.45),
                              divergence_band=(10.0, 50.0)),
            _generate, budgets=(1000, 2000, 4000), runs=7, width=2, latency_runs=300,
            divergence_band=(10.0, 50.0),
        ),
    )
}


@dataclass
class Setup:
    """What is built once before the first pull, and how long it took."""

    instance: Instance
    divergences: divergence.DivergenceSet
    report: dict
    seconds: float


def set_up(workload: Workload, build_input: object) -> Setup:
    start = time.perf_counter()
    instance = workload.build(build_input)
    divs = divergence.DivergenceSet.exact(instance.model, instance.arms)
    report = oracles.oracle_report(instance, instance.fairness_eps)
    return Setup(instance, divs, report, time.perf_counter() - start)


def session_seed(seed: int, session_index: int) -> int:
    """Base seed of a session's sweep and latency runs; session 0 uses ``seed`` itself."""
    return seed + (session_index << 32)


@dataclass
class Session:
    """One set-up, one sweep over the grid, then part of the latency loop."""

    setup: Setup
    base_seed: int
    curve: ErrorCurve
    sweep_s: float
    latency_s: list[float]
    decisions: list[int | None]
    latency_failed: int

    @property
    def attempted_runs(self) -> int:
        return sum(row.runs for row in self.curve.rows) + len(self.decisions) + self.latency_failed

    @property
    def failed_runs(self) -> int:
        return sum(row.failures for row in self.curve.rows) + self.latency_failed


def run_session(
    workload: Workload,
    build_input: object,
    base_seed: int,
    latency_runs: int,
    width: int,
    inspect: Callable[[Setup, RunTrace], None] = lambda setup, trace: None,
) -> Session:
    """Set up, run ``run_sweep`` over the grid, then ``latency_runs`` calls of
    the ``faircb run`` path at the top budget.

    Latency run ``i`` draws from ``SeedSequence(base_seed, spawn_key=(i,))``.
    ``inspect`` sees each latency trace outside the timed region, so traces
    need not be kept.
    """
    setup = set_up(workload, build_input)
    start = time.perf_counter()
    curve = sweep.run_sweep(
        setup.instance, workload.budgets, workload.runs, ALGORITHMS, base_seed, width
    )
    sweep_s = time.perf_counter() - start

    latency, decisions, failed = [], [], 0
    for i in range(latency_runs):
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(i,)))
        start = time.perf_counter()
        try:
            trace = sweep.run_algorithm(
                setup.instance, LATENCY_ALGORITHM, workload.top_budget, rng,
                divergences=setup.divergences,
            )
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        latency.append(time.perf_counter() - start)
        decisions.append(trace.decision)
        inspect(setup, trace)
    return Session(setup, base_seed, curve, sweep_s, latency, decisions, failed)
