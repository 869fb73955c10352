"""The benchmark's traced pass sees all of the package's sampling and estimation,
and the sweep's cells under the sweep.

``benchmarks/tracing.py`` charges sampling to the ``sampling.batch`` span it
wraps around ``faircb.sampling.sample_batch``.  A run must draw every pull
through that attribute, once per phase that pulls, or the per-layer split
would hide sampling time in another layer.  Its ``estimation.terms`` counter
reads the pool that ``faircb.bandit.estimate_all`` is handed, so the pool's
counts must stay the pulls pooled at that phase.  Sweep cells must call the
runners through ``faircb.sweep``'s module attributes, where the tracer wraps
them, and reduce no divergences that set-up already reduced, or the
``sweep.cells`` and ``bandit.self_s`` metrics would read wrong without an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from faircb import divergence, sweep
from faircb.model import Instance

from helpers import chain_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402


def test_traced_run_counts_every_pull_in_one_batch_per_phase():
    model, arms = chain_model()
    instance = Instance(model=model, arms=tuple(arms))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        trace = sweep.run_algorithm(
            instance, "csr-v2", 2000, np.random.default_rng(0), budget=1.0, fairness_eps=0.2
        )
    batches = sum(span.name == "sampling.batch" for span in tracer.spans)
    pulled = sum(phase.samples > 0 for phase in trace.phases)
    assert tracer.counts["sampling.pulls"] == trace.samples_spent > 0
    assert batches == pulled > 0


@pytest.mark.parametrize("algorithm", ["csr-v1", "csr-v2"])
def test_traced_terms_are_targets_times_pooled_pulls(algorithm):
    model, arms = chain_model()
    instance = Instance(model=model, arms=tuple(arms))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        trace = sweep.run_algorithm(
            instance, algorithm, 2000, np.random.default_rng(0), budget=1.0, fairness_eps=0.2
        )
    pulls = np.array([phase.samples for phase in trace.phases])
    # A v1 phase estimates from its own pulls, a v2 phase from every pull so far.
    pooled = pulls if algorithm == "csr-v1" else np.cumsum(pulls)
    assert sum(span.name == "estimation.estimate" for span in tracer.spans) == len(trace.phases)
    assert tracer.counts["estimation.terms"] == len(arms) * int(pooled.sum()) > 0


def test_traced_sweep_cells_run_under_the_sweep_and_reduce_no_divergences():
    model, arms = chain_model()
    instance = Instance(model=model, arms=tuple(arms), fairness_eps=0.2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        divergence.DivergenceSet.exact(model, arms)
        curve = sweep.run_sweep(instance, [400], runs=1, width=1)
    [sweep_span] = [span for span in tracer.spans if span.name == "sweep.run"]
    runs = [span for span in tracer.spans if span.name == "bandit.run"]
    assert len(runs) == sum(row.runs for row in curve.rows) == len(sweep.ALGORITHMS)
    assert all(span.parent == sweep_span.id for span in runs)
    assert sum(span.name == "divergence.exact" for span in tracer.spans) == 1
