"""The benchmark's traced pass sees all of the package's sampling and estimation.

``benchmarks/tracing.py`` charges sampling to the ``sampling.batch`` span it
wraps around ``faircb.sampling.sample_batch``.  A run must draw every pull
through that attribute, once per phase that pulls, or the per-layer split
would hide sampling time in another layer.  Its ``estimation.terms`` counter
reads the pool that ``faircb.bandit.estimate_all`` is handed, so the pool's
counts must stay the pulls pooled at that phase.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from faircb import sweep
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
