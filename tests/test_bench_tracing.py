"""The benchmark's traced pass sees all of the package's sampling.

``benchmarks/tracing.py`` charges sampling to the ``sampling.batch`` span it
wraps around ``faircb.sampling.sample_batch``.  A run must draw every pull
through that attribute, once per phase that pulls, or the per-layer split
would hide sampling time in another layer.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

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
