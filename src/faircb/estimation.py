"""Pooled clipped importance estimators over samples from every arm.

The outcome estimate for a target arm ``k`` pools every source arm ``j``,
downweights source ``j`` by ``1 / M[k, j]`` and drops terms whose importance
ratio exceeds ``2 ln(2 / eps) M[k, j]``.  The counterfactual estimates do the
same with the signed weights and the fairness cutoffs ``D``.  Cutoffs never
fall below one (outcome) or ``ln 2`` (fairness), so every kept term is bounded
by ``2 ln(2 / eps)`` after its ``1 / M`` or ``1 / D`` factor.

A pull enters the estimates only through its cell (``sampling`` documents the
cell code and the model's ``Cells`` table), so the pool keeps counts, not
pulls: one int64 vector of ``n_cells`` counts per (source arm, regime), 3K *
``n_cells`` words in all, and a reference to the table.  ``add`` counts a
whole batch, every block of a phase, in one ``bincount`` over
``block * n_cells + cell``.  Each source block
weighs its occupied cells once against every target and dots the kept
weights with ``count * y``, so a phase costs O(K * occupied cells) per source
block, the same at any horizon and for any number of pooled phases.  A cell's
fields are bit for bit those of each of its pulls, so are its weights and
clip masks; only the order of the summation differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSet
from .model import REGIMES, Regime
from .sampling import BatchSamples, Cells, counterfactual_weight, transport_weight

__all__ = [
    "SamplePool",
    "EstimateVector",
    "estimate_all",
]


class SamplePool:
    """Append-only per-cell counts of the pulls of every source arm under every regime."""

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self._counts: dict[tuple[int, Regime], np.ndarray] = {}
        self._cells: Cells | None = None

    def add(self, batch: BatchSamples) -> None:
        """Count the pulls of every block of ``batch``, in one ``bincount``."""
        if batch.n == 0:
            return
        for arm, _, _ in batch.blocks:
            if not 0 <= arm < self.n_arms:
                raise ValueError(f"arm index {arm} out of range")
        self._cells = batch.cells
        sizes = [n for _, _, n in batch.blocks]
        width = batch.n_cells
        block = np.repeat(np.arange(len(sizes)), sizes)
        hits = np.bincount(block * width + batch.cell, minlength=len(sizes) * width)
        for (arm, regime, n), counts in zip(batch.blocks, hits.reshape(len(sizes), width)):
            if n:
                key = (arm, regime)
                self._counts[key] = self._counts.get(key, 0) + counts

    def count(self, arm: int, regime: Regime) -> int:
        counts = self._counts.get((arm, regime))
        return 0 if counts is None else int(counts.sum())

    def counts(self, regime: Regime) -> np.ndarray:
        return np.array([self.count(j, regime) for j in range(self.n_arms)], dtype=np.int64)

    def cells(self, arm: int, regime: Regime) -> tuple[Cells, np.ndarray] | None:
        """The fields and counts of the occupied cells of ``arm`` under ``regime``,
        or None when there are no pulls."""
        counts = self._counts.get((arm, regime))
        if counts is None:
            return None
        occupied = np.flatnonzero(counts)
        return self._cells.take(occupied), counts[occupied]


@dataclass
class EstimateVector:
    """Per-arm estimates for one phase; missing entries are NaN, never zero."""

    y: np.ndarray
    zeta_ssp: np.ndarray
    zeta_sps: np.ndarray
    eps: float


def estimate_all(
    pool: SamplePool,
    arms,
    eps: float,
    div: DivergenceSet,
) -> EstimateVector:
    """All per-arm estimates at accuracy level ``eps``; empty pools turn into NaN.

    One pass over each source block weighs its occupied cells against every
    target arm at once.  The outcome estimates read observational pulls only,
    since forced pulls target the forced means; each fairness direction reads
    the pulls forced to its evidence value.
    """
    n = pool.n_arms
    tables = np.stack([arm.table for arm in arms])
    log_term = 2.0 * math.log(2.0 / eps)
    z = np.zeros(n)
    y_acc = np.zeros(n)
    o = {"ssp": np.zeros(n), "sps": np.zeros(n)}
    z_acc = {"ssp": np.zeros(n), "sps": np.zeros(n)}

    for j in range(n):
        for regime in REGIMES:
            block = pool.cells(j, regime)
            if block is None:
                continue
            cells, counts = block
            cnt = int(counts.sum())
            mass = counts * cells.y
            if regime is Regime.OBSERVATIONAL:
                w = transport_weight(cells, tables, tables[j])
                thr = (log_term * div.m[:, j])[:, None]
                z += cnt / div.m[:, j]
                y_acc += ((w * (w <= thr)) @ mass) / div.m[:, j]
                continue
            direction = "ssp" if regime is Regime.FORCE_SPRIME else "sps"
            d = div.d_ssp if direction == "ssp" else div.d_sps
            u = counterfactual_weight(cells, tables, tables[j], direction)
            thr = (log_term * d[:, j])[:, None]
            o[direction] += cnt / d[:, j]
            z_acc[direction] += ((u * (np.abs(u) <= thr)) @ mass) / d[:, j]

    with np.errstate(invalid="ignore", divide="ignore"):
        y = np.where(z > 0.0, y_acc / z, np.nan)
        zeta_ssp = np.where(o["ssp"] > 0.0, z_acc["ssp"] / o["ssp"], np.nan)
        zeta_sps = np.where(o["sps"] > 0.0, z_acc["sps"] / o["sps"], np.nan)
    return EstimateVector(y=y, zeta_ssp=zeta_ssp, zeta_sps=zeta_sps, eps=eps)
