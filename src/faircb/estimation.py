"""Pooled clipped importance estimators over samples from every arm.

The outcome estimate for a target arm ``k`` pools every source arm ``j``,
downweights source ``j`` by ``1 / M[k, j]`` and drops terms whose importance
ratio exceeds ``2 ln(2 / eps) M[k, j]``.  The counterfactual estimates do the
same with the signed weights and the fairness cutoffs ``D``.  Cutoffs never
fall below one (outcome) or ``ln 2`` (fairness), so every kept term is bounded
by ``2 ln(2 / eps)`` after its ``1 / M`` or ``1 / D`` factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSet
from .model import Regime
from .sampling import BatchSamples, concat_batches, counterfactual_weight, transport_weight

__all__ = [
    "SamplePool",
    "EstimateVector",
    "estimate_all",
]

_REGIMES = (Regime.OBSERVATIONAL, Regime.FORCE_S, Regime.FORCE_SPRIME)


class SamplePool:
    """Append-only store of pulls grouped by source arm and regime."""

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self._blocks: dict[tuple[int, Regime], list[BatchSamples]] = {}
        self._merged: dict[tuple[int, Regime], BatchSamples] = {}

    def add(self, batch: BatchSamples) -> None:
        if batch.n == 0:
            return
        if not 0 <= batch.arm < self.n_arms:
            raise ValueError(f"arm index {batch.arm} out of range")
        key = (batch.arm, batch.regime)
        self._blocks.setdefault(key, []).append(batch)
        self._merged.pop(key, None)

    def count(self, arm: int, regime: Regime) -> int:
        return sum(b.n for b in self._blocks.get((arm, regime), ()))

    def counts(self, regime: Regime) -> np.ndarray:
        return np.array([self.count(j, regime) for j in range(self.n_arms)], dtype=np.int64)

    def packed(self, arm: int, regime: Regime) -> BatchSamples | None:
        """Every pull of ``arm`` under ``regime`` as one block, or None when there are none."""
        key = (arm, regime)
        blocks = self._blocks.get(key)
        if not blocks:
            return None
        if key not in self._merged:
            self._merged[key] = concat_batches(blocks)
        return self._merged[key]


@dataclass
class EstimateVector:
    """Per-arm estimates for one phase; missing entries are NaN, never zero."""

    y: np.ndarray
    zeta_ssp: np.ndarray
    zeta_sps: np.ndarray
    eps: float

    def is_missing_outcome(self, k: int) -> bool:
        return bool(np.isnan(self.y[k]))

    def is_missing_fairness(self, k: int) -> bool:
        return bool(np.isnan(self.zeta_ssp[k]) or np.isnan(self.zeta_sps[k]))


def estimate_all(
    pool: SamplePool,
    arms,
    eps: float,
    div: DivergenceSet,
) -> EstimateVector:
    """All per-arm estimates at accuracy level ``eps``; empty pools turn into NaN.

    One pass over each source block weighs its pulls against every target
    arm at once.  The outcome estimates read observational pulls only, since
    forced pulls target the forced means; each fairness direction reads the
    pulls forced to its evidence value.
    """
    n = pool.n_arms
    tables = np.stack([arm.table for arm in arms])
    log_term = 2.0 * math.log(2.0 / eps)
    z = np.zeros(n)
    y_acc = np.zeros(n)
    o = {"ssp": np.zeros(n), "sps": np.zeros(n)}
    z_acc = {"ssp": np.zeros(n), "sps": np.zeros(n)}

    for j in range(n):
        for regime in _REGIMES:
            packed = pool.packed(j, regime)
            if packed is None:
                continue
            cnt = packed.n
            if regime is Regime.OBSERVATIONAL:
                w = transport_weight(packed, tables, tables[j])
                thr = (log_term * div.m[:, j])[:, None]
                z += cnt / div.m[:, j]
                y_acc += ((w * (w <= thr)) @ packed.y) / div.m[:, j]
                continue
            direction = "ssp" if regime is Regime.FORCE_SPRIME else "sps"
            d = div.d_ssp if direction == "ssp" else div.d_sps
            u = counterfactual_weight(packed, tables, tables[j], direction)
            thr = (log_term * d[:, j])[:, None]
            o[direction] += cnt / d[:, j]
            z_acc[direction] += ((u * (np.abs(u) <= thr)) @ packed.y) / d[:, j]

    with np.errstate(invalid="ignore", divide="ignore"):
        y = np.where(z > 0.0, y_acc / z, np.nan)
        zeta_ssp = np.where(o["ssp"] > 0.0, z_acc["ssp"] / o["ssp"], np.nan)
        zeta_sps = np.where(o["sps"] > 0.0, z_acc["sps"] / o["sps"], np.nan)
    return EstimateVector(y=y, zeta_ssp=zeta_ssp, zeta_sps=zeta_sps, eps=eps)
