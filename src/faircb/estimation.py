"""Pooled clipped importance estimators over samples from every arm.

The outcome estimate for a target arm ``k`` pools every source arm ``j``,
downweights source ``j`` by ``1 / M[k, j]`` and drops terms whose importance
ratio exceeds ``2 ln(2 / eps) M[k, j]``.  The counterfactual estimates do the
same with the signed weights and the fairness cutoffs ``D``.  Cutoffs never
fall below one (outcome) or ``ln 2`` (fairness), so every kept term is bounded
by ``2 ln(2 / eps)`` after its ``1 / M`` or ``1 / D`` factor.

A pull enters the estimates only through its cell (``sampling`` documents the
cell code, the cell law and the ``Cells`` table), so the pool keeps
counts, not pulls: one dense ``(K, 3, n_cells)`` int64 array, a row of
per-cell counts per (source arm, regime) with regimes in ``REGIMES`` order,
and a ``(K, 3)`` mask of the blocks that have pulls.  ``add`` takes a batch
as ``sampling.sample_batch`` draws it, one row of per-cell counts per nonzero
entry of the phase's ``(K, 3)`` count matrix, and sums the rows into their
slots in one indexed add; ``clear`` zeroes both in place.

A weight depends only on the cell and on the source and target arm tables,
never on the phase or ``eps``; only the clip mask depends on ``eps``.  So a
pool is made from the instance's tables (``sampling.instance_tables``) and
reads their weight kernel when it is made, before any pull: the
``(3, K, K, n_cells)`` weights of every cell for every (regime, source,
target), which ``DivergenceSet.exact`` and every run of the instance share
through the tables' memo.  A run makes one pool, which v1 clears between
phases, so it reads the kernel once.  Each phase then gathers, per pulled
block (``SamplePool.pulled_blocks``: the mask's nonzero entries, source arm
by source arm, then in ``REGIMES`` order), the kernel columns of the block's
occupied cells, clips them and dots the kept weights with ``count * y``:
O(K * occupied cells) per block, the same at any horizon and for any number
of pooled phases.  A cell's fields are bit for bit those of each of its
pulls, so are its weights and clip masks; only the order of the summation
differs from a per-pull sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .divergence import DivergenceSet
from .model import REGIMES, Regime
from .sampling import BatchSamples, InstanceTables

__all__ = [
    "SamplePool",
    "EstimateVector",
    "estimate_all",
]


class SamplePool:
    """Append-only per-cell counts of the pulls of every source arm under every
    regime, weighed against every arm by the weight kernel of ``tables``."""

    def __init__(self, tables: InstanceTables):
        self._kernel = tables.kernel
        self._y = tables.cells.y
        self._counts = np.zeros(tables.laws.shape, dtype=np.int64)
        self.n_arms = len(self._counts)
        self._pulled = np.zeros((self.n_arms, len(REGIMES)), dtype=bool)

    def add(self, batch: BatchSamples) -> None:
        """Sum the count row of every drawn entry of ``batch`` into its (arm, regime) slot."""
        self._counts[batch.drawn] += batch.counts
        self._pulled[batch.drawn] = True

    def clear(self) -> None:
        """Drop every count, keeping the kernel, for a phase that reads its own pulls (v1)."""
        self._counts.fill(0)
        self._pulled.fill(False)

    def counts(self, regime: Regime) -> np.ndarray:
        return self._counts[:, REGIMES.index(regime)].sum(axis=1)

    def pulled_blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """Per block with pulls, source arm by source arm, then in ``REGIMES``
        order: the arm, the regime's index, the kernel weights of its occupied
        cells against every target arm, their counts and their outcomes."""
        for arm, r in zip(*np.nonzero(self._pulled)):
            counts = self._counts[arm, r]
            occupied = counts.nonzero()[0]
            # A cell-major gather: the matrix product's summation order, and so
            # the estimates' bits, follow this (target-fastest) layout.
            weights = self._kernel[r, arm].T[occupied].T
            yield int(arm), int(r), weights, counts[occupied], self._y[occupied]


@dataclass
class EstimateVector:
    """Per-arm estimates for one phase; missing entries are NaN, never zero.

    ``n_eff_*`` are the effective samples behind each estimate, sum_j n_j / C_kj
    over the pooled pulls of its regime, with C the estimate's cutoff matrix
    (M, D_sps or D_ssp); zero where the estimate is missing.
    """

    y: np.ndarray
    zeta_ssp: np.ndarray
    zeta_sps: np.ndarray
    eps: float
    n_eff_y: np.ndarray
    n_eff_ssp: np.ndarray
    n_eff_sps: np.ndarray


def estimate_all(pool: SamplePool, eps: float, div: DivergenceSet) -> EstimateVector:
    """All per-arm estimates at accuracy level ``eps``; empty pools turn into NaN.

    Each pulled source block is clipped and summed against every target arm
    at once, source arm by source arm, then in ``REGIMES`` order.  The outcome
    estimates read observational pulls only, since forced pulls target the
    forced means; each fairness direction reads the pulls forced to its
    evidence value: ``"sps"`` those forced to s, ``"ssp"`` those forced to s'.
    Transport weights are never negative, so one ``|w| <= cutoff`` mask
    serves all three.
    """
    log_term = 2.0 * math.log(2.0 / eps)
    cutoffs = (div.m, div.d_sps, div.d_ssp)
    norm = np.zeros((len(REGIMES), pool.n_arms))
    acc = np.zeros((len(REGIMES), pool.n_arms))
    for j, r, w, counts, y in pool.pulled_blocks():
        c = cutoffs[r][:, j]
        norm[r] += int(counts.sum()) / c
        acc[r] += ((w * (np.abs(w) <= (log_term * c)[:, None])) @ (counts * y)) / c

    with np.errstate(invalid="ignore", divide="ignore"):
        y, zeta_sps, zeta_ssp = np.where(norm > 0.0, acc / norm, np.nan)
    return EstimateVector(
        y=y, zeta_ssp=zeta_ssp, zeta_sps=zeta_sps, eps=eps,
        n_eff_y=norm[0], n_eff_ssp=norm[2], n_eff_sps=norm[1],
    )
