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
phases, so it reads the kernel once.  Each phase gathers the kernel rows of
the occupied cells of every pulled block at once (``SamplePool.pulled``: the
mask's nonzero entries, source arm by source arm, then in ``REGIMES`` order),
clips them in one pass and makes one product per block of its kept weights
with ``count * y``: O(K * occupied cells) per block at any horizon.  Each
product reads the block's own slice, in the layout a gather of that block
alone gives, and the blocks add up one after another, so the bits of the
estimates do not depend on the other blocks.  A cell's fields are bit for bit
those of each of its pulls, so are its weights and clip masks; only the
order of the summation differs from a per-pull sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSet
from .model import REGIMES, Regime
from .sampling import BatchSamples, InstanceTables

__all__ = [
    "SamplePool",
    "EstimateVector",
    "estimate_all",
]


# Every pulled block's source arm, regime index, occupied cells and pulls, and
# per occupied cell, block after block, its weights and its count times its outcome.
PulledBlocks = namedtuple("PulledBlocks", "arms regimes sizes pulls weights cy")


class SamplePool:
    """Append-only per-cell counts of the pulls of every source arm under every
    regime, weighed against every arm by the weight kernel of ``tables``."""

    def __init__(self, tables: InstanceTables):
        # A view of the cell-major kernel; row (r K + j) n_cells + cell is (r, j, cell).
        self._rows = tables.kernel.transpose(0, 1, 3, 2).reshape(-1, len(tables.laws))
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

    def pulled(self) -> PulledBlocks:
        """Every block with pulls, source arm by source arm, then in ``REGIMES``
        order, gathered at once: the kernel rows of its occupied cells, and
        their counts times their outcomes."""
        arms, regimes = np.nonzero(self._pulled)
        rows = self._counts[arms, regimes]
        at = np.flatnonzero(rows)
        block, cell = np.divmod(at, rows.shape[1])
        origin = (regimes * self.n_arms + arms) * rows.shape[1]
        return PulledBlocks(arms, regimes, np.count_nonzero(rows, axis=1), rows.sum(axis=1),
                            self._rows.take(origin[block] + cell, axis=0),
                            rows.ravel()[at] * self._y[cell])


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

    Every pulled source block is clipped at once and summed against every
    target arm in one product, source arm by source arm, then in ``REGIMES``
    order.  The outcome estimates read observational pulls only, since forced
    pulls target the forced means; each fairness direction reads the pulls
    forced to its evidence value: ``"sps"`` those forced to s, ``"ssp"`` those
    forced to s'.  Transport weights are never negative, so one
    ``|w| <= cutoff`` mask serves all three.
    """
    log_term = 2.0 * math.log(2.0 / eps)
    blocks = pool.pulled()
    c = np.array((div.m, div.d_sps, div.d_ssp))[blocks.regimes, :, blocks.arms]
    kept = blocks.weights * (
        np.abs(blocks.weights) <= (log_term * c).repeat(blocks.sizes, axis=0))
    ends = np.cumsum(blocks.sizes).tolist()
    dots = np.array([kept[lo:hi].T @ blocks.cy[lo:hi]
                     for lo, hi in zip([0, *ends], ends)]).reshape(c.shape)
    # ``add.at`` adds the blocks one after another in block order; ``np.sum``
    # would sum pairwise and move the last bits.
    norm, acc = np.zeros((2, len(REGIMES), pool.n_arms))
    np.add.at(norm, blocks.regimes, blocks.pulls[:, None] / c)
    np.add.at(acc, blocks.regimes, dots / c)

    with np.errstate(invalid="ignore", divide="ignore"):
        y, zeta_sps, zeta_ssp = np.where(norm > 0.0, acc / norm, np.nan)
    return EstimateVector(
        y=y, zeta_ssp=zeta_ssp, zeta_sps=zeta_sps, eps=eps,
        n_eff_y=norm[0], n_eff_ssp=norm[2], n_eff_sps=norm[1],
    )
