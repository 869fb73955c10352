"""Exact divergence cutoff matrices between arms.

The outcome side uses the conditional f-divergence with ``f1(x) = x e^(x-1) - 1``
and the cutoff ``M[i, j] = 1 + ln(1 + D_f1(P_i || P_j))``.  The fairness side
uses ``D[i, j] = ln(E_{i,s}[exp |w|] + E_{i,s'}[exp |w|])`` where ``w`` is the
signed counterfactual weight of the pair.  Rows index the target arm ``i``,
columns the source arm ``j``.  Expectations are evaluated in log-sum-exp form
throughout, so entries stay finite even when individual weights overflow
``exp``.

Both sides are reductions of one ``(K, 3, n_cells)`` table of cell masses
per arm and regime (``reduce_cell_laws``): column ``j`` of ``M`` reads the
cells that arm ``j`` reaches observationally, row ``i`` of each ``D`` the
cells that arm ``i`` reaches under each forced regime, each weighed against
every other arm by the estimators' weight kernel.  Laws and kernel are the
instance's tables (``sampling.instance_tables``), which an instance builds
once and each of its runs reads too.  ``DivergenceSet.exact`` reduces the
cell laws once per instance content, in O(K^2 * n_cells) past the tables,
which keep the reduction.

The arrays reduced here hold a few dozen cells, where the per-call overhead
of ``scipy.special.logsumexp`` (array-API dispatch, dtype promotion, the
always-computed fallback) outweighs the arithmetic.  The module therefore
uses no scipy ``logsumexp``: ``_logsumexp`` is a numpy port of it for real
input that performs the same operations in the same order, so its results
are bit-identical to scipy's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CausalModel
# Bound here, though no code of this module calls it, so that the benchmark's
# tracer (benchmarks/tracing.py) can count the calls made through it.
from .oracles import enumerate_joint
from .sampling import instance_tables

__all__ = ["DivergenceSet", "enumerate_joint", "reduce_cell_laws"]


def _logsumexp(a) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=-1)`` for real input, bit for bit.

    The operations are scipy 1.17's, in its order: the maximum, the count
    ``m`` of entries equal to it, the sum of the shifted exponentials of the
    other entries, ``s / m`` unless ``s`` is zero, then
    ``log1p(s) + log(m) + max``.  Where that is not finite (an all ``-inf``
    row, an infinite or NaN entry) the result is ``log(sum(exp(a)))``, as in
    scipy.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=-1, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=-1)))
    return out


def _outcome_cutoff(log_p, w: np.ndarray) -> np.ndarray:
    """``1 + ln E_j[w e^(w-1)]`` per row of ``w``, with ``log_p`` the log cell masses."""
    # ln E_j[w e^(w-1)] = ln(1 + D_f1) since the cell masses sum to one; a
    # zero ratio contributes exp(-inf) = 0.
    with np.errstate(divide="ignore"):
        return 1.0 + _logsumexp(log_p + np.log(w) + w - 1.0)


def reduce_cell_laws(laws: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, ...]:
    """``M``, ``D_ssp`` and ``D_sps`` of the ``(K, 3, n_cells)`` cell masses ``laws``.

    ``kernel`` is the arms' weight kernel.  Each expectation reads only the
    cells its law reaches, where the shared zero pattern between arms keeps
    the transport weight finite.  A gather ``w[..., at]`` comes out cell-major,
    the other arm fastest, as per-cell weights do, so each sum runs in their
    order and to their bits.  The diagonal of ``M`` is set to 1.
    """
    k = laws.shape[0]

    def reached(j: int, r: int):
        at = np.flatnonzero(laws[j, r])
        return at, np.log(laws[j, r, at])

    m = np.ones((k, k), dtype=float)
    for j in range(k):
        at, log_p = reached(j, 0)
        m[:, j] = _outcome_cutoff(log_p, kernel[0, j][..., at])
    np.fill_diagonal(m, 1.0)
    d = np.empty((2, k, k), dtype=float)
    for i in range(k):
        # A view of the "ssp" then the "sps" weights of every source arm against
        # target i, read on the cells arm i reaches under S <- s, then S <- s'.
        u = kernel[2:0:-1, :, i]
        parts = [_logsumexp(lp + np.abs(u[..., at])) for at, lp in (reached(i, 1), reached(i, 2))]
        d[:, i] = np.logaddexp(*parts)
    return m, d[0], d[1]


@dataclass
class DivergenceSet:
    """The three cutoff matrices a run needs, rows = target arm, columns = source arm."""

    m: np.ndarray
    d_ssp: np.ndarray
    d_sps: np.ndarray

    @classmethod
    def exact(cls, model: CausalModel, arms) -> "DivergenceSet":
        """Writable copies of ``InstanceTables.divergences``, reduced once per instance content."""
        return cls(*(matrix.copy() for matrix in instance_tables(model, arms).divergences))

    @property
    def n_arms(self) -> int:
        return self.m.shape[0]
