"""Divergence cutoff matrices between arms, exact and Monte Carlo.

The outcome side uses the conditional f-divergence with ``f1(x) = x e^(x-1) - 1``
and the cutoff ``M[i, j] = 1 + ln(1 + D_f1(P_i || P_j))``.  The fairness side
uses ``D[i, j] = ln(E_{i,s}[exp |w|] + E_{i,s'}[exp |w|])`` where ``w`` is the
signed counterfactual weight of the pair.  Rows index the target arm ``i``,
columns the source arm ``j``.  Expectations are evaluated in log-sum-exp form
throughout, so entries stay finite even when individual weights overflow
``exp``.

Cost of the exact matrices: the fairness cells depend only on the target arm,
so each target is enumerated twice, once per forced regime, and every block
yields its weights against every source table in both directions at once.
The outcome cells need one more enumeration, for the marginal of the
intervention context, and then one pass over the context cells per source
column.  ``DivergenceSet.exact`` on K arms thus calls ``enumerate_joint``
2K + 1 times, and reduces block by block so it holds O(K * block) floats.
A caller that needs fewer source columns (the generator's band check reads
column 0 only) passes fewer source tables and pays for those alone.

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

from .model import Arm, CausalModel, Regime, S_VALUE, SPRIME_VALUE
from .oracles import (
    attribute_ratio_values,
    direction_values,
    enumerate_joint,
    marginal_rows,
)
from .sampling import counterfactual_weight, make_sampler, transport_weight

__all__ = ["DivergenceSet", "exact_columns"]

_DIRECTIONS = ("ssp", "sps")


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


def _outcome_column(marg: np.ndarray, tables: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Exact ``M[:, j]`` of the source table ``source`` against the ``tables`` stack.

    ``marg`` is the marginal over the intervention context rows.  Only the
    cells with ``p_j > 0`` enter, where the shared zero pattern between arms
    keeps ``w = P_i / P_j`` finite.  The diagonal cell comes out near 1, not
    exactly 1.
    """
    pj = marg[:, None] * source
    mask = pj > 0.0
    return _outcome_cutoff(np.log(pj[mask]), tables[:, mask] / source[mask])


def _fairness_cells(model: CausalModel, target: Arm, sources: np.ndarray, forced: int):
    """Blocks ``(probs under the target, w)`` of the forced regime S <- ``forced``.

    ``sources`` is a ``(K, rows, card)`` stack of source tables and ``w`` has
    shape ``(2, K, cells)``: the signed weight of ``ssp``, then of ``sps``,
    against each source.  The weight keeps the orientation of its direction
    while the evidence attribute runs over both values, which is what the
    two-regime expectation needs.
    """
    needed = [model.intervention, *model.children(model.sensitive)]
    v = model.intervention
    strides = model.row_strides(v)
    for probs, values in enumerate_joint(model, target, needed, force_s=forced):
        mask = probs > 0.0
        if not mask.any():
            continue
        sub = {x: col[mask] for x, col in values.items()}
        rows = np.zeros(int(mask.sum()), dtype=np.int64)
        for p, st in zip(model.parents[v], strides):
            rows += sub[p] * st
        w_v = target.table[rows, sub[v]] / sources[:, rows, sub[v]]
        w = np.empty((len(_DIRECTIONS),) + w_v.shape)
        for out, direction in zip(w, _DIRECTIONS):
            ratio = attribute_ratio_values(model, target, sub, *direction_values(direction))
            np.multiply(w_v, ratio - 1.0, out=out)
        yield probs[mask], w


def _fairness_rows(model: CausalModel, arms, sources: np.ndarray | None = None) -> np.ndarray:
    """Exact ``D_ssp`` and ``D_sps`` columns, shape ``(2, K, J)``.

    ``sources`` is a ``(J, rows, card)`` stack of source tables, every arm's
    by default; each column depends only on its own source table.
    """
    if sources is None:
        sources = np.stack([a.table for a in arms])
    d = np.empty((len(_DIRECTIONS), len(arms), len(sources)), dtype=float)
    for i, arm in enumerate(arms):
        parts = []
        for forced in (S_VALUE, SPRIME_VALUE):
            acc = np.full((len(_DIRECTIONS), len(sources)), -np.inf)
            for probs, w in _fairness_cells(model, arm, sources, forced):
                acc = np.logaddexp(acc, _logsumexp(np.log(probs) + np.abs(w)))
            parts.append(acc)
        d[:, i] = np.logaddexp(*parts)
    return d


def exact_columns(model: CausalModel, arms, source: int):
    """Column ``source`` of ``M``, ``D_ssp`` and ``D_sps``, in that order, built lazily.

    A generator: each column is built when it is asked for.  ``M``'s needs
    one enumeration; the two ``D`` columns come from the same 2K (one per
    target arm and forced regime), which a caller that stops after ``M``
    skips.  Every column equals the matching column of
    ``DivergenceSet.exact`` bit for bit, since it is the same arithmetic on
    one source table instead of K.
    """
    tables = np.stack([a.table for a in arms])
    marg = marginal_rows(model, model.intervention)
    m = _outcome_column(marg, tables, tables[source])
    m[source] = 1.0
    yield m
    yield from _fairness_rows(model, arms, tables[source : source + 1])[..., 0]


@dataclass
class DivergenceSet:
    """The three cutoff matrices a run needs, rows = target arm, columns = source arm."""

    m: np.ndarray
    d_ssp: np.ndarray
    d_sps: np.ndarray

    @classmethod
    def exact(cls, model: CausalModel, arms) -> "DivergenceSet":
        d_ssp, d_sps = _fairness_rows(model, arms)
        tables = np.stack([a.table for a in arms])
        marg = marginal_rows(model, model.intervention)
        m = np.ones((len(arms), len(arms)), dtype=float)
        for j, source in enumerate(tables):
            m[:, j] = _outcome_column(marg, tables, source)
        np.fill_diagonal(m, 1.0)
        return cls(m=m, d_ssp=d_ssp, d_sps=d_sps)

    @classmethod
    def mc(cls, model: CausalModel, arms, draws: int, rng: np.random.Generator) -> "DivergenceSet":
        """Monte Carlo matrices from batches of ``draws`` pulls, drawn in a fixed order.

        First one observational batch per source arm for ``M``; then, for
        ``D_ssp`` and again for ``D_sps``, one batch per target arm under
        S <- s and one under S <- s'.
        """
        k = len(arms)
        tables = np.stack([a.table for a in arms])
        pull = make_sampler(model, arms)
        m = np.ones((k, k), dtype=float)
        for j in range(k):
            batch = pull([(j, Regime.OBSERVATIONAL, draws)], rng)
            w = transport_weight(batch.cells.take(batch.cell), tables, tables[j])
            m[:, j] = _outcome_cutoff(-np.log(batch.n), w)
        np.fill_diagonal(m, 1.0)
        d = np.zeros((len(_DIRECTIONS), k, k), dtype=float)
        for out, direction in zip(d, _DIRECTIONS):
            for i, arm in enumerate(arms):
                parts = []
                for regime in (Regime.FORCE_S, Regime.FORCE_SPRIME):
                    b = pull([(i, regime, draws)], rng)
                    u = counterfactual_weight(b.cells.take(b.cell), arm.table, tables, direction)
                    parts.append(_logsumexp(np.abs(u)) - np.log(b.n))
                out[i] = np.logaddexp(*parts)
        return cls(m=m, d_ssp=d[0], d_sps=d[1])

    @property
    def n_arms(self) -> int:
        return self.m.shape[0]
