"""Divergence matrices between arms and the empirical quantiles they dominate.

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
from .sampling import counterfactual_weight, sample_batch, transport_weight

__all__ = [
    "f1",
    "conditional_f_divergence",
    "outcome_matrix",
    "fairness_matrix",
    "DivergenceSet",
    "exact_columns",
    "empirical_quantile_eta",
    "empirical_quantile_gamma",
]

_QUANTILE_ATOL = 1e-12


def f1(x):
    """Convex generator ``x * exp(x - 1) - 1`` with ``f1(1) = 0``."""
    x = np.asarray(x, dtype=float)
    out = x * np.exp(x - 1.0) - 1.0
    return out if out.ndim else float(out)


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


def _outcome_cells(marg: np.ndarray, targets: np.ndarray, source: np.ndarray):
    """Cells ``(p_j, p_i, w)`` of the intervention context under the source measure.

    ``marg`` is the marginal over the context rows and ``targets`` a
    ``(K, rows, card)`` stack of target tables; ``p_i`` and ``w = P_i / P_j``
    carry one row per target.  ``p_j > 0`` on every returned cell; the shared
    zero pattern between arms makes ``w`` finite there.
    """
    pj = marg[:, None] * source
    mask = pj > 0.0
    pi = (marg[:, None] * targets)[:, mask]
    return pj[mask], pi, targets[:, mask] / source[mask]


def conditional_f_divergence(
    model: CausalModel,
    arm_i: Arm,
    arm_j: Arm,
    mode: str = "exact",
    draws: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """``E_j[f1(P_i / P_j)]`` over the intervention context, exact by default."""
    if mode == "exact":
        marg = marginal_rows(model, model.intervention)
        pj, _, w = _outcome_cells(marg, arm_i.table[None], arm_j.table)
        return float(pj @ f1(w[0]))
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("mc mode needs an rng")
    batch = sample_batch(model, arm_j, Regime.OBSERVATIONAL, draws, rng)
    return float(np.mean(f1(transport_weight(batch, arm_i.table, arm_j.table))))


def _outcome_cutoff(log_p, w: np.ndarray) -> np.ndarray:
    """``1 + ln E_j[w e^(w-1)]`` per row of ``w``, with ``log_p`` the log cell masses."""
    # ln E_j[w e^(w-1)] = ln(1 + D_f1) since the cell masses sum to one; a
    # zero ratio contributes exp(-inf) = 0.
    with np.errstate(divide="ignore"):
        return 1.0 + _logsumexp(log_p + np.log(w) + w - 1.0)


def _outcome_column(marg: np.ndarray, tables: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Exact ``M[:, j]`` of the source table ``source`` against the ``tables`` stack.

    ``marg`` is the marginal over the intervention context rows.  The
    diagonal cell comes out near 1, not exactly 1.
    """
    pj, _, w = _outcome_cells(marg, tables, source)
    return _outcome_cutoff(np.log(pj), w)


def outcome_matrix(
    model: CausalModel,
    arms: list[Arm] | tuple[Arm, ...],
    mode: str = "exact",
    draws: int = 100_000,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Cutoff matrix ``M[i, j] = 1 + ln(1 + D_f1(P_i || P_j))`` with unit diagonal."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "mc" and rng is None:
        raise ValueError("mc mode needs an rng")
    k = len(arms)
    m = np.ones((k, k), dtype=float)
    tables = np.stack([a.table for a in arms])
    if mode == "exact":
        marg = marginal_rows(model, model.intervention)
    for j in range(k):
        if mode == "exact":
            m[:, j] = _outcome_column(marg, tables, tables[j])
        else:
            batch = sample_batch(model, arms[j], Regime.OBSERVATIONAL, draws, rng)
            w = transport_weight(batch, tables, tables[j])
            m[:, j] = _outcome_cutoff(-np.log(batch.n), w)
    np.fill_diagonal(m, 1.0)
    return m


def _fairness_cells(
    model: CausalModel,
    target: Arm,
    sources: np.ndarray,
    directions: tuple[str, ...],
    forced: int,
):
    """Blocks ``(probs under the target, w)`` of the forced regime S <- ``forced``.

    ``sources`` is a ``(K, rows, card)`` stack of source tables and ``w`` has
    shape ``(len(directions), K, cells)``: the signed weight of each direction
    against each source.  The weight keeps the orientation of its direction
    while the evidence attribute runs over both values, which is what the
    two-regime expectation and the two-sided quantile need.
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
        w = np.empty((len(directions),) + w_v.shape)
        for out, direction in zip(w, directions):
            ratio = attribute_ratio_values(model, target, sub, *direction_values(direction))
            np.multiply(w_v, ratio - 1.0, out=out)
        yield probs[mask], w


def _fairness_rows(
    model: CausalModel,
    arms,
    directions: tuple[str, ...],
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """Exact ``D`` columns of ``directions``, shape ``(len(directions), K, J)``.

    ``sources`` is a ``(J, rows, card)`` stack of source tables, every arm's
    by default; each column depends only on its own source table.
    """
    if sources is None:
        sources = np.stack([a.table for a in arms])
    d = np.empty((len(directions), len(arms), len(sources)), dtype=float)
    for i, arm in enumerate(arms):
        parts = []
        for forced in (S_VALUE, SPRIME_VALUE):
            acc = np.full((len(directions), len(sources)), -np.inf)
            for probs, w in _fairness_cells(model, arm, sources, directions, forced):
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
    yield from _fairness_rows(model, arms, ("ssp", "sps"), tables[source : source + 1])[..., 0]


def fairness_matrix(
    model: CausalModel,
    arms: list[Arm] | tuple[Arm, ...],
    direction: str,
    mode: str = "exact",
    draws: int = 100_000,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Cutoff matrix ``D[i, j]`` for the counterfactual weights of ``direction``."""
    direction_values(direction)  # rejects an unknown direction in either mode
    if mode == "exact":
        return _fairness_rows(model, arms, (direction,))[0]
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("mc mode needs an rng")
    tables = np.stack([a.table for a in arms])
    d = np.zeros((len(arms), len(arms)), dtype=float)
    for i, arm in enumerate(arms):
        batches = [
            sample_batch(model, arm, reg, draws, rng)
            for reg in (Regime.FORCE_S, Regime.FORCE_SPRIME)
        ]
        parts = [
            _logsumexp(np.abs(counterfactual_weight(b, arm.table, tables, direction)))
            - np.log(b.n)
            for b in batches
        ]
        d[i] = np.logaddexp(*parts)
    return d


@dataclass
class DivergenceSet:
    """The three cutoff matrices a run needs, rows = target arm, columns = source arm."""

    m: np.ndarray
    d_ssp: np.ndarray
    d_sps: np.ndarray

    @classmethod
    def exact(cls, model: CausalModel, arms) -> "DivergenceSet":
        d_ssp, d_sps = _fairness_rows(model, arms, ("ssp", "sps"))
        return cls(m=outcome_matrix(model, arms), d_ssp=d_ssp, d_sps=d_sps)

    @classmethod
    def mc(cls, model: CausalModel, arms, draws: int, rng: np.random.Generator) -> "DivergenceSet":
        return cls(
            m=outcome_matrix(model, arms, mode="mc", draws=draws, rng=rng),
            d_ssp=fairness_matrix(model, arms, "ssp", mode="mc", draws=draws, rng=rng),
            d_sps=fairness_matrix(model, arms, "sps", mode="mc", draws=draws, rng=rng),
        )

    @property
    def n_arms(self) -> int:
        return self.m.shape[0]


def _min_tail_quantile(weights: np.ndarray, probs: np.ndarray, bound: float) -> float:
    """Smallest support value ``q`` with ``P(W > q) <= bound``."""
    order = np.argsort(weights, kind="stable")
    w, p = weights[order], probs[order]
    uniq, start = np.unique(w, return_index=True)
    ends = np.r_[start[1:], w.shape[0]] - 1
    cum = np.cumsum(p)
    tails = cum[-1] - cum[ends]
    ok = tails <= bound + _QUANTILE_ATOL
    return float(uniq[int(np.argmax(ok))])


def empirical_quantile_eta(
    model: CausalModel, arm_i: Arm, arm_j: Arm, eps: float
) -> float:
    """Smallest ``eta`` with ``P_i(P_i / P_j > eta) <= eps / 2``."""
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    marg = marginal_rows(model, model.intervention)
    _, pi, w = _outcome_cells(marg, arm_i.table[None], arm_j.table)
    mask = pi[0] > 0.0
    return _min_tail_quantile(w[0][mask], pi[0][mask], eps / 2.0)


def empirical_quantile_gamma(
    model: CausalModel, arm_i: Arm, arm_j: Arm, eps: float, direction: str
) -> float:
    """Smallest ``gamma`` whose two forced tail masses of ``|w_ij|`` sum below ``eps / 2``."""
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    cells = [
        block
        for forced in (S_VALUE, SPRIME_VALUE)
        for block in _fairness_cells(model, arm_i, arm_j.table[None], (direction,), forced)
    ]
    weights = np.concatenate([np.abs(w[0, 0]) for _, w in cells])
    probs = np.concatenate([p for p, _ in cells])
    return _min_tail_quantile(weights, probs, eps / 2.0)
