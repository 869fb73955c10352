"""Exact oracles by enumeration over ancestral closures.

Enumeration only visits the ancestors of the nodes a quantity depends on, so
pruning barren nodes keeps exactness while making deep graphs affordable.  The
cell count of the visited closure is still capped (``FCB_ENUM_CAP`` overrides
the default of ten million cells).  Arms differ only in V's factor, so
``enumerate_arms`` serves a whole stack of arm tables from one enumeration.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationTooLarge
from .model import (
    Arm, CausalModel, Instance, S_VALUE, SPRIME_VALUE, check_fairness_eps, encode_rows,
)

__all__ = [
    "enumeration_cap",
    "enumerate_arms",
    "enumerate_joint",
    "marginal_rows",
    "attribute_ratio_values",
    "direction_values",
    "exact_outcome_mean",
    "exact_fairness",
    "oracle_report",
]

DEFAULT_ENUM_CAP = 10_000_000
_BLOCK = 1 << 18


def enumeration_cap() -> int:
    raw = os.environ.get("FCB_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError("FCB_ENUM_CAP must be a positive integer")
    return cap


def enumerate_arms(
    model: CausalModel, tables: np.ndarray, needed: Iterable[str], force_s: int | None = None
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """Yield ``(probs, values)`` blocks over the ancestral closure of ``needed``.

    Row ``k`` of ``probs`` is the joint with ``tables[k]`` as V's conditional;
    ``values`` maps every closure node to an integer array aligned with the
    rows.  With ``force_s`` the sensitive node is clamped and its factor
    dropped, which is the hard intervention S <- s or S <- s'.  Every factor
    but V's is gathered once for all K tables, and they multiply in closure
    order: a row is bit for bit the one-table row if both fit one block of
    ``_BLOCK // K`` cells.
    """
    closure = model.ancestors(needed)
    forced = model.sensitive if force_s is not None else None
    cards = [1 if x == forced else model.cards[x] for x in closure]
    total = math.prod(cards)
    cap = enumeration_cap()
    if total > cap:
        raise EnumerationTooLarge(f"{total} cells over {closure} exceeds the cap of {cap}")

    strides = np.cumprod([1] + cards[::-1][:-1])[::-1]  # row-major over the closure
    k, step = len(tables), max(1, _BLOCK // len(tables))
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total))
        values = {x: (idx // st) % card for x, card, st in zip(closure, cards, strides)}
        if forced in values:
            values[forced] = np.full(idx.shape[0], force_s, dtype=np.int64)
        probs = np.ones((1, idx.shape[0]), dtype=float)
        for x in closure:
            if x == forced:
                continue
            rows = encode_rows(values, model.parents[x], model.row_strides(x), idx.shape[0])
            if x == model.intervention:  # one C-ordered (K, cells) gather of every arm's factor
                factor = np.take(tables.reshape(k, -1), rows * tables.shape[2] + values[x], axis=1)
                probs = np.multiply(factor, probs, out=factor)
            else:
                probs *= model.cpts[x][rows, values[x]]
        yield (probs if len(probs) == k else np.repeat(probs, k, axis=0)), values


def enumerate_joint(
    model: CausalModel, arm: Arm | None, needed: Iterable[str], force_s: int | None = None
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """``enumerate_arms`` under one arm's table, or the model's own for None."""
    table = model.cpts[model.intervention] if arm is None else arm.table
    for probs, values in enumerate_arms(model, table[None], needed, force_s):
        yield probs[0], values


def marginal_rows(model: CausalModel, node: str) -> np.ndarray:
    """Exact marginal over the parent assignment rows of ``node``.

    Arms only rewrite the conditional of the intervention node, so the
    marginal of its parents is arm independent.
    """
    out = np.zeros(model.n_rows(node), dtype=float)
    ps = model.parents[node]
    if not ps:
        out[0] = 1.0
        return out
    strides = model.row_strides(node)
    for probs, values in enumerate_joint(model, None, ps):
        np.add.at(out, encode_rows(values, ps, strides, probs.shape[0]), probs)
    return out


def _outcome_means(model: CausalModel, arms) -> list[float]:
    """Mean encoded target value under each arm, by one enumeration for all."""
    acc = [0.0] * len(arms)
    for probs, values in enumerate_arms(model, np.stack([a.table for a in arms]), [model.target]):
        y = model.target_values[values[model.target]]
        for k, p in enumerate(probs):
            acc[k] += float(p @ y)
    return acc


def exact_outcome_mean(model: CausalModel, arm: Arm) -> float:
    """Mean encoded target value under the arm, by enumeration."""
    return _outcome_means(model, [arm])[0]


def attribute_ratio_values(
    model: CausalModel,
    v_table: np.ndarray | None,
    values: dict[str, np.ndarray],
    num_attr: int,
    den_attr: int,
) -> np.ndarray:
    """Product over the children of S of ``P(x | pa, num) / P(x | pa, den)`` at given cells.

    The intervention node's factor comes from ``v_table``, and None leaves it
    out; the cells must carry a value column for S and for every other child
    of S with its parents.
    """
    s = model.sensitive
    n = next(iter(values.values())).shape[0]
    ratio = np.ones(n, dtype=float)
    for x in model.children(s):
        table = v_table if x == model.intervention else model.cpts[x]
        if table is None:
            continue
        ps = model.parents[x]
        strides = model.row_strides(x)
        s_stride = strides[ps.index(s)]
        base = encode_rows(values, ps, strides, n) - values[s] * s_stride
        num = table[base + num_attr * s_stride, values[x]]
        den = table[base + den_attr * s_stride, values[x]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio *= num / den
    return ratio


def direction_values(direction: str) -> tuple[int, int]:
    """Map a direction tag to (counterfactual S value, evidence S value)."""
    if direction == "ssp":
        return S_VALUE, SPRIME_VALUE
    if direction == "sps":
        return SPRIME_VALUE, S_VALUE
    raise ValueError(f"unknown direction {direction!r}")


def _fairness_gaps(model: CausalModel, arms, direction: str) -> list[float]:
    """Counterfactual gap of each arm, by one enumeration under the forced evidence attribute."""
    cf, ev = direction_values(direction)
    needed = [model.target, *model.children(model.sensitive)]
    acc = [0.0] * len(arms)
    for probs, values in enumerate_arms(model, np.stack([a.table for a in arms]), needed, ev):
        for k, (arm, p) in enumerate(zip(arms, probs)):
            mask, sub = p > 0.0, values
            if not mask.all():
                p, sub = p[mask], {x: v[mask] for x, v in values.items()}
            if p.size:
                ratio = attribute_ratio_values(model, arm.table, sub, cf, ev)
                acc[k] += float(p @ (model.target_values[sub[model.target]] * (ratio - 1.0)))
    return acc


def exact_fairness(model: CausalModel, arm: Arm, direction: str) -> float:
    """Counterfactual gap of the arm, by enumeration under the forced evidence attribute."""
    return _fairness_gaps(model, [arm], direction)[0]


def oracle_report(instance: Instance, fairness_eps: float) -> dict:
    """Ground truth per arm: means, counterfactual gaps, the fair set and the best fair arm."""
    check_fairness_eps(fairness_eps)
    model, arms = instance.model, instance.arms
    mu = _outcome_means(model, arms)
    z_ssp = _fairness_gaps(model, arms, "ssp")
    z_sps = _fairness_gaps(model, arms, "sps")
    fair = [
        k
        for k in range(len(arms))
        if abs(z_ssp[k]) < fairness_eps and abs(z_sps[k]) < fairness_eps
    ]
    best = None
    if fair:
        best = max(fair, key=lambda k: (mu[k], -k))
    gaps = {k: (mu[best] - mu[k] if best is not None else None) for k in fair}
    xi = min(
        min(abs(abs(z_ssp[k]) - fairness_eps), abs(abs(z_sps[k]) - fairness_eps))
        for k in range(len(arms))
    )
    # A tied best mean makes the identification target ill separated.
    degenerate = best is not None and any(gaps[k] == 0.0 for k in fair if k != best)
    return {
        "mode": "exact",
        "fairness_eps": fairness_eps,
        "mu": mu,
        "zeta_ssp": z_ssp,
        "zeta_sps": z_sps,
        "fair": fair,
        "best_fair": best,
        "fair_gaps": gaps,
        "xi_star": xi,
        "degenerate": degenerate,
    }
