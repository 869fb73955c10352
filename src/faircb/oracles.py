"""Exact oracles by enumeration over ancestral closures.

Enumeration only visits the ancestors of the nodes a quantity depends on, so
pruning barren nodes keeps exactness while making deep graphs affordable.  The
cell count of the visited closure is still capped (``FCB_ENUM_CAP`` overrides
the default of ten million cells).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationTooLarge
from .model import Arm, CausalModel, Instance, S_VALUE, SPRIME_VALUE, check_fairness_eps

__all__ = [
    "enumeration_cap",
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


def enumerate_joint(
    model: CausalModel,
    arm: Arm | None,
    needed: Iterable[str],
    force_s: int | None = None,
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """Yield ``(probs, values)`` blocks over the ancestral closure of ``needed``.

    ``values`` maps every closure node to an integer array aligned with
    ``probs``.  With ``force_s`` the sensitive node is clamped and its factor
    dropped, which is the hard intervention S <- s or S <- s'.
    """
    closure = model.ancestors(needed)
    cards = [1 if (x == model.sensitive and force_s is not None) else model.cards[x] for x in closure]
    total = 1
    for c in cards:
        total *= c
    cap = enumeration_cap()
    if total > cap:
        raise EnumerationTooLarge(f"{total} cells over {closure} exceeds the cap of {cap}")

    strides = np.cumprod([1] + cards[::-1][:-1])[::-1]  # row-major over the closure
    for lo in range(0, total, _BLOCK):
        idx = np.arange(lo, min(lo + _BLOCK, total))
        values: dict[str, np.ndarray] = {}
        for x, card, st in zip(closure, cards, strides):
            if x == model.sensitive and force_s is not None:
                values[x] = np.full(idx.shape[0], force_s, dtype=np.int64)
            else:
                values[x] = (idx // st) % card
        probs = np.ones(idx.shape[0], dtype=float)
        for x in closure:
            if x == model.sensitive and force_s is not None:
                continue
            table = arm.table if (arm is not None and x == model.intervention) else model.cpts[x]
            rows = np.zeros(idx.shape[0], dtype=np.int64)
            for p, st_p in zip(model.parents[x], model.row_strides(x)):
                rows += values[p] * st_p
            probs *= table[rows, values[x]]
        yield probs, values


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
        rows = np.zeros(probs.shape[0], dtype=np.int64)
        for p, st in zip(ps, strides):
            rows += values[p] * st
        np.add.at(out, rows, probs)
    return out


def exact_outcome_mean(model: CausalModel, arm: Arm) -> float:
    """Mean encoded target value under the arm, by enumeration."""
    acc = 0.0
    for probs, values in enumerate_joint(model, arm, [model.target]):
        acc += float(probs @ model.target_values[values[model.target]])
    return acc


def attribute_ratio_values(
    model: CausalModel,
    arm: Arm,
    values: dict[str, np.ndarray],
    num_attr: int,
    den_attr: int,
) -> np.ndarray:
    """Product over the children of S of ``P(x | pa, num) / P(x | pa, den)`` at given cells.

    The intervention node's factor comes from ``arm``; the cells must carry a
    value column for S and for every child of S with its parents.
    """
    s = model.sensitive
    n = next(iter(values.values())).shape[0]
    ratio = np.ones(n, dtype=float)
    for x in model.children(s):
        table = arm.table if x == model.intervention else model.cpts[x]
        ps = model.parents[x]
        strides = model.row_strides(x)
        s_stride = strides[ps.index(s)]
        rows = np.zeros(n, dtype=np.int64)
        for p, st in zip(ps, strides):
            rows += values[p] * st
        base = rows - values[s] * s_stride
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


def exact_fairness(model: CausalModel, arm: Arm, direction: str) -> float:
    """Counterfactual gap of the arm, by enumeration under the forced evidence attribute."""
    cf, ev = direction_values(direction)
    needed = [model.target, *model.children(model.sensitive)]
    acc = 0.0
    for probs, values in enumerate_joint(model, arm, needed, force_s=ev):
        mask = probs > 0.0
        if not np.any(mask):
            continue
        sub = {x: v[mask] for x, v in values.items()}
        ratio = attribute_ratio_values(model, arm, sub, cf, ev)
        y = model.target_values[sub[model.target]]
        acc += float(probs[mask] @ (y * (ratio - 1.0)))
    return acc


def oracle_report(instance: Instance, fairness_eps: float) -> dict:
    """Ground truth per arm: means, counterfactual gaps, the fair set and the best fair arm."""
    check_fairness_eps(fairness_eps)
    model, arms = instance.model, instance.arms
    mu = [exact_outcome_mean(model, arm) for arm in arms]
    z_ssp = [exact_fairness(model, arm, "ssp") for arm in arms]
    z_sps = [exact_fairness(model, arm, "sps") for arm in arms]
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
