"""Enumeration over ancestral closures, and the exact oracle report.

Enumeration only visits the ancestors of the nodes a quantity depends on, so
pruning barren nodes keeps exactness while making deep graphs affordable.  The
cell count of the visited closure is still capped (``FCB_ENUM_CAP`` overrides
the default of ten million cells).  Arms differ only in V's factor, so
``enumerate_arms`` serves a whole stack of arm tables from one enumeration;
it is what builds the cell laws of ``sampling.cell_laws``.

``oracle_report`` reduces those cell laws, so it enumerates nothing once an
instance's laws are in the memo, and it needs the closure of the read nodes
(not only of Y) within the cap.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationTooLarge
from .model import Arm, CausalModel, Instance, check_fairness_eps, encode_rows

__all__ = [
    "enumeration_cap",
    "enumerate_arms",
    "enumerate_joint",
    "attribute_ratio_values",
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


def oracle_report(instance: Instance, fairness_eps: float) -> dict:
    """Ground truth per arm: means, counterfactual gaps, the fair set and the best fair arm.

    Every quantity is an expectation under the arms' cell laws
    (``sampling.cell_laws``): ``mu`` under the observational law, each gap
    under the law forced to its evidence value, weighing each cell by the
    arm's own counterfactual weight.
    """
    check_fairness_eps(fairness_eps)
    # Imported here: ``sampling`` imports this module, so a module-level
    # import would close an import cycle.
    from .sampling import cell_laws, counterfactual_weight, model_cells

    model, arms = instance.model, instance.arms
    laws, cells = cell_laws(model, arms), model_cells(model)

    def gap(k: int, r: int, direction: str) -> float:
        at = np.flatnonzero(laws[k, r])
        reached, table = cells.take(at), arms[k].table
        with np.errstate(divide="ignore", invalid="ignore"):
            u = counterfactual_weight(reached, table, table, direction)
        return float(laws[k, r, at] @ (reached.y * u))

    mu = [float(law @ cells.y) for law in laws[:, 0]]
    # "ssp" has evidence s' and reads pulls forced to s' (REGIMES[2]); "sps" the reverse.
    z_ssp = [gap(k, 2, "ssp") for k in range(len(arms))]
    z_sps = [gap(k, 1, "sps") for k in range(len(arms))]
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
