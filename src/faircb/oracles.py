"""Enumeration over ancestral closures, and the exact oracle report.

Enumeration only visits the ancestors of the nodes a quantity depends on, so
pruning barren nodes keeps exactness while making deep graphs affordable.  The
cell count of the visited closure is still capped (``FCB_ENUM_CAP`` overrides
the default of ten million cells).  Arms differ only in V's factor, so
``enumerate_arms`` serves a whole stack of arm tables from one enumeration;
it is what builds the cell laws of ``sampling.instance_tables``.

``oracle_report`` reduces those cell laws against the instance's signed
weight factors, so it enumerates nothing once an instance's tables are in the
memo, never builds their weight kernel (nor meets its byte cap), and needs
the closure of the read nodes (not only of Y) within the cap.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationTooLarge
from .model import Arm, CausalModel, Instance, check_fairness_eps, decode_rows, encode_rows

__all__ = [
    "enumeration_cap",
    "enumerate_arms",
    "enumerate_joint",
    "oracle_report",
]

DEFAULT_ENUM_CAP = 10_000_000
_BLOCK = 1 << 18


def enumeration_cap() -> int:
    raw = os.environ.get("FCB_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"FCB_ENUM_CAP must be a positive integer, got {raw!r}")
    return int(raw)


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

    k, step = len(tables), max(1, _BLOCK // len(tables))
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total))
        values = decode_rows(idx, closure, cards)
        if forced in values:
            values[forced] = np.full(idx.shape[0], force_s, dtype=np.int64)
        probs = np.ones((1, idx.shape[0]), dtype=float)
        for x in closure:
            if x == forced:
                continue
            rows = encode_rows(values, model.parents[x], model.parent_cards(x), idx.shape[0])
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


def oracle_report(instance: Instance, fairness_eps: float) -> dict:
    """Ground truth per arm: means, counterfactual gaps, the fair set and the best fair arm.

    Every quantity is an expectation under the arms' cell laws
    (``sampling.instance_tables``): ``mu`` under the observational law, each gap
    under the law forced to its evidence value, weighing each cell by the
    arm's signed weight factor (``InstanceTables.regime``), which is its
    counterfactual weight against itself on every cell it reaches.
    """
    check_fairness_eps(fairness_eps)
    # Imported here: ``sampling`` imports this module, so a module-level
    # import would close an import cycle.
    from .sampling import instance_tables

    arms = instance.arms
    tables = instance_tables(instance.model, arms)
    laws, y = tables.laws, tables.cells.y

    def gap(k: int, r: int) -> float:
        at = np.flatnonzero(laws[k, r])
        return float(laws[k, r, at] @ (y[at] * tables.regime[r, k, at]))

    mu = [float(law @ y) for law in laws[:, 0]]
    # "ssp" has evidence s' and reads pulls forced to s' (REGIMES[2]); "sps" the reverse.
    z_ssp = [gap(k, 2) for k in range(len(arms))]
    z_sps = [gap(k, 1) for k in range(len(arms))]
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
