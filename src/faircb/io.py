"""Instance files: a versioned JSON format plus a content digest.

Format ``faircb-instance-v1`` stores the model (structure, tables,
designations), every arm with its costs, and the run-level conventions.
Floats round-trip exactly through ``repr``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .errors import ParseError
from .model import Arm, CausalModel, Instance, check_fairness_eps

__all__ = ["FORMAT_TAG", "instance_to_dict", "instance_from_dict",
           "save_instance", "load_instance", "instance_digest"]

FORMAT_TAG = "faircb-instance-v1"
_COSTS = ("cost_pull", "cost_force_s", "cost_force_sprime")


def instance_to_dict(instance: Instance) -> dict:
    m = instance.model
    return {
        "format": FORMAT_TAG,
        "name": instance.name,
        "cheap_arm_constraint": instance.cheap_arm_constraint,
        "fairness_eps": instance.fairness_eps,
        "observed": list(instance.observed) if instance.observed is not None else None,
        "model": {
            "nodes": list(m.nodes),
            "cards": {x: int(m.cards[x]) for x in m.nodes},
            "parents": {x: list(m.parents[x]) for x in m.nodes},
            "cpts": {x: m.cpts[x].tolist() for x in m.nodes},
            "sensitive": m.sensitive,
            "intervention": m.intervention,
            "target": m.target,
            "target_values": m.target_values.tolist(),
        },
        "arms": [
            {
                "index": a.index,
                "table": a.table.tolist(),
                "cost_pull": a.cost_pull,
                "cost_force_s": a.cost_force_s,
                "cost_force_sprime": a.cost_force_sprime,
            }
            for a in instance.arms
        ],
    }


def _is_number(x) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _typed(where: str, value, hint):
    """A JSON value checked against a type hint: int, float, bool, tuple of floats, or None.

    Ints may stand for floats, bools for neither; lists become tuples.
    """
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        size = None if get_args(hint)[-1] is Ellipsis else len(get_args(hint))
        if isinstance(value, list) and all(map(_is_number, value)) and size in (None, len(value)):
            return tuple(value)
        want = "a list of numbers" if size is None else f"a list of {size} numbers"
    elif hint is bool:
        if isinstance(value, bool):
            return value
        want = "true or false"
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        want = "an integer"
    else:
        if _is_number(value):
            return value
        want = "a number"
    raise ValueError(f"{where} must be {want}, got {json.dumps(value)}")


def _array(where: str, value) -> np.ndarray:
    """A JSON list of numbers, or of such lists, as a float array."""
    def numbers(x) -> bool:
        return _is_number(x) or isinstance(x, list) and all(map(numbers, x))

    if not (isinstance(value, list) and numbers(value)):
        raise ValueError(f"{where} must be a list of numbers or of such lists")
    return np.asarray(value, dtype=float)


def instance_from_dict(payload: dict) -> Instance:
    """An instance from its JSON payload, each number, integer and flag read at its JSON type."""
    if not isinstance(payload, dict):
        raise ParseError(f"an instance is a JSON object, not a {type(payload).__name__}")
    if payload.get("format") != FORMAT_TAG:
        raise ParseError(f"unknown instance format {payload.get('format')!r}")
    if payload.get("fairness_eps") is not None:
        check_fairness_eps(payload["fairness_eps"])
    try:
        md = payload["model"]
        for field in ("cards", "parents", "cpts"):
            if not isinstance(md[field], dict):
                raise ParseError(f"model.{field} must be an object keyed by node id")
        model = CausalModel(
            nodes=tuple(md["nodes"]),
            cards={x: _typed(f"model.cards.{x}", c, int) for x, c in md["cards"].items()},
            parents={x: tuple(ps) for x, ps in md["parents"].items()},
            cpts={x: _array(f"model.cpts.{x}", t) for x, t in md["cpts"].items()},
            sensitive=md["sensitive"],
            intervention=md["intervention"],
            target=md["target"],
            target_values=_array("model.target_values", md["target_values"]),
        )
        arms = tuple(
            Arm(
                index=_typed(f"arms[{i}].index", a["index"], int),
                table=_array(f"arms[{i}].table", a["table"]),
                **{c: float(_typed(f"arms[{i}].{c}", a[c], float)) for c in _COSTS},
            )
            for i, a in enumerate(payload["arms"])
        )
        observed = payload.get("observed")
        return Instance(
            model=model,
            arms=arms,
            name=payload.get("name", ""),
            cheap_arm_constraint=_typed(
                "cheap_arm_constraint", payload.get("cheap_arm_constraint", False), bool),
            observed=tuple(observed) if observed is not None else None,
            fairness_eps=payload.get("fairness_eps"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance file: {exc}") from None


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1) + "\n")


def load_instance(path: str | Path) -> Instance:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return instance_from_dict(payload)


def instance_digest(instance: Instance) -> str:
    """Short content hash; identical instances share it, any change breaks it."""
    canon = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
