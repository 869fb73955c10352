"""Instance files: a versioned JSON format plus a content digest.

Format ``faircb-instance-v1`` stores the model (structure, tables,
designations), every arm with its costs, and the run-level conventions.
Floats round-trip exactly through ``repr``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import Arm, CausalModel, Instance, check_fairness_eps

__all__ = ["FORMAT_TAG", "instance_to_dict", "instance_from_dict",
           "save_instance", "load_instance", "instance_digest"]

FORMAT_TAG = "faircb-instance-v1"


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


def instance_from_dict(payload: dict) -> Instance:
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
            cards={x: int(c) for x, c in md["cards"].items()},
            parents={x: tuple(ps) for x, ps in md["parents"].items()},
            cpts={x: np.asarray(t, dtype=float) for x, t in md["cpts"].items()},
            sensitive=md["sensitive"],
            intervention=md["intervention"],
            target=md["target"],
            target_values=np.asarray(md["target_values"], dtype=float),
        )
        arms = tuple(
            Arm(
                index=int(a["index"]),
                table=np.asarray(a["table"], dtype=float),
                cost_pull=float(a["cost_pull"]),
                cost_force_s=float(a["cost_force_s"]),
                cost_force_sprime=float(a["cost_force_sprime"]),
            )
            for a in payload["arms"]
        )
        observed = payload.get("observed")
        return Instance(
            model=model,
            arms=arms,
            name=payload.get("name", ""),
            cheap_arm_constraint=bool(payload.get("cheap_arm_constraint", False)),
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
