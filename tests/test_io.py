"""Tests for instance files and the content digest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from faircb.errors import ParseError
from faircb.io import (
    FORMAT_TAG,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from faircb.netgen import build_network_experiment, liver_network
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import chain_model, random_instance


@pytest.fixture(scope="module")
def synthetic_instance():
    config = SyntheticConfig(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
    )
    return generate_synthetic(config)


def assert_instances_equal(a, b):
    assert b.name == a.name
    assert b.cheap_arm_constraint == a.cheap_arm_constraint
    assert b.fairness_eps == a.fairness_eps
    assert b.observed == a.observed
    assert b.model.nodes == a.model.nodes
    assert b.model.cards == a.model.cards
    assert {x: tuple(p) for x, p in b.model.parents.items()} == {
        x: tuple(p) for x, p in a.model.parents.items()
    }
    assert b.model.sensitive == a.model.sensitive
    assert b.model.intervention == a.model.intervention
    assert b.model.target == a.model.target
    np.testing.assert_array_equal(b.model.target_values, a.model.target_values)
    for x in a.model.nodes:
        np.testing.assert_array_equal(b.model.cpts[x], a.model.cpts[x])
    assert len(b.arms) == len(a.arms)
    for arm_a, arm_b in zip(a.arms, b.arms):
        assert arm_b.index == arm_a.index
        assert arm_b.cost_pull == arm_a.cost_pull
        assert arm_b.cost_force_s == arm_a.cost_force_s
        assert arm_b.cost_force_sprime == arm_a.cost_force_sprime
        np.testing.assert_array_equal(arm_b.table, arm_a.table)


def test_dict_round_trip_is_exact(synthetic_instance):
    back = instance_from_dict(instance_to_dict(synthetic_instance))
    assert_instances_equal(synthetic_instance, back)


def test_file_round_trip_is_exact(tmp_path, synthetic_instance):
    path = tmp_path / "inst.json"
    save_instance(synthetic_instance, path)
    assert_instances_equal(synthetic_instance, load_instance(path))


def test_random_instances_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inst = random_instance(rng)
        assert_instances_equal(inst, instance_from_dict(instance_to_dict(inst)))


def test_network_instance_round_trips(tmp_path):
    inst = build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=3, seed=0, fairness_eps=0.2
    )
    path = tmp_path / "net.json"
    save_instance(inst, path)
    assert_instances_equal(inst, load_instance(path))


def test_format_tag_is_versioned(synthetic_instance):
    payload = instance_to_dict(synthetic_instance)
    assert payload["format"] == FORMAT_TAG == "faircb-instance-v1"


def test_unknown_format_is_rejected(synthetic_instance):
    payload = instance_to_dict(synthetic_instance)
    payload["format"] = "faircb-instance-v0"
    with pytest.raises(ParseError, match="unknown instance format"):
        instance_from_dict(payload)
    with pytest.raises(ParseError, match="unknown instance format None"):
        instance_from_dict({})


def test_malformed_payload_is_rejected(synthetic_instance):
    payload = instance_to_dict(synthetic_instance)
    del payload["model"]["cpts"]
    with pytest.raises(ParseError, match="malformed instance"):
        instance_from_dict(payload)


@pytest.mark.parametrize("eps", [-0.5, 0.0, float("nan"), "0.5"])
def test_bad_fairness_tolerance_is_rejected(synthetic_instance, eps):
    payload = instance_to_dict(synthetic_instance)
    payload["fairness_eps"] = eps
    with pytest.raises(ValueError, match="fairness_eps"):
        instance_from_dict(payload)


@pytest.mark.parametrize("path, value, message", [
    (("cheap_arm_constraint",), "false", "cheap_arm_constraint must be true or false, got \"false\""),
    (("arms", 1, "index"), True, r"arms\[1\]\.index must be an integer, got true"),
    (("arms", 0, "cost_pull"), "2.5", r"arms\[0\]\.cost_pull must be a number, got \"2.5\""),
    (("model", "cards", "eps"), 2.9, "model.cards.eps must be an integer, got 2.9"),
    (("arms", 2, "table", 0, 1), "0.5", r"arms\[2\]\.table must be a list of numbers"),
    (("model", "cpts", "Y", 3, 0), None, "model.cpts.Y must be a list of numbers"),
    (("model", "target_values"), ["0", "1"], "model.target_values must be a list of numbers"),
])
def test_fields_are_read_at_their_json_types(synthetic_instance, path, value, message):
    # Each of these once loaded silently: "false" as True, true as index 1,
    # "2.5" as a cost, 2.9 cards as 2 and number strings as table entries.
    payload = instance_to_dict(synthetic_instance)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError, match=message):
        instance_from_dict(payload)


def test_ints_stand_for_float_fields(synthetic_instance):
    payload = instance_to_dict(synthetic_instance)
    payload["arms"][1]["cost_pull"] = 2
    payload["model"]["target_values"] = [0, 1]
    back = instance_from_dict(payload)
    assert back.arms[1].cost_pull == 2.0 and isinstance(back.arms[1].cost_pull, float)
    assert back.model.target_values.tolist() == [0.0, 1.0]


def test_unparseable_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="broken.json"):
        load_instance(path)


def test_digest_is_stable(synthetic_instance):
    # Pinned so that the on-disk format cannot drift silently.
    assert instance_digest(synthetic_instance) == "87c9b87296306075"
    assert instance_digest(synthetic_instance) == instance_digest(synthetic_instance)


def test_digest_survives_a_file_round_trip(tmp_path, synthetic_instance):
    path = tmp_path / "inst.json"
    save_instance(synthetic_instance, path)
    assert instance_digest(load_instance(path)) == instance_digest(synthetic_instance)


def test_digest_changes_with_content():
    model, arms = chain_model()
    base = dict(model=model, name="chain", cheap_arm_constraint=False,
                observed=("S", "V", "Y"), fairness_eps=0.2)
    from faircb.model import Arm, Instance

    one = Instance(arms=arms, **base)
    bumped = [Arm(a.index, a.table.copy(), a.cost_pull, a.cost_force_s, a.cost_force_sprime)
              for a in arms]
    bumped[1].table[0, 0] += 1e-9
    bumped[1].table[0, 1] -= 1e-9
    two = Instance(arms=bumped, **base)
    assert instance_digest(one) != instance_digest(two)
    renamed = Instance(arms=arms, **{**base, "name": "chain2"})
    assert instance_digest(renamed) != instance_digest(one)


def test_saved_file_is_plain_json(tmp_path, synthetic_instance):
    path = tmp_path / "inst.json"
    save_instance(synthetic_instance, path)
    payload = json.loads(path.read_text())
    assert payload["format"] == FORMAT_TAG
    assert payload["arms"][0]["cost_pull"] == 0.0
