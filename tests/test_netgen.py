"""Tests for the fixed liver network and experiments built on it."""

from __future__ import annotations

import numpy as np
import pytest

from faircb.errors import NodeNotFound, SensitiveNotBinary
from faircb.netgen import build_network_experiment, liver_network, network_states
from faircb.oracles import exact_fairness, exact_outcome_mean, oracle_report

from helpers import brute_fairness, brute_mean, chain_model


@pytest.fixture(scope="module")
def net():
    return liver_network()


@pytest.fixture(scope="module")
def experiment(net):
    return build_network_experiment(
        net, "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )


def test_network_size(net):
    assert len(net.nodes) == 70
    assert sum(len(ps) for ps in net.parents.values()) == 123
    assert max(len(ps) for ps in net.parents.values()) <= 3


def test_network_rows_normalized(net):
    for name in net.nodes:
        table = net.cpts[name]
        assert table.shape == (net.n_rows(name), net.cards[name])
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (table >= 0.0).all()


def test_sensitive_node_shape(net):
    assert net.cards["sex"] == 2
    assert net.parents["sex"] == ()
    assert net.children("sex") == ("PBC",)


def test_states_cover_every_node(net):
    states = network_states()
    assert set(states) == set(net.nodes)
    for name in net.nodes:
        assert len(states[name]) == net.cards[name]
    assert states["sex"] == ("female", "male")
    assert states["fibrosis"] == ("severe", "moderate", "mild", "absent")


def test_network_is_deterministic(net):
    again = liver_network()
    assert again.nodes == net.nodes
    assert again.parents == net.parents
    for name in net.nodes:
        np.testing.assert_array_equal(again.cpts[name], net.cpts[name])


def test_experiment_observed_set(experiment):
    # Sensitive, intervention plus its parents, children of sensitive plus
    # their parents, and the target, listed in topological order.
    assert experiment.observed == ("age", "sex", "PBC", "ChHepatitis", "fibrosis", "carcinoma")
    assert experiment.name == "network-fibrosis-K10-seed0"
    assert experiment.fairness_eps == 0.2
    assert experiment.cheap_arm_constraint is False


def test_experiment_arm_zero_keeps_network_conditional(net, experiment):
    np.testing.assert_array_equal(experiment.arms[0].table, net.cpts["fibrosis"])
    # Drawn arms must differ from the designated one and from each other.
    tables = [arm.table for arm in experiment.arms]
    for k in range(1, 10):
        assert not np.array_equal(tables[k], tables[0])
        assert tables[k].shape == tables[0].shape


def test_experiment_is_deterministic(net, experiment):
    again = build_network_experiment(
        net, "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )
    for a, b in zip(again.arms, experiment.arms):
        np.testing.assert_array_equal(a.table, b.table)
    shifted = build_network_experiment(
        net, "fibrosis", "sex", "carcinoma", n_arms=10, seed=1, fairness_eps=0.2
    )
    assert not np.array_equal(shifted.arms[1].table, experiment.arms[1].table)


def test_experiment_oracle_frozen_values(experiment):
    # The carcinoma ancestry closes over the ten core nodes (9216 joint
    # cells), so the exact oracle runs under the default enumeration cap.
    assert exact_outcome_mean(experiment.model, experiment.arms[0]) == pytest.approx(
        0.06090241902079998, abs=1e-12
    )
    assert exact_outcome_mean(experiment.model, experiment.arms[1]) == pytest.approx(
        0.10109235582540237, abs=1e-12
    )
    assert exact_fairness(experiment.model, experiment.arms[1], "ssp") == pytest.approx(
        0.009921691024125101, abs=1e-12
    )
    report = oracle_report(experiment, fairness_eps=0.2)
    assert report["fair"] == list(range(10))
    assert report["best_fair"] == 1
    assert not report["degenerate"]


def test_experiment_accepts_any_parsed_network():
    # A hand-built three-node network stands in for a parsed file; the whole
    # joint is 12 cells, so a full brute-force sweep cross-checks the drawn
    # arms end to end.
    base, _ = chain_model()
    instance = build_network_experiment(base, "V", "S", "Y", n_arms=4, seed=7, fairness_eps=0.3)
    assert len(instance.arms) == 4
    np.testing.assert_array_equal(instance.arms[0].table, base.cpts["V"])
    for arm in instance.arms:
        assert exact_outcome_mean(instance.model, arm) == pytest.approx(
            brute_mean(instance.model, arm), abs=1e-10
        )
        assert exact_fairness(instance.model, arm, "ssp") == pytest.approx(
            brute_fairness(instance.model, arm, "ssp"), abs=1e-10
        )


def test_experiment_rejects_unknown_nodes(net):
    with pytest.raises(NodeNotFound):
        build_network_experiment(net, "nonesuch", "sex", "carcinoma", 2, 0, 0.2)
    with pytest.raises(NodeNotFound):
        build_network_experiment(net, "fibrosis", "sex", "nonesuch", 2, 0, 0.2)


def test_experiment_rejects_bad_sensitive(net):
    with pytest.raises(SensitiveNotBinary, match="4 states"):
        build_network_experiment(net, "fibrosis", "age", "carcinoma", 2, 0, 0.2)
    # Binary but not a root: marginalizing parents away is unsupported.
    with pytest.raises(SensitiveNotBinary, match="parents"):
        build_network_experiment(net, "fibrosis", "Steatosis", "carcinoma", 2, 0, 0.2)


def test_experiment_rejects_empty_arm_list(net):
    with pytest.raises(ValueError, match="at least one arm"):
        build_network_experiment(net, "fibrosis", "sex", "carcinoma", 0, 0, 0.2)


def test_experiment_rejects_a_bad_fairness_tolerance(net):
    with pytest.raises(ValueError, match="fairness_eps"):
        build_network_experiment(net, "fibrosis", "sex", "carcinoma", 2, 0, -0.2)
