"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import faircb.cli as cli_mod
import faircb.sweep as sweep_mod
from faircb import errors, sampling
from faircb.cli import main
from faircb.divergence import DivergenceSet
from faircb.io import instance_digest, instance_to_dict, load_instance, save_instance
from faircb.model import Instance
from faircb.netgen import build_network_experiment, liver_network

from helpers import chain_model, count_kernel_builds
from test_bif import MINI

CONFIG = {
    "n_arms": 3,
    "support": 4,
    "seed": 0,
    "fairness_eps": 0.5,
    "fairness_gap_band": [0.2, 0.4],
    "reward_gap_band": [0.05, 0.15],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    config = path / "config.json"
    config.write_text(json.dumps(CONFIG))
    code = main(["gen", "--config", str(config), "--out", str(path / "inst.json")])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def instance_file(workdir):
    return str(workdir / "inst.json")


def test_gen_writes_a_loadable_instance(workdir, instance_file, capsys):
    instance = load_instance(instance_file)
    assert instance.name == "synthetic-K3-m4-seed0"
    assert len(instance.arms) == 3


def test_gen_reports_infeasible_bands(tmp_path):
    config = dict(CONFIG, divergence_band=[0.0001, 0.0002], max_attempts=20)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 3


def test_gen_names_the_check_that_rejected_every_draw(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_arms": 3, "support": 800, "max_attempts": 5}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "validation 5" in err and "zero pattern" in err


def test_gen_rejects_no_attempts(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**CONFIG, "max_attempts": 0}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "max_attempts must be >= 1" in capsys.readouterr().err


def test_gen_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([CONFIG]))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "the config must be a JSON object" in capsys.readouterr().err


def test_gen_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(CONFIG, arms=7)))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"n_arms": "3"},
        {"n_arms": True},
        {"seed": 1.5},
        {"fairness_eps": None},
        {"cheap_arm": 1},
        {"reward_gap_band": [0.05, "0.15"]},
        {"fairness_gap_band": [0.2, 0.3, 0.4]},
        {"divergence_band": 10},
        {"f_values": {"a": 1}},
    ],
)
def test_gen_rejects_wrongly_typed_values(tmp_path, capsys, override):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(CONFIG, **override)))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert next(iter(override)) in capsys.readouterr().err


def test_gen_accepts_ints_for_floats(tmp_path):
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps(dict(CONFIG, fairness_eps=1, epsilon_param=1, divergence_band=None)))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 0


def test_gen_takes_a_boolean_cheap_arm(tmp_path):
    cfg = tmp_path / "flag.json"
    cfg.write_text(json.dumps(dict(CONFIG, cheap_arm=False)))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 0
    assert load_instance(tmp_path / "x.json").cheap_arm_constraint is False


def test_bif_import_skeleton(tmp_path, capsys):
    bif = tmp_path / "mini.bif"
    bif.write_text(MINI)
    out = tmp_path / "skel.json"
    assert main(["bif-import", "--bif", str(bif), "--out", str(out)]) == 0
    assert "3 nodes, 3 arcs, 0 arms" in capsys.readouterr().out
    skeleton = load_instance(out)
    assert skeleton.name == "mini"
    assert skeleton.arms == ()
    assert skeleton.model.nodes == ("A", "B", "C")


def test_bif_import_with_designations(tmp_path, capsys):
    from faircb.bif import ParsedNetwork, serialize_bif
    from faircb.netgen import liver_network, network_states

    bif = tmp_path / "liver.bif"
    bif.write_text(serialize_bif(ParsedNetwork("liver", liver_network(), network_states())))
    out = tmp_path / "net.json"
    code = main([
        "bif-import", "--bif", str(bif), "--out", str(out),
        "--intervention", "fibrosis", "--sensitive", "sex", "--target", "carcinoma",
        "--arms", "3", "--seed", "0", "--fairness-eps", "0.2",
    ])
    assert code == 0
    assert "70 nodes, 123 arcs, 3 arms" in capsys.readouterr().out
    instance = load_instance(out)
    assert len(instance.arms) == 3
    assert instance.fairness_eps == 0.2
    assert instance.model.intervention == "fibrosis"


def test_bif_import_requires_all_three_designations(tmp_path):
    bif = tmp_path / "mini.bif"
    bif.write_text(MINI)
    code = main([
        "bif-import", "--bif", str(bif), "--out", str(tmp_path / "x.json"),
        "--sensitive", "A",
    ])
    assert code == 2


def test_bif_import_surfaces_parse_errors(tmp_path):
    bif = tmp_path / "broken.bif"
    bif.write_text(MINI.replace("table 0.3, 0.7;", "table 0.3;"))
    assert main(["bif-import", "--bif", str(bif), "--out", str(tmp_path / "x.json")]) == 2


def test_oracle_report(tmp_path, instance_file):
    out = tmp_path / "report.json"
    assert main(["oracle", "--instance", instance_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fairness_eps"] == 0.5
    assert report["best_fair"] in (0, 1, 2)
    assert len(report["mu"]) == 3
    assert "instance_digest" in report


def test_oracle_builds_no_weight_kernel(tmp_path, instance_file, monkeypatch):
    # The report weighs each arm's cells by the arm's signed weight factors;
    # the 3K^2 * n_cells kernel of the instance's tables stays unbuilt.
    builds = count_kernel_builds(monkeypatch)
    assert main(["oracle", "--instance", instance_file, "--out", str(tmp_path / "r.json")]) == 0
    assert builds == []


def test_oracle_needs_a_fairness_tolerance(tmp_path, capsys):
    model, arms = chain_model()
    path = tmp_path / "bare.json"
    save_instance(Instance(model=model, arms=arms, name="chain"), path)
    assert main(["oracle", "--instance", str(path)]) == 2
    assert "fairness" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["oracle", "--instance", str(path), "--fairness-eps", "0.2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["fair"] == [0, 2]


@pytest.mark.parametrize("eps", ["-1", "0", "nan"])
def test_bad_fairness_tolerance_flag_is_rejected(instance_file, capsys, eps):
    assert main(["oracle", "--instance", instance_file, "--fairness-eps", eps]) == 2
    assert "fairness_eps must be a positive finite number" in capsys.readouterr().err
    code = main(["run", "--instance", instance_file, "--algo", "csr-v2", "--T", "400",
                 "--fairness-eps", eps])
    assert code == 2
    assert "fairness_eps must be a positive finite number" in capsys.readouterr().err


def test_sweep_rejects_an_instance_with_a_bad_tolerance(tmp_path, instance_file, capsys):
    payload = json.loads(Path(instance_file).read_text())
    payload["fairness_eps"] = -0.5
    path = tmp_path / "bad_eps.json"
    path.write_text(json.dumps(payload))
    out_csv = tmp_path / "curve.csv"
    code = main(["sweep", "--instance", str(path), "--budgets", "200", "--runs", "1",
                 "--out-csv", str(out_csv)])
    assert code == 2
    assert "fairness_eps" in capsys.readouterr().err
    assert not out_csv.exists()


def test_divergence_rejects_negative_draws(tmp_path, instance_file, capsys):
    prefix = str(tmp_path / "div")
    code = main(["divergence", "--instance", instance_file, "--out-prefix", prefix,
                 "--mc", "-5"])
    assert code == 2
    assert "--mc must be >= 0" in capsys.readouterr().err


def test_oracle_missing_file(tmp_path):
    assert main(["oracle", "--instance", str(tmp_path / "nope.json")]) == 2


def chain_payload() -> dict:
    """The instance file contents of the chain model with a fairness tolerance."""
    model, arms = chain_model()
    return instance_to_dict(Instance(model=model, arms=arms, name="chain", fairness_eps=0.2))


def oracle_exit(tmp_path, payload) -> int:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return main(["oracle", "--instance", str(path)])


# (payload edit, message) of instance files whose JSON has the wrong shape.
MISSHAPEN_FILES = {
    "top-level list": (lambda p: [p], "an instance is a JSON object, not a list"),
    "cards list": (lambda p: p["model"].update(cards=[2, 3, 2]), "model.cards must be an object"),
    "parents list": (lambda p: p["model"].update(parents=[[], ["S"], ["V"]]),
                     "model.parents must be an object"),
    "cpts list": (lambda p: p["model"].update(cpts=list(p["model"]["cpts"].values())),
                  "model.cpts must be an object"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_FILES))
def test_oracle_rejects_a_misshapen_instance_file(tmp_path, capsys, case):
    edit, message = MISSHAPEN_FILES[case]
    payload = chain_payload()
    payload = edit(payload) or payload
    assert oracle_exit(tmp_path, payload) == 2
    assert message in capsys.readouterr().err


def drop(mapping: dict, key: str) -> None:
    del mapping[key]


# (model edit, problem) for each structural check of ``validate_model`` on the chain S -> V -> Y.
INVALID_MODELS = {
    "duplicate node ids": (lambda m: m.update(nodes=["S", "V", "Y", "Y"]), "duplicate node ids"),
    "unknown parent": (lambda m: m["parents"].update(Y=["V", "Q"]), "Y: unknown parent 'Q'"),
    "own parent": (lambda m: m["parents"].update(Y=["Y"]), "Y: is its own parent"),
    "parent listed twice": (lambda m: m["parents"].update(Y=["V", "S", "S"]),
                            "Y: parent 'S' listed twice"),
    "missing parent declaration": (lambda m: drop(m["parents"], "Y"), "Y: missing parent declaration"),
    "missing table": (lambda m: drop(m["cpts"], "Y"), "Y: missing conditional table"),
    "empty support": (lambda m: m["cards"].update(Y=0), "Y: support must be nonempty"),
    "table shape": (lambda m: m["cpts"].update(Y=[[0.5, 0.5]]), "Y: table shape (1, 2) != (3, 2)"),
    "sensitive not in the model": (lambda m: m.update(sensitive="Q"),
                                   "sensitive node 'Q' is not in the model"),
    "target not in the model": (lambda m: m.update(target="Q"), "target node 'Q' is not in the model"),
    "cycle": (lambda m: m["parents"].update(S=["Y"]), "graph has a cycle"),
}


@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
def test_oracle_rejects_an_invalid_model(tmp_path, capsys, case):
    edit, problem = INVALID_MODELS[case]
    payload = chain_payload()
    edit(payload["model"])
    assert oracle_exit(tmp_path, payload) == 2
    assert problem in capsys.readouterr().err


def test_an_observed_set_must_hold_every_read_node(tmp_path, capsys):
    payload = chain_payload()
    payload["observed"] = ["S", "V", "Y"]
    assert oracle_exit(tmp_path, payload) == 0
    payload["observed"] = ["Y", "S"]
    assert oracle_exit(tmp_path, payload) == 2
    assert "observed misses the read nodes ['V']" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["oracle"], ["run", "--algo", "csr-v2", "--T", "400"]])
def test_an_instance_without_arms_is_refused(tmp_path, capsys, command):
    payload = chain_payload()
    payload["arms"] = []
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    assert main([command[0], "--instance", str(path), *command[1:]]) == 2
    assert "needs at least one arm" in capsys.readouterr().err


def test_oracle_prints_its_report_without_out(instance_file, capsys):
    assert main(["oracle", "--instance", instance_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance_digest"] == instance_digest(load_instance(instance_file))


# (instance edit, run flags) of each non-finite cost or budget a run refuses.
NON_FINITE_RUNS = {
    "NaN arm cost": (lambda p: p["arms"][1].update(cost_pull=math.nan), []),
    "infinite arm cost": (lambda p: p["arms"][2].update(cost_force_s=math.inf), []),
    "NaN budget": (lambda p: None, ["--budget", "nan"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_RUNS))
def test_run_refuses_a_non_finite_cost_or_budget(tmp_path, capsys, case):
    edit, flags = NON_FINITE_RUNS[case]
    payload = chain_payload()
    edit(payload)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--instance", str(path), "--algo", "csr-v2", "--T", "400", *flags]) == 2
    assert "finite and nonnegative" in capsys.readouterr().err


def test_run_takes_an_infinite_budget_as_no_cap(tmp_path, instance_file):
    out = tmp_path / "run.json"
    assert main(["run", "--instance", instance_file, "--algo", "csr-v2", "--T", "400",
                 "--budget", "inf", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["samples_spent"] == 400


def test_allocate_refuses_a_non_finite_cost(tmp_path, capsys):
    paths = {}
    for name, text in {"m": "1,2\n2,1\n", "d": "1,1\n1,1\n",
                       "costs": '{"cost_pull": [1.0, NaN], "cost_force_s": [1.0, 1.0], '
                                '"cost_force_sprime": [1.0, 1.0]}'}.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code = main([
        "allocate", "--m", str(paths["m"]), "--dssp", str(paths["d"]), "--dsps", str(paths["d"]),
        "--costs", str(paths["costs"]), "--budget", "1.0",
    ])
    assert code == 2
    assert "costs must be finite and nonnegative" in capsys.readouterr().err


def test_a_kernel_over_its_byte_cap_refuses_a_run_but_not_the_report(tmp_path, monkeypatch, capsys):
    # The chain kernel holds 3 * 3^2 * 12 floats, 2592 bytes.  A run needs it
    # and is refused before any pull; the report reads only the factors.
    monkeypatch.setattr(sampling, "_KERNEL_CAP_BYTES", 2591)
    sampling._TABLES.clear()
    sample_batch = sampling.sample_batch
    pulls = []

    def counted(*args):
        pulls.append(args)
        return sample_batch(*args)

    monkeypatch.setattr(sampling, "sample_batch", counted)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(chain_payload()))
    code = main(["run", "--instance", str(path), "--algo", "csr-v2", "--T", "400"])
    assert code == cli_mod.EXIT_INVALID
    err = capsys.readouterr().err
    assert "3 arms over 12 cells needs 2592 bytes" in err and "cap of 2591" in err
    assert pulls == []
    assert main(["oracle", "--instance", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_divergence_exact_and_mc(tmp_path, instance_file):
    prefix = str(tmp_path / "div")
    assert main(["divergence", "--instance", instance_file, "--out-prefix", prefix]) == 0
    exact = {tag: np.loadtxt(f"{prefix}_{tag}.csv", delimiter=",") for tag in ("m", "dssp", "dsps")}
    instance = load_instance(instance_file)
    truth = DivergenceSet.exact(instance.model, instance.arms)
    np.testing.assert_allclose(exact["m"], truth.m, rtol=1e-12)
    np.testing.assert_allclose(exact["dssp"], truth.d_ssp, rtol=1e-12)
    np.testing.assert_allclose(exact["dsps"], truth.d_sps, rtol=1e-12)

    mc_prefix = str(tmp_path / "mc")
    assert main(["divergence", "--instance", instance_file, "--out-prefix", mc_prefix,
                 "--mc", "20000", "--seed", "1"]) == 0
    approx = np.loadtxt(f"{mc_prefix}_m.csv", delimiter=",")
    np.testing.assert_allclose(approx, truth.m, rtol=0.05)


def _liver_over_the_cap(tmp_path, monkeypatch) -> Path:
    """A liver instance file, with the enumeration cap set below its closure's 9216 cells."""
    path = tmp_path / "liver.json"
    save_instance(build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=2, seed=0, fairness_eps=0.2), path)
    monkeypatch.setenv("FCB_ENUM_CAP", "1000")
    return path


def test_divergence_mc_needs_an_enumerable_closure(tmp_path, monkeypatch, capsys):
    # The Monte Carlo matrices draw from the cell laws, which enumerate the
    # closure of the read nodes: 384 read cells, 9216 closure cells.
    path = _liver_over_the_cap(tmp_path, monkeypatch)
    prefix = str(tmp_path / "mc")
    code = main(["divergence", "--instance", str(path), "--out-prefix", prefix, "--mc", "100"])
    assert code == cli_mod.EXIT_INVALID
    err = capsys.readouterr().err
    assert "9216 cells over" in err and "'fibrosis'" in err and "cap of 1000" in err
    assert not Path(f"{prefix}_m.csv").exists()


@pytest.mark.parametrize("raw", ["1e6", "0", "ten"])
def test_a_malformed_enumeration_cap_is_named(instance_file, monkeypatch, capsys, raw):
    monkeypatch.setenv("FCB_ENUM_CAP", raw)
    assert main(["oracle", "--instance", instance_file]) == cli_mod.EXIT_INVALID
    assert f"FCB_ENUM_CAP must be a positive integer, got '{raw}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "divergence"])
def test_exact_commands_need_an_enumerable_closure(tmp_path, monkeypatch, capsys, command):
    # The oracle report and the exact matrices reduce the cell laws, so they
    # need the closure of the read nodes under the cap, as --mc does.
    path = _liver_over_the_cap(tmp_path, monkeypatch)
    out = tmp_path / "out"
    flags = {"oracle": ["--out", str(out)], "divergence": ["--out-prefix", str(out)]}[command]
    assert main([command, "--instance", str(path), *flags]) == cli_mod.EXIT_INVALID
    err = capsys.readouterr().err
    assert "9216 cells over" in err and "'fibrosis'" in err and "cap of 1000" in err
    assert list(tmp_path.iterdir()) == [path]


def test_allocate(tmp_path, instance_file):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    instance = load_instance(instance_file)
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [a.cost_pull for a in instance.arms],
        "cost_force_s": [a.cost_force_s for a in instance.arms],
        "cost_force_sprime": [a.cost_force_sprime for a in instance.arms],
        "budget": 1.0,
    }))
    out = tmp_path / "alloc.json"
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs),
        "--tau", "100", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["v_star"] > 0.0
    total = sum(payload["nu_y"]) + sum(payload["nu_s"]) + sum(payload["nu_sp"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert sum(payload["tau_y"]) + sum(payload["tau_s"]) + sum(payload["tau_sp"]) == 100


def test_allocate_subsets_and_caps(tmp_path, instance_file):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    instance = load_instance(instance_file)
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [a.cost_pull for a in instance.arms],
        "cost_force_s": [a.cost_force_s for a in instance.arms],
        "cost_force_sprime": [a.cost_force_sprime for a in instance.arms],
    }))
    out = tmp_path / "alloc.json"
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs), "--budget", "1.0",
        "--active", "0,2", "--cheap-arm-cap", "10000", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    off_cheap = (
        sum(payload["nu_y"][1:]) + sum(payload["nu_s"][1:]) + sum(payload["nu_sp"][1:])
    )
    assert off_cheap <= 0.01 + 1e-9


def test_allocate_rejects_a_negative_cheap_arm_cap(tmp_path, instance_file, capsys):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({key: [1.0, 1.0, 1.0] for key in
                                 ("cost_pull", "cost_force_s", "cost_force_sprime")}))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs), "--budget", "1.0",
        "--cheap-arm-cap", "-4",
    ])
    assert code == 2
    assert "the cheap-arm cap needs a budget T >= 1, got -4" in capsys.readouterr().err


def test_allocate_without_budget(tmp_path, instance_file):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [0.0, 1.0, 1.0],
        "cost_force_s": [0.0, 1.0, 1.0],
        "cost_force_sprime": [0.0, 1.0, 1.0],
    }))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs),
    ])
    assert code == 2


def test_allocate_rejects_costs_without_a_regime(tmp_path, instance_file, capsys):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [1.0, 1.0, 1.0],
        "cost_force_sprime": [1.0, 1.0, 1.0],
        "budget": 1.0,
    }))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs),
    ])
    assert code == 2
    assert "missing cost_force_s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", [{"cost_pull": {"a": 1}}, {"cost_force_s": [1.0, "1", 1.0]}, {"budget": "1"}]
)
def test_allocate_rejects_wrongly_typed_costs(tmp_path, instance_file, capsys, override):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps(dict({
        "cost_pull": [1.0, 1.0, 1.0],
        "cost_force_s": [1.0, 1.0, 1.0],
        "cost_force_sprime": [1.0, 1.0, 1.0],
        "budget": 1.0,
    }, **override)))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs),
    ])
    assert code == 2
    assert next(iter(override)) in capsys.readouterr().err


@pytest.mark.parametrize("active", ["0,9", "-1"])
def test_allocate_rejects_out_of_range_arms(tmp_path, instance_file, capsys, active):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [1.0, 1.0, 1.0],
        "cost_force_s": [1.0, 1.0, 1.0],
        "cost_force_sprime": [1.0, 1.0, 1.0],
        "budget": 1.0,
    }))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs), f"--active={active}",
    ])
    assert code == 2
    assert "active arms" in capsys.readouterr().err


def test_allocate_infeasible_budget(tmp_path, instance_file):
    prefix = str(tmp_path / "div")
    main(["divergence", "--instance", instance_file, "--out-prefix", prefix])
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({
        "cost_pull": [1.0, 1.0, 1.0],
        "cost_force_s": [1.0, 1.0, 1.0],
        "cost_force_sprime": [1.0, 1.0, 1.0],
        "budget": 0.5,
    }))
    code = main([
        "allocate", "--m", f"{prefix}_m.csv", "--dssp", f"{prefix}_dssp.csv",
        "--dsps", f"{prefix}_dsps.csv", "--costs", str(costs),
    ])
    assert code == 3


# (file, content) of one defective input, against 2 x 2 cutoff matrices and costs.
ALLOCATE_DEFECTS = {
    "negative entry": ("m", "1,-2\n2,1\n"),
    "zero entry": ("dssp", "1,0\n1,1\n"),
    "NaN entry": ("dsps", "1,nan\n1,1\n"),
    "shape mismatch": ("dssp", "1,1,1\n1,1,1\n1,1,1\n"),
    "number as cost row": ("costs", json.dumps({
        "cost_pull": 1.0, "cost_force_s": [1.0, 1.0], "cost_force_sprime": [1.0, 1.0],
    })),
    "costs not an object": ("costs", json.dumps([[1.0, 1.0]] * 3)),
}


@pytest.mark.parametrize("defect", sorted(ALLOCATE_DEFECTS))
def test_allocate_rejects_bad_input_files(tmp_path, capsys, defect):
    files = {
        "m": "1,2\n2,1\n",
        "dssp": "1,1\n1,1\n",
        "dsps": "1,1\n1,1\n",
        "costs": json.dumps({key: [1.0, 1.0] for key in cli_mod._COST_KEYS}),
    }
    broken, content = ALLOCATE_DEFECTS[defect]
    files[broken] = content
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code = main([
        "allocate", "--m", str(paths["m"]), "--dssp", str(paths["dssp"]),
        "--dsps", str(paths["dsps"]), "--costs", str(paths["costs"]), "--budget", "1.0",
    ])
    assert code == 2
    assert str(paths[broken]) in capsys.readouterr().err


def test_allocate_names_a_non_integer_active_entry(tmp_path, capsys):
    paths = {}
    for name, text in {"m": "1,2\n2,1\n", "d": "1,1\n1,1\n",
                       "costs": json.dumps({key: [1.0, 1.0] for key in cli_mod._COST_KEYS})}.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code = main([
        "allocate", "--m", str(paths["m"]), "--dssp", str(paths["d"]), "--dsps", str(paths["d"]),
        "--costs", str(paths["costs"]), "--budget", "1.0", "--active", "a,1",
    ])
    assert code == 2
    assert "--active: 'a' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("indices", [[1, 0, 2], [0, 7, 2]])
def test_run_rejects_arm_indices_out_of_position(tmp_path, instance_file, capsys, indices):
    payload = json.loads(Path(instance_file).read_text())
    for arm, index in zip(payload["arms"], indices):
        arm["index"] = index
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(payload))
    code = main(["run", "--instance", str(path), "--algo", "csr-v2", "--T", "400"])
    assert code == 2
    assert "index differs from its position" in capsys.readouterr().err


def test_run_with_trace(tmp_path, instance_file):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.jsonl"
    code = main([
        "run", "--instance", instance_file, "--algo", "csr-v2", "--T", "400",
        "--seed", "0", "--trace", str(trace), "--out", str(out),
    ])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["decision"] is None or result["decision"] in (0, 1, 2)
    assert result["samples_spent"] <= 400
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == result["n_phases"]
    for record in lines:
        assert record["stage"] in (0, 1, 2)
        assert len(record["estimates"]["y"]) == 3
        assert record["v_star"] >= 0.0
        for family, estimate in (("y", "y"), ("ssp", "zeta_ssp"), ("sps", "zeta_sps")):
            n_eff = record["n_eff"][family]
            assert len(n_eff) == 3 and min(n_eff) >= 0.0
            # An estimate is missing exactly where it has no effective samples.
            assert [n == 0.0 for n in n_eff] == [z is None for z in record["estimates"][estimate]]
    # Same seed, same outcome.
    rerun = tmp_path / "rerun.json"
    main(["run", "--instance", instance_file, "--algo", "csr-v2", "--T", "400",
          "--seed", "0", "--out", str(rerun)])
    assert json.loads(rerun.read_text()) == result


def test_run_rejects_unknown_algorithm(instance_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--instance", instance_file, "--algo", "bogus", "--T", "400"])
    assert err.value.code == 2


def test_sweep_cli(tmp_path, instance_file, capsys):
    out_csv = tmp_path / "curve.csv"
    out_json = tmp_path / "curve.json"
    code = main([
        "sweep", "--instance", instance_file, "--budgets", "200,400", "--runs", "2",
        "--algos", "csr-v1,ts-v1", "--base-seed", "1",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "T=200 csr-v1: error" in stdout
    assert out_csv.read_text().count("\n") == 5  # header + 4 rows
    payload = json.loads(out_json.read_text())
    assert len(payload["rows"]) == 4


@pytest.mark.parametrize(
    "flags, message",
    [(["--budgets", "200", "--runs", "0"], "runs must be >= 1"),
     (["--budgets", "2", "--runs", "1"], "needs budgets >= 4"),
     (["--budgets", "200", "--runs", "1", "--width", "0"], "width must be >= 1"),
     (["--budgets", "1000,x", "--runs", "1"], "--budgets: 'x' is not an integer")],
)
def test_sweep_cli_rejects_bad_input(tmp_path, instance_file, capsys, flags, message):
    out_csv = tmp_path / "curve.csv"
    code = main(["sweep", "--instance", instance_file, *flags, "--out-csv", str(out_csv)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()


def test_sweep_cli_warns_on_failed_runs(tmp_path, instance_file, capsys, monkeypatch):
    args = ["sweep", "--instance", instance_file, "--budgets", "200", "--runs", "2",
            "--algos", "csr-v1,csr-v2", "--out-csv", str(tmp_path / "curve.csv")]
    assert main(args) == 0
    assert "warning" not in capsys.readouterr().err

    real = sweep_mod.run_csr

    def flaky(prepared, T, fairness_eps, variant, *args, **kwargs):
        if variant == "v1":
            raise RuntimeError("synthetic breakage")
        return real(prepared, T, fairness_eps, variant, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_csr", flaky)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "warning: 2 of 4 runs raised and were scored as errors" in captured.err
    assert "T=200 csr-v1: first failure RuntimeError: synthetic breakage" in captured.err
    assert "csr-v2: first failure" not in captured.err
    assert "T=200 csr-v1: error 1.000 (2/2, 0 none, 2 failed)" in captured.out


@pytest.mark.parametrize(
    "exc", [getattr(errors, name) for name in errors.__all__] + [ValueError, OSError],
    ids=lambda exc: exc.__name__,
)
def test_errors_map_to_exit_codes(monkeypatch, capsys, exc):
    """Package errors and bad input exit 2; an infeasible budget or failed generation exits 3."""

    def failing(args):
        raise exc("boom")

    monkeypatch.setattr(cli_mod, "_cmd_oracle", failing)
    want = 3 if exc in (errors.Infeasible, errors.GenerationFailed) else 2
    assert main(["oracle", "--instance", "unused.json"]) == want
    assert "error: boom" in capsys.readouterr().err
