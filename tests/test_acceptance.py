"""Acceptance gate: ten end-to-end checks over the whole pipeline.

Each test prints one ``ACCEPTANCE n: PASS/FAIL - detail`` line and then
asserts, so the suite output doubles as a sign-off report.  The random
instances, seeds and tolerances are all pinned.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np
import pytest

import conftest

from faircb.allocation import build_problem, cheap_arm_cap, solve_maxmin
from faircb.bif import ParsedNetwork, parse_bif, serialize_bif
from faircb.divergence import DivergenceSet
from faircb.errors import Infeasible
from faircb.model import Regime, validate_model
from faircb.netgen import build_network_experiment, liver_network, network_states
from faircb.oracles import exact_fairness, exact_outcome_mean, oracle_report
from faircb.sampling import sample_batch
from faircb.sweep import ALGORITHMS, error_curve_to_csv, run_algorithm, run_sweep
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import (
    ReferencePool,
    chain_model,
    clipped_fairness_expectation,
    clipped_outcome_expectation,
    empirical_quantile_eta,
    empirical_quantile_gamma,
    maxmin_vertex_value,
    pooled_fairness_estimate,
    pooled_outcome_estimate,
    random_instance,
)

EPS_GRID = (1.0, 0.5, 0.25, 0.125)


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"acceptance {n}: {detail}"


@pytest.fixture(scope="module")
def small_instances():
    rng = np.random.default_rng(202608)
    return [random_instance(rng) for _ in range(50)]


def test_acceptance_01_importance_sampling_identities(small_instances):
    start = time.perf_counter()
    worst = 0.0
    for inst in small_instances:
        model, arms = inst.model, inst.arms
        for i in range(len(arms)):
            mu = exact_outcome_mean(model, arms[i])
            zeta = {d: exact_fairness(model, arms[i], d) for d in ("ssp", "sps")}
            for j in range(len(arms)):
                # With an infinite cutoff the clipped expectations reduce to
                # the plain importance-sampling identities.
                transported = clipped_outcome_expectation(model, arms, i, j, 1.0, np.inf)
                worst = max(worst, abs(transported - mu))
                for d in ("ssp", "sps"):
                    moved = clipped_fairness_expectation(model, arms, i, j, 1.0, np.inf, d)
                    worst = max(worst, abs(moved - zeta[d]))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-10 and elapsed < 60.0,
        f"50 instances, all arm pairs: max identity error {worst:.2e} "
        f"(tol 1e-10) in {elapsed:.1f}s (limit 60s)",
    )


def test_acceptance_02_clipped_estimator_bias_brackets(small_instances):
    violations = 0
    checks = 0
    mix_rng = np.random.default_rng(7)
    for inst in small_instances:
        model, arms = inst.model, inst.arms
        K = len(arms)
        div = DivergenceSet.exact(model, arms)
        tau = mix_rng.integers(1, 30, size=K)
        for eps in EPS_GRID:
            for k in range(K):
                mu = exact_outcome_mean(model, arms[k])
                z = sum(tau[j] / div.m[k, j] for j in range(K))
                ey = (
                    sum(
                        tau[j]
                        / div.m[k, j]
                        * clipped_outcome_expectation(model, arms, k, j, eps, div.m[k, j])
                        for j in range(K)
                    )
                    / z
                )
                checks += 1
                if not (ey <= mu + 1e-10 and mu <= ey + eps / 2.0 + 1e-10):
                    violations += 1
                for d, mat in (("ssp", div.d_ssp), ("sps", div.d_sps)):
                    zeta = exact_fairness(model, arms[k], d)
                    o = sum(tau[j] / mat[k, j] for j in range(K))
                    ez = (
                        sum(
                            tau[j]
                            / mat[k, j]
                            * clipped_fairness_expectation(model, arms, k, j, eps, mat[k, j], d)
                            for j in range(K)
                        )
                        / o
                    )
                    checks += 1
                    if abs(ez - zeta) > eps / 2.0 + 1e-10:
                        violations += 1
    _verdict(
        2,
        violations == 0,
        f"{checks} bias brackets over eps {EPS_GRID}: {violations} violations (tol 1e-10)",
    )


def test_acceptance_03_quantile_cutoff_bounds(small_instances):
    violations = 0
    checks = 0
    for inst in small_instances:
        model, arms = inst.model, inst.arms
        K = len(arms)
        div = DivergenceSet.exact(model, arms)
        for eps in EPS_GRID:
            cut = 2.0 * math.log(2.0 / eps)
            for i in range(K):
                for j in range(K):
                    checks += 1
                    if empirical_quantile_eta(model, arms[i], arms[j], eps) > cut * div.m[i, j] + 1e-12:
                        violations += 1
                    for d, mat in (("ssp", div.d_ssp), ("sps", div.d_sps)):
                        checks += 1
                        if (
                            empirical_quantile_gamma(model, arms[i], arms[j], eps, d)
                            > cut * mat[i, j] + 1e-12
                        ):
                            violations += 1
    _verdict(3, violations == 0, f"{checks} exact quantile bounds: {violations} violations")


def test_acceptance_04_concentration_bound():
    model, arms = chain_model()
    div = DivergenceSet.exact(model, arms)
    K, tau, eps, reps = 3, 2000, 0.25, 1000
    counts = [667, 667, 666]
    mu = [exact_outcome_mean(model, a) for a in arms]
    zeta = [exact_fairness(model, a, "ssp") for a in arms]
    z_over_tau = [sum(counts[j] / div.m[k, j] for j in range(K)) / tau for k in range(K)]
    o_over_tau = [sum(counts[j] / div.d_ssp[k, j] for j in range(K)) / tau for k in range(K)]
    log2e = math.log(2.0 / eps)
    deltas = (0.05, 0.1, 0.2, 0.3)

    viol_y = np.zeros((len(deltas), K), dtype=int)
    viol_z = np.zeros((len(deltas), K), dtype=int)
    rng = np.random.default_rng(31)
    for _ in range(reps):
        pool = ReferencePool(K)
        for j, arm in enumerate(arms):
            pool.add(sample_batch(model, arm, Regime.OBSERVATIONAL, counts[j], rng))
            pool.add(sample_batch(model, arm, Regime.FORCE_SPRIME, counts[j], rng))
        for k in range(K):
            y_hat = pooled_outcome_estimate(pool, arms, k, eps, div.m)
            z_hat = pooled_fairness_estimate(pool, arms, k, eps, div.d_ssp, "ssp")
            for di, d in enumerate(deltas):
                if not (mu[k] - d - eps / 2.0 <= y_hat <= mu[k] + d):
                    viol_y[di, k] += 1
                if not (zeta[k] - d - eps / 2.0 <= z_hat <= zeta[k] + d + eps / 2.0):
                    viol_z[di, k] += 1

    exceeded = 0
    tightest = ""
    for di, d in enumerate(deltas):
        for k in range(K):
            bound_y = min(1.0, 2.0 * math.exp(-d * d * tau / (8.0 * log2e**2) * z_over_tau[k] ** 2))
            bound_z = min(1.0, 2.0 * math.exp(-d * d * tau / (32.0 * log2e**2) * o_over_tau[k] ** 2))
            lim_y = bound_y + 3.0 * math.sqrt(bound_y * (1.0 - bound_y) / reps)
            lim_z = bound_z + 3.0 * math.sqrt(bound_z * (1.0 - bound_z) / reps)
            if viol_y[di, k] / reps > lim_y or viol_z[di, k] / reps > lim_z:
                exceeded += 1
            if bound_y < 1.0:
                tightest = f"tightest bound {bound_y:.3f} at delta={d}, observed {viol_y[di, k] / reps:.3f}"
    _verdict(
        4,
        exceeded == 0,
        f"K=3, tau=2000, eps=1/4, {reps} replications over deltas {deltas}: "
        f"{exceeded} bound breaches; {tightest}",
    )


def _random_allocation_problem(rng: np.random.Generator):
    K = int(rng.integers(1, 4))
    m = 1.0 + rng.exponential(1.0, size=(K, K))
    np.fill_diagonal(m, 1.0)
    dssp = 0.7 + rng.exponential(1.5, size=(K, K))
    dsps = 0.7 + rng.exponential(1.5, size=(K, K))
    div = DivergenceSet(m=m, d_ssp=dssp, d_sps=dsps)
    costs = rng.uniform(0.1, 2.0, size=(3, K))
    budget = float(rng.uniform(0.2, 2.0))
    extras = (cheap_arm_cap(K, 0, 400),) if K > 1 and rng.random() < 0.5 else ()
    return build_problem(div, costs, budget, tuple(range(K)), extra_constraints=extras)


def test_acceptance_05_allocation_optimality_and_rounding_slack():
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    agreements = 0
    for _ in range(20):
        problem = _random_allocation_problem(rng)
        reference = maxmin_vertex_value(problem)
        try:
            solved = solve_maxmin(problem).v_star
        except Infeasible:
            assert reference is None
            agreements += 1
            continue
        assert reference is not None
        worst_gap = max(worst_gap, abs(solved - reference))
        agreements += 1

    instance = generate_synthetic(
        SyntheticConfig(
            n_arms=5,
            support=4,
            seed=3,
            fairness_eps=0.5,
            fairness_gap_band=(0.3, 0.45),
            reward_gap_band=(0.05, 0.15),
            divergence_band=(1.0, 10.0),
        )
    )
    div = DivergenceSet.exact(instance.model, instance.arms)
    assert min(div.m.min(), div.d_ssp.min(), div.d_sps.min()) >= 1.0
    K = instance.n_arms
    trace = run_algorithm(instance, "csr-v1", 4000, np.random.default_rng(12))
    min_slack = np.inf
    for record in trace.phases:
        alloc = record.allocation
        tau_l = int(round(sum(alloc.tau_y) + sum(alloc.tau_s) + sum(alloc.tau_sp)))
        floor = alloc.v_star - K / tau_l
        for k in record.remaining:
            z_k = sum(alloc.tau_y[j] / div.m[k, j] for j in range(K)) / tau_l
            o_ssp = sum(alloc.tau_sp[j] / div.d_ssp[k, j] for j in range(K)) / tau_l
            o_sps = sum(alloc.tau_s[j] / div.d_sps[k, j] for j in range(K)) / tau_l
            min_slack = min(min_slack, z_k - floor, o_ssp - floor, o_sps - floor)
    _verdict(
        5,
        agreements == 20 and worst_gap <= 2e-3 and min_slack >= -1e-9,
        f"20 random problems vs vertex enumeration: max gap {worst_gap:.2e} (tol 2e-3); "
        f"rounding floor slack over {len(trace.phases)} traced phases: {min_slack:.2e}",
    )


def test_acceptance_06_easy_regime_error_rate():
    start = time.perf_counter()
    instance = generate_synthetic(
        SyntheticConfig(
            n_arms=5,
            support=5,
            seed=11,
            fairness_eps=1.0,
            reward_gap_band=(0.3, 0.45),
            fairness_gap_band=(0.5, 0.9),
            divergence_band=(1.0, 67.0),
        )
    )
    curve = run_sweep(instance, budgets=(20000,), runs=200, algorithms=("csr-v2",), base_seed=0)
    [row] = curve.rows
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        row.error_rate <= 0.05 and elapsed < 300.0,
        f"easy regime (gaps >= 0.3, margins >= 0.5, E=1, T=20000): csr-v2 error "
        f"{row.error_rate:.3f} over {row.runs} runs (limit 0.05) in {elapsed:.0f}s",
    )


def test_acceptance_07_no_fair_arm_detection_trend():
    instance = generate_synthetic(
        SyntheticConfig(
            n_arms=5,
            support=4,
            seed=2,
            fairness_eps=0.1,
            reward_gap_band=(0.05, 0.15),
            fairness_gap_band=(0.3, 0.4),
            n_unfair=5,
        )
    )
    report = oracle_report(instance, 0.1)
    assert report["best_fair"] is None
    assert report["xi_star"] == pytest.approx(0.3, abs=1e-9)
    budgets = (5000, 10000, 20000)
    runs = 200
    curve = run_sweep(instance, budgets=budgets, runs=runs, algorithms=("csr-v2",), base_seed=0)
    rates = [row.no_fair_arm / row.runs for row in curve.rows]
    monotone = True
    for lo, hi in zip(rates, rates[1:]):
        se = math.sqrt((lo * (1 - lo) + hi * (1 - hi)) / runs)
        if hi < lo - 2.0 * se:
            monotone = False
    _verdict(
        7,
        rates[-1] >= 0.9 and monotone,
        f"all-unfair, xi*=0.3: declaration rates {rates} across T={budgets} "
        f"(final >= 0.9, nondecreasing up to 2 SE)",
    )


def test_acceptance_08_experiment_protocols(tmp_path):
    start = time.perf_counter()
    synthetic = generate_synthetic(
        SyntheticConfig(
            n_arms=30,
            support=20,
            seed=5,
            reward_gap_band=(0.02, 0.06),
            fairness_gap_band=(1.93, 1.99),
        )
    )
    synth_budgets = (3000, 6000)
    synth_curve = run_sweep(synthetic, budgets=synth_budgets, runs=100, base_seed=0)
    synth_csv = tmp_path / "synthetic.csv"
    error_curve_to_csv(synth_curve, synth_csv)

    network = build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )
    net_budgets = (2000, 4000, 6000, 8000, 10000)
    net_curve = run_sweep(network, budgets=net_budgets, runs=50, base_seed=0)
    net_csv = tmp_path / "network.csv"
    error_curve_to_csv(net_curve, net_csv)
    elapsed = time.perf_counter() - start

    def grid_of(path):
        with open(path, newline="") as fh:
            return [(int(r["budget"]), r["algorithm"], int(r["runs"])) for r in csv.DictReader(fh)]

    synth_ok = grid_of(synth_csv) == [
        (T, a, 100) for T in synth_budgets for a in ALGORITHMS
    ]
    net_ok = grid_of(net_csv) == [(T, a, 50) for T in net_budgets for a in ALGORITHMS]
    csr_final = next(
        r.error_rate for r in net_curve.rows if r.budget == 10000 and r.algorithm == "csr-v2"
    )
    _verdict(
        8,
        synth_ok and net_ok and elapsed < 7200.0,
        f"K=30/m=20 sweep (100 runs/point) and network sweep (2000-10000 step 2000, "
        f"50 runs/point) wrote exact grids in {elapsed:.0f}s (limit 7200s); "
        f"network csr-v2 error at T=10000: {csr_final:.2f}",
    )


def test_acceptance_09_qualitative_orderings():
    base = dict(
        n_arms=5,
        support=6,
        seed=4,
        fairness_eps=0.5,
        fairness_gap_band=(0.3, 0.45),
        reward_gap_band=(0.3, 0.45),
    )
    runs = 100
    loose = generate_synthetic(SyntheticConfig(**base, divergence_band=(1.0, 10.0)))
    loose_curve = run_sweep(loose, budgets=(1000, 2000, 4000), runs=runs, base_seed=0)
    top = {r.algorithm: r.error_rate for r in loose_curve.rows if r.budget == 4000}
    never_worse = True
    for baseline in ("ts-v1", "ts-v2"):
        se = math.sqrt(
            (top["csr-v2"] * (1 - top["csr-v2"]) + top[baseline] * (1 - top[baseline])) / runs
        )
        if top["csr-v2"] > top[baseline] + se:
            never_worse = False

    high = generate_synthetic(SyntheticConfig(**base, divergence_band=(10.0, 50.0)))
    high_curve = run_sweep(high, budgets=(2000,), runs=runs, base_seed=0)
    low_at = {r.algorithm: r.error_rate for r in loose_curve.rows if r.budget == 2000}
    high_at = {r.algorithm: r.error_rate for r in high_curve.rows}
    ordered = True
    for algorithm in ALGORITHMS:
        lo, hi = low_at[algorithm], high_at[algorithm]
        se = math.sqrt((lo * (1 - lo) + hi * (1 - hi)) / runs)
        if hi < lo - 2.0 * se:
            ordered = False
    _verdict(
        9,
        never_worse and ordered,
        f"top-budget errors {top} (csr-v2 never significantly worse); "
        f"divergence ablation at T=2000: low {low_at} vs high {high_at} "
        f"(high >= low up to 2 SE per algorithm)",
    )


def test_acceptance_10_network_file_ingestion(tmp_path):
    model = liver_network()
    path = tmp_path / "network.bif"
    path.write_text(serialize_bif(ParsedNetwork("liver", model, network_states())))
    parsed = parse_bif(path.read_text())
    n_nodes = len(parsed.model.nodes)
    n_arcs = sum(len(ps) for ps in parsed.model.parents.values())
    row_err = max(
        float(np.abs(parsed.model.cpts[x].sum(axis=1) - 1.0).max()) for x in parsed.model.nodes
    )
    instance = build_network_experiment(
        parsed.model, "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )
    report = validate_model(instance.model, instance.arms)
    truth = oracle_report(instance, 0.2)
    _verdict(
        10,
        n_nodes == 70 and n_arcs == 123 and row_err <= 1e-6 and report.ok
        and len(instance.arms) == 10 and truth["best_fair"] is not None,
        f"{n_nodes} nodes / {n_arcs} arcs parsed, max row error {row_err:.1e} (tol 1e-6); "
        f"10-arm experiment validated, best fair arm {truth['best_fair']}",
    )
