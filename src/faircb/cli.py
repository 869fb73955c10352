"""Command line harness.

Subcommands: ``gen`` (synthetic instance from a config JSON), ``bif-import``
(BIF network to an instance or skeleton), ``oracle``, ``divergence``,
``allocate``, ``run`` and ``sweep``.  Exit codes: 0 success, 2 validation or
parse error, 3 infeasible allocation or failed generation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .allocation import build_problem, cheap_arm_cap, round_counts, solve_maxmin
from .bandit import RunTrace
from .divergence import DivergenceSet
from .errors import FairCBError, GenerationFailed, Infeasible
from .io import _is_number, _typed, instance_digest, load_instance, save_instance
from .model import Instance, check_fairness_eps, validate_model
from .netgen import build_network_experiment
from .oracles import oracle_report
from .bif import parse_bif
from .sweep import (
    ALGORITHMS,
    error_curve_to_csv,
    error_curve_to_json,
    run_algorithm,
    run_sweep,
)
from .synth import SyntheticConfig, generate_synthetic

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

_COST_KEYS = ("cost_pull", "cost_force_s", "cost_force_sprime")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, allow_nan=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _clean(x):
    """JSON-ready copy: arrays to lists, NaN to null."""
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, np.ndarray):
        return _clean(x.tolist())
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return None if math.isnan(v) else v
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _cmd_gen(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{args.config}: the config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(SyntheticConfig)})
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {unknown}")
    hints = get_type_hints(SyntheticConfig)
    config = SyntheticConfig(
        **{key: _typed(f"{args.config}: {key}", value, hints[key]) for key, value in raw.items()}
    )
    instance = generate_synthetic(config)
    save_instance(instance, args.out)
    print(f"wrote {args.out} ({instance.name}, digest {instance_digest(instance)})")
    return EXIT_OK


def _cmd_bif_import(args) -> int:
    net = parse_bif(Path(args.bif).read_text())
    designated = (args.intervention, args.sensitive, args.target)
    if any(designated) and not all(designated):
        raise ValueError("--intervention, --sensitive and --target go together")
    if all(designated):
        instance = build_network_experiment(
            net.model,
            args.intervention,
            args.sensitive,
            args.target,
            args.arms,
            args.seed,
            args.fairness_eps,
        )
    else:
        instance = Instance(model=net.model, arms=(), name=net.name)
    save_instance(instance, args.out)
    n_arcs = sum(len(ps) for ps in net.model.parents.values())
    print(f"wrote {args.out} ({len(net.model.nodes)} nodes, {n_arcs} arcs, {len(instance.arms)} arms)")
    return EXIT_OK


def _load_checked(path: str) -> Instance:
    instance = load_instance(path)
    report = validate_model(instance.model, instance.arms)
    if not report.ok:
        raise ValueError(f"{path}: " + "; ".join(report.problems))
    if instance.observed is not None:
        unseen = [x for x in instance.model.read_nodes() if x not in instance.observed]
        if unseen:
            raise ValueError(f"{path}: observed misses the read nodes {unseen}")
    return instance


def _eps_of(instance: Instance, flag: float | None) -> float:
    eps = instance.fairness_eps if flag is None else flag
    if eps is None:
        raise ValueError("no fairness tolerance: pass --fairness-eps or store one in the instance")
    return check_fairness_eps(eps)


def _cmd_oracle(args) -> int:
    instance = _load_checked(args.instance)
    report = oracle_report(instance, _eps_of(instance, args.fairness_eps))
    report["instance_digest"] = instance_digest(instance)
    _emit(_clean(report), args.out)
    return EXIT_OK


def _cmd_divergence(args) -> int:
    instance = _load_checked(args.instance)
    div = DivergenceSet.exact(instance.model, instance.arms)
    for tag, mat in (("m", div.m), ("dssp", div.d_ssp), ("dsps", div.d_sps)):
        path = f"{args.out_prefix}_{tag}.csv"
        np.savetxt(path, mat, delimiter=",")
        print(f"wrote {path}")
    return EXIT_OK


def _int_list(flag: str, text: str) -> list[int]:
    """The comma separated integers given to ``flag``."""
    out = []
    for entry in text.split(","):
        try:
            out.append(int(entry))
        except ValueError:
            raise ValueError(f"{flag}: {entry!r} is not an integer") from None
    return out


def _cost_row(where: str, value, k: int) -> np.ndarray:
    """One per-arm cost row of a costs file: a list of ``k`` numbers."""
    if not (isinstance(value, list) and len(value) == k and all(map(_is_number, value))):
        raise ValueError(f"{where} must be a list of {k} numbers, got {json.dumps(value)}")
    return np.asarray(value, dtype=float)


def _cutoff_matrices(paths) -> list[np.ndarray]:
    """The ``M``, ``D_ssp`` and ``D_sps`` files: K x K each, every entry finite and positive.

    Entries below one are allowed, since the files may come from outside the program.
    """
    mats = [np.loadtxt(path, delimiter=",", ndmin=2) for path in paths]
    k = mats[0].shape[0]
    for path, mat in zip(paths, mats):
        if mat.shape != (k, k):
            rows, cols = mat.shape
            raise ValueError(f"{path}: expected a {k} x {k} matrix, got {rows} x {cols}")
        if not np.all(np.isfinite(mat) & (mat > 0.0)):
            raise ValueError(f"{path}: every entry must be finite and positive")
    return mats


def _cmd_allocate(args) -> int:
    m, dssp, dsps = _cutoff_matrices((args.m, args.dssp, args.dsps))
    spend = json.loads(Path(args.costs).read_text())
    if not isinstance(spend, dict):
        raise ValueError(f"{args.costs}: the costs file must be a JSON object")
    missing = [key for key in _COST_KEYS if key not in spend]
    if missing:
        raise ValueError(f"{args.costs}: missing {', '.join(missing)}")
    k = m.shape[0]
    costs = np.vstack([_cost_row(f"{args.costs}: {key}", spend[key], k) for key in _COST_KEYS])
    budget = args.budget if args.budget is not None else spend.get("budget")
    if budget is None:
        raise ValueError("no budget: pass --budget or store one in the costs file")
    budget = _typed(f"{args.costs}: budget", budget, float)
    active = tuple(_int_list("--active", args.active)) if args.active else tuple(range(k))
    extra = (cheap_arm_cap(k, 0, args.cheap_arm_cap),) if args.cheap_arm_cap else ()
    div = DivergenceSet(m=m, d_ssp=dssp, d_sps=dsps)
    problem = build_problem(div, costs, float(budget), active, extra_constraints=extra)
    allocation = solve_maxmin(problem)
    if args.tau:
        allocation = round_counts(allocation, args.tau)
    payload = {
        "v_star": allocation.v_star,
        "nu_y": allocation.nu_y,
        "nu_s": allocation.nu_s,
        "nu_sp": allocation.nu_sp,
    }
    if args.tau:
        payload.update(tau_y=allocation.tau_y, tau_s=allocation.tau_s, tau_sp=allocation.tau_sp)
    _emit(_clean(payload), args.out)
    return EXIT_OK


def _trace_lines(trace: RunTrace) -> list[str]:
    lines = []
    for p in trace.phases:
        alloc = p.allocation
        record = {
            "phase": p.phase,
            "stage": p.stage,
            "eps": p.eps,
            "remaining": list(p.remaining),
            "fair": list(p.fair),
            "eliminated": [[arm, why] for arm, why in p.eliminated],
            "samples": p.samples,
            "cost": p.cost,
            "v_star": alloc.v_star,
            "nu_y": alloc.nu_y,
            "nu_s": alloc.nu_s,
            "nu_sp": alloc.nu_sp,
            "tau_y": alloc.tau_y,
            "tau_s": alloc.tau_s,
            "tau_sp": alloc.tau_sp,
            "estimates": {
                "y": p.estimates.y,
                "zeta_ssp": p.estimates.zeta_ssp,
                "zeta_sps": p.estimates.zeta_sps,
            },
            "n_eff": {
                "y": p.estimates.n_eff_y,
                "ssp": p.estimates.n_eff_ssp,
                "sps": p.estimates.n_eff_sps,
            },
        }
        lines.append(json.dumps(_clean(record)))
    return lines


def _cmd_run(args) -> int:
    instance = _load_checked(args.instance)
    rng = np.random.default_rng(args.seed)
    trace = run_algorithm(instance, args.algo, args.T, rng, budget=args.budget,
                          fairness_eps=_eps_of(instance, args.fairness_eps))
    if args.trace:
        Path(args.trace).write_text("\n".join(_trace_lines(trace)) + "\n")
    _emit(
        {
            "decision": trace.decision,
            "no_fair_arm": trace.no_fair_arm,
            "samples_spent": trace.samples_spent,
            "cost_spent": trace.cost_spent,
            "n_phases": len(trace.phases),
            "instance_digest": instance_digest(instance),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    instance = _load_checked(args.instance)
    budgets = _int_list("--budgets", args.budgets)
    algorithms = tuple(args.algos.split(",")) if args.algos else ALGORITHMS
    curve = run_sweep(instance, budgets, args.runs, algorithms=algorithms,
                      base_seed=args.base_seed, width=args.width)
    error_curve_to_csv(curve, args.out_csv)
    print(f"wrote {args.out_csv}")
    if args.out_json:
        error_curve_to_json(curve, args.out_json)
        print(f"wrote {args.out_json}")
    for row in curve.rows:
        print(
            f"T={row.budget} {row.algorithm}: error {row.error_rate:.3f} "
            f"({row.misidentifications}/{row.runs}, {row.no_fair_arm} none, {row.failures} failed)"
        )
    failed = sum(row.failures for row in curve.rows)
    if failed:
        total = sum(row.runs for row in curve.rows)
        print(
            f"warning: {failed} of {total} runs raised and were scored as errors",
            file=sys.stderr,
        )
        for row in curve.rows:
            if row.first_failure is not None:
                print(f"  T={row.budget} {row.algorithm}: first failure {row.first_failure}",
                      file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircb", description="Best fair arm identification harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bif-import", help="import a BIF network, optionally attaching arms")
    p.add_argument("--bif", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--intervention")
    p.add_argument("--sensitive")
    p.add_argument("--target")
    p.add_argument("--arms", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fairness-eps", type=float, default=0.2)
    p.set_defaults(fn=_cmd_bif_import)

    p = sub.add_parser("oracle", help="exact per-arm ground truth report")
    p.add_argument("--instance", required=True)
    p.add_argument("--fairness-eps", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("divergence", help="write the M and D matrices as CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("allocate", help="max-min sample allocation from divergence CSVs")
    p.add_argument("--m", required=True)
    p.add_argument("--dssp", required=True)
    p.add_argument("--dsps", required=True)
    p.add_argument("--costs", required=True, help="JSON with cost_pull/cost_force_s/cost_force_sprime")
    p.add_argument("--budget", type=float)
    p.add_argument("--active", help="comma separated arm ids (default: all)")
    p.add_argument("--tau", type=int, default=0, help="round fractions to counts for this phase size")
    p.add_argument("--cheap-arm-cap", type=int, default=0, help="cap arms other than 0 at 1/sqrt(T)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("run", help="one seeded run of an identification algorithm")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--fairness-eps", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write per-phase JSONL here")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="seeded error-rate sweep over budgets and algorithms")
    p.add_argument("--instance", required=True)
    p.add_argument("--budgets", required=True, help="comma separated sample budgets")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--algos", help=f"comma separated subset of {','.join(ALGORITHMS)}")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Infeasible, GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FairCBError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
