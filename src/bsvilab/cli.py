"""Command-line entry points.

    bsvilab run            --config cfg.json [--out DIR]
    bsvilab sweep          --config cfg.json --axis eps --values 0.1,0.05 [--out DIR]
    bsvilab verify         RUN_DIR
    bsvilab list-scenarios

`run` realizes the noise, solves along the penalization schedule, runs
the checks that verify.verify_run plans, and writes results.csv, verify.json,
summary.json, and config_echo.json into the output directory.  Floats
in CSV artifacts carry 17 significant digits so that a re-run with the
same recorded seed reproduces them byte for byte; summary.json isolates
wall-clock timings in a single key for the same reason.  `verify`
rebuilds an experiment from a run directory's config echo and exits
nonzero if any check fails.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import verify as verifymod
from .errors import BsvilabError, ConfigError
from .paths import accumulate_weights, build_paths
from .scenarios import (
    SCENARIOS,
    Experiment,
    build_experiment,
    reference_error,
    resolve_config,
)
from .solver import make_backend, solve_sequence

SCENARIO_NOTES = {
    "martingale": "driverless tree, terminal = driver value, exact zero start",
    "mc_martingale": "Monte Carlo variant with regression expectations",
    "linear": "deterministic F = -y toward exp(-1)",
    "reflection": "one-sided barrier at 0 pushed by F = 1",
    "two_barrier": "driver clamped into [-1, 1], zero generator",
    "two_barrier_driven": "two barriers with constant push F = 2",
    "clocked_decay": "decay G = -y carried entirely by the clock A",
}


def fmt(x) -> str:
    return f"{float(x):.17g}"


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


@dataclass
class RunResult:
    exp: Experiment
    bundle: object
    seq: object
    reports: list
    summary: dict


def execute(exp: Experiment) -> RunResult:
    """Solve and verify one experiment; artifact writing happens later."""
    t_total = time.perf_counter()
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    bundle = accumulate_weights(
        bundle, exp.gen.mu, exp.gen.nu, exp.gen.ell, exp.solver.p, exp.solver.lam
    )
    t_solve = time.perf_counter()
    backend = make_backend(bundle, exp.solver)
    seq = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    solve_s = time.perf_counter() - t_solve

    t_verify = time.perf_counter()
    reports = verifymod.verify_run(seq, backend, exp.phi, exp.psi, exp.gen, exp.solver.p)
    verify_s = time.perf_counter() - t_verify

    final = seq.solutions[exp.solver.eps_schedule[-1]]
    ref = reference_error(exp, final, bundle)
    p = exp.solver.p
    summary = {
        "scenario": exp.name,
        "seed": exp.seed,
        "config": exp.echo,
        "grid": {"horizon": exp.grid.horizon, "steps": exp.grid.steps},
        "noise": {"kind": bundle.kind, "eval_paths": bundle.n_paths},
        "weight_monitor": {
            "max_exp_pV": float(np.max(np.exp(p * bundle.V))),
            "exp_pVplus_N": float(np.exp(p * bundle.Vplus[-1])),
        },
        "eps_schedule": [float(e) for e in exp.solver.eps_schedule],
        "y0_by_eps": {fmt(e): seq.solutions[e].y0 for e in exp.solver.eps_schedule},
        "gaps": seq.gaps,
        "penalty_energy": {fmt(e): v for e, v in seq.penalty_energy.items()},
        "penalty_by_eps": {
            fmt(e): {
                "active_fraction": seq.solutions[e].active_fraction,
                "max_stiffness": seq.solutions[e].max_stiffness,
            }
            for e in exp.solver.eps_schedule
        },
        "reference_error": ref,
        "tolerance": verifymod.default_tolerance(bundle),
        "verifications": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "worst_violation": float(r.worst_violation),
                "tolerance": float(r.tolerance),
            }
            for r in reports
        ],
        "all_passed": bool(all(r.passed for r in reports)),
        "timings": {
            "solve_s": solve_s,
            "verify_s": verify_s,
            "total_s": time.perf_counter() - t_total,
        },
    }
    return RunResult(exp=exp, bundle=bundle, seq=seq, reports=reports, summary=summary)


def _write_results_csv(path: str, result: RunResult) -> None:
    """One row per node (lattice) or path, written one level at a time.

    The bytes are those of csv.writer's default dialect: fields need no
    quoting, rows end in CRLF, and the last step leaves alpha, Z, U and
    Kinc empty.  Each level is one %-format of its row template repeated
    once per row; %.17g writes the bytes of fmt.
    """
    sol = result.seq.solutions[result.exp.solver.eps_schedule[-1]]
    bundle = result.bundle
    t = bundle.grid.nodes
    n = bundle.grid.steps
    # read once: a property that rebuilds every level on each read
    kinc = sol.kinc_levels
    with open(path, "w", newline="") as fh:
        fh.write("step,t,Q,alpha,node_or_path,Y,Z,U,Kinc\r\n")
        for i in range(n + 1):
            last = i == n
            alpha = "" if last else fmt(bundle.alpha[i])
            head = f"{i},{fmt(t[i])},{fmt(bundle.Q[i])},{alpha},"
            if last:
                row = head + "%d,%.17g,,,\r\n"
                cols = (sol.Y_levels[i],)
            else:
                row = head + "%d,%.17g,%.17g,%.17g,%.17g\r\n"
                cols = (sol.Y_levels[i], sol.Z_levels[i], sol.U_levels[i], kinc[i])
            cols = [np.atleast_1d(c).tolist() for c in cols]
            m = len(cols[0])
            fields = chain.from_iterable(zip(range(m), *cols, strict=True))
            fh.write((row * m) % tuple(fields))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_dump(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_artifacts(out_dir: str, result: RunResult) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    verify_path = os.path.join(out_dir, "verify.json")
    _write_results_csv(results_path, result)
    _json_dump(verify_path, [r.as_dict() for r in result.reports])
    _json_dump(os.path.join(out_dir, "config_echo.json"), result.exp.echo)
    summary = dict(result.summary)
    summary["artifact_hashes"] = {
        "results.csv": _sha256(results_path),
        "verify.json": _sha256(verify_path),
    }
    _json_dump(os.path.join(out_dir, "summary.json"), summary)
    return summary


def _default_out_dir(exp: Experiment) -> str:
    root = os.environ.get("BSVILAB_OUT_ROOT", "runs")
    return os.path.join(root, f"{exp.name}-seed{exp.seed}")


def cmd_run(args) -> int:
    config = load_config(args.config)
    exp = build_experiment(config)
    result = execute(exp)
    out_dir = args.out or _default_out_dir(exp)
    summary = write_artifacts(out_dir, result)
    print(f"scenario {exp.name} (seed {exp.seed})")
    for eps in exp.solver.eps_schedule:
        print(f"  Y0 @ eps={eps:g}: {result.seq.solutions[eps].y0:.10g}")
    for gap in result.seq.gaps:
        print(
            f"  gap eps {gap['eps_coarse']:g} -> {gap['eps_fine']:g}: "
            f"y {gap['y_gap']:.4g}, z {gap['z_gap']:.4g}"
        )
    if summary["reference_error"] is not None:
        print(f"  reference error: {summary['reference_error']:.4g}")
    n_pass = sum(1 for r in result.reports if r.passed)
    print(
        f"  checks: {n_pass}/{len(result.reports)} passed, "
        f"tol {summary['tolerance']:.4g}"
    )
    print(f"  artifacts: {out_dir}")
    return 0


def cmd_verify(args) -> int:
    echo_path = os.path.join(args.run_dir, "config_echo.json")
    if not os.path.exists(echo_path):
        raise ConfigError(f"no config_echo.json under {args.run_dir}")
    exp = build_experiment(load_config(echo_path))
    result = execute(exp)
    failed = 0
    for r in result.reports:
        verdict = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{verdict} {r.name}: worst {r.worst_violation:.4g} vs tol {r.tolerance:.4g}")
    print(f"{len(result.reports) - failed}/{len(result.reports)} checks passed")
    return 0 if failed == 0 else 1


def _sweep_override(axis: str, value: float, base: dict) -> dict:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"sweep: {axis} values must be finite and positive, got {value}")
    if axis == "eps":
        return {"solver": {"eps_schedule": [float(value)]}}
    if axis == "dt":
        grid = base.get("grid", {})
        if "T" not in grid:
            raise ConfigError("sweep over dt needs a grid given as T and steps")
        steps = int(round(float(grid["T"]) / float(value)))
        if steps < 1:
            raise ConfigError(f"sweep: dt={value} exceeds the horizon")
        return {"grid": {"steps": steps}}
    if axis == "paths":
        if base.get("noise", {}).get("kind") != "mc":
            raise ConfigError("sweep over paths needs Monte Carlo noise")
        if value != int(value):
            raise ConfigError(f"sweep: paths values must be whole numbers, got {value}")
        return {"noise": {"paths": int(value)}}
    raise ConfigError(f"sweep: unknown axis {axis!r}")


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    base = resolve_config(config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"sweep: could not parse values {args.values!r}")
    if not values:
        raise ConfigError("sweep: no values given")
    # every value is checked before the first run
    overrides = [_sweep_override(args.axis, value, base) for value in values]
    rows = []
    prev_y0 = None
    for value, override in zip(values, overrides):
        merged = base
        for key, block in override.items():
            merged = {**merged, key: {**merged.get(key, {}), **block}}
        exp = build_experiment(merged)
        t0 = time.perf_counter()
        result = execute(exp)
        runtime = time.perf_counter() - t0
        final = result.seq.solutions[exp.solver.eps_schedule[-1]]
        ref = result.summary["reference_error"]
        gap = "" if prev_y0 is None else fmt(abs(final.y0 - prev_y0))
        rows.append(
            [args.axis, fmt(value), fmt(final.y0), gap,
             "" if ref is None else fmt(ref), f"{runtime:.6f}"]
        )
        prev_y0 = final.y0
        print(
            f"{args.axis}={value:g}: Y0 {final.y0:.10g}"
            + ("" if ref is None else f", ref error {ref:.4g}")
        )
    out_dir = args.out or os.environ.get("BSVILAB_OUT_ROOT", "runs")
    os.makedirs(out_dir, exist_ok=True)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "y0", "y0_gap_prev", "reference_error", "runtime_s"])
        writer.writerows(rows)
    print(f"wrote {sweep_path}")
    return 0


def cmd_list(args) -> int:
    for name in sorted(SCENARIOS):
        print(f"{name}: {SCENARIO_NOTES.get(name, '')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsvilab",
        description="Penalized backward stochastic solves with built-in verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one experiment and write artifacts")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=("eps", "dt", "paths"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check a finished run directory")
    p_verify.add_argument("run_dir")
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-scenarios", help="print the preset registry")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BsvilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
