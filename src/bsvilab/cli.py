"""Command-line entry points.

    bsvilab run            --config cfg.json [--out DIR]
    bsvilab sweep          --config cfg.json --axis eps --values 0.1,0.05 [--out DIR]
    bsvilab verify         RUN_DIR
    bsvilab list-scenarios

`run` realizes the noise, solves along the penalization schedule, runs
the checks that verify.verify_run plans, and writes results.csv, verify.json,
summary.json, config_echo.json and profile.json into the output directory.
Floats in CSV artifacts carry 17 significant digits so that a re-run with
the same recorded seed reproduces them byte for byte.  The wall-clock
timings (solve, verify, total and the results.csv write) live in
profile.json alone, so every other artifact repeats byte for byte too.
`verify` rebuilds an experiment from a run directory's config echo and
exits nonzero if any check fails.
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


RESULTS_HEADER = b"step,t,Q,alpha,node_or_path,Y,Z,U,Kinc\r\n"
# the bytes a block of results.csv may hold (see _row_bytes), about the
# writer's peak per call (tracemalloc) when its blocks were 1024 rows
BLOCK_BYTES = 640_000


def fmt(x) -> str:
    return f"{float(x):.17g}"


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}")


def _check_out_dir(path: str) -> None:
    """Refuse an output directory that could not be made or written,
    without making it, so that a run refused later leaves nothing
    behind: its nearest existing ancestor (itself, if it exists) must be
    a writable directory."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot use output directory {path}: {probe} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot use output directory {path}: {probe} is not writable")


@dataclass
class RunResult:
    exp: Experiment
    bundle: object
    seq: object
    reports: list
    summary: dict
    timings: dict


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
                "max_stiffness": float(np.max(bundle.dq / e)),
            }
            for e in exp.solver.eps_schedule
        },
        "reference_error": ref,
        "tolerance": verifymod.default_tolerance(bundle),
        "verifications": [
            {k: v for k, v in r.as_dict().items() if k != "monitors"} for r in reports
        ],
        "all_passed": bool(all(r.passed for r in reports)),
    }
    timings = {
        "solve_s": solve_s,
        "verify_s": verify_s,
        "total_s": time.perf_counter() - t_total,
    }
    return RunResult(
        exp=exp, bundle=bundle, seq=seq, reports=reports, summary=summary, timings=timings
    )


def _level_heads(bundle) -> np.ndarray:
    """`step,t,Q,alpha,` of every level, the floats as '%.17g', as one
    NUL-padded void item each; the last step has no alpha."""
    t, q, alpha = bundle.grid.nodes.tolist(), bundle.Q.tolist(), bundle.alpha.tolist()
    heads = [b"%d,%.17g,%.17g,%.17g," % head for head in zip(range(len(alpha)), t, q, alpha)]
    heads.append(b"%d,%.17g,%.17g,," % (len(alpha), t[-1], q[-1]))
    heads = np.array(heads)
    return heads.view(np.dtype((np.void, heads.itemsize)))


def _row_bytes(row: int, spelled: int, g17) -> int:
    """What one row of a results.csv block holds at most: its row of the
    table (row bytes wide) and its `spelled` float values, and then
    either the row and level numbers and g17's temporaries, or the NUL
    mask and the compacted text."""
    return row + 8 * spelled + max(16 + spelled * g17.BYTES_PER_VALUE, 2 * row)


def _write_results_csv(path: str, result: RunResult) -> str:
    """One row per node (lattice) or path; Kinc is U dQ.  Returns the
    sha256 of the bytes written.

    The bytes are those of csv.writer's default dialect: fields need no
    quoting, rows end in CRLF, and the last step leaves alpha, Z, U and
    Kinc empty.  Rows go out in blocks across levels, as many as fit
    BLOCK_BYTES (see _row_bytes).  One row table, NUL-padded, holds
    every block in turn: [head | index | ,Y | ,Z | ,U | ,Kinc | CRLF]
    per row, compacted by dropping the NULs, which no field contains.
    The heads (step, t, Q, alpha), '%.17g' per level, and the indices,
    numpy's decimal text, are built once per run.  g17.write spells the
    row floats, the bytes of fmt, into the table's cells: one call per
    block and run of adjacent columns.  A column that is +0 in every
    row (U and Kinc where no constraint binds, Z without noise) is
    spelled nowhere; its cell is the constant "0", written once.
    """
    # imported on first use: `verify`, `sweep` and `list-scenarios` write
    # no results.csv, and need neither its compile nor its tables
    from . import g17

    sol = result.seq.solutions[result.exp.solver.eps_schedule[-1]]
    bundle = result.bundle
    n = bundle.grid.steps
    ends = sol.offsets[1:]
    y, z, u = sol.levels("Y", 0, n + 1), sol.levels("Z", 0, n), sol.levels("U", 0, n)
    inner = int(sol.offsets[n])  # rows before the last step's
    if z.size != inner or u.size != inner:
        raise ValueError("Z and U do not fill the levels of Y")
    heads = _level_heads(bundle)
    count = int(np.diff(sol.offsets).max())  # rows in the widest level
    index = np.arange(count).astype(f"S{len(str(count - 1))}")
    # the columns to spell: Y, and Z, U and Kinc = U dQ unless +0 throughout
    z_spelled, u_spelled = z.view(np.int64).any(), u.view(np.int64).any()
    spelled = np.array([True, z_spelled, u_spelled, u_spelled])
    slot = 1 + g17.WIDTH
    starts = heads.itemsize + index.itemsize + np.cumsum([0, *np.where(spelled, slot, 2)])
    row = int(starts[-1]) + 2
    size = max(1, min(y.size, BLOCK_BYTES // _row_bytes(row, spelled.sum(), g17)))
    table = np.zeros((size, row), np.uint8)
    table[:, starts[:-1]] = ord(",")
    table[:, starts[:-1][~spelled] + 1] = ord("0")
    table[:, -2:] = (13, 10)
    values = np.empty((size, spelled.sum()))  # the spelled columns
    # each run of adjacent spelled columns: its values and its cells
    runs, j = [], 0
    for c, k in _runs(spelled):
        cells = table[:, starts[c] : starts[c] + k * slot].reshape(size, k, slot)[:, :, 1:]
        runs.append((values[:, j : j + k], cells))
        j += k

    def block(r0, fh):
        """Write the rows from r0 on, size of them or the rest; the
        block's arrays are freed when it returns."""
        r1 = min(r0 + size, y.size)
        m, q = r1 - r0, max(min(r1, inner) - r0, 0)  # rows, rows with Z, U and Kinc
        rows = np.arange(r0, r1)
        level = np.searchsorted(ends, rows, side="right")
        rows -= sol.offsets[level]
        np.take(heads, level, out=table[:m, : heads.itemsize].view(heads.dtype)[:, 0])
        np.take(index, rows, out=table[:m, heads.itemsize : starts[0]].view(index.dtype)[:, 0])
        del rows
        for j, c in enumerate(np.flatnonzero(spelled)):
            if c == 0:
                values[:m, j] = y[r0:r1]
            elif c < 3:
                values[:q, j] = (z, u)[c - 1][r0 : r0 + q]
            else:
                np.multiply(u[r0 : r0 + q], bundle.dq[level[:q]], out=values[:q, j])
        values[q:m, 1:] = 0.0
        del level
        for x, cells in runs:
            g17.write(x[:m], cells[:m])
        table[q:m, starts[1] : starts[-1]] = 0  # the last step has no Z, U or Kinc:
        table[q:m, starts[1:-1]] = ord(",")  # only their commas stay
        chunk = table[:m][table[:m] != 0]
        digest.update(chunk)
        fh.write(chunk)

    digest = hashlib.sha256(RESULTS_HEADER)
    with open(path, "wb") as fh:
        fh.write(RESULTS_HEADER)
        for r0 in range(0, y.size, size):
            block(r0, fh)
    return digest.hexdigest()


def _runs(mask):
    """(start, length) of each run of True in mask."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    return [(int(a), int(b - a)) for a, b in zip(edges[::2], edges[1::2])]


def _json_dump(path: str, payload) -> str:
    """Write payload as indented JSON; returns the sha256 of the bytes."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_artifacts(out_dir: str, result: RunResult) -> dict:
    _make_out_dir(out_dir)
    t_write = time.perf_counter()
    results_sha = _write_results_csv(os.path.join(out_dir, "results.csv"), result)
    write_s = time.perf_counter() - t_write
    verify_sha = _json_dump(
        os.path.join(out_dir, "verify.json"), [r.as_dict() for r in result.reports]
    )
    _json_dump(os.path.join(out_dir, "config_echo.json"), result.exp.echo)
    summary = dict(result.summary)
    summary["artifact_hashes"] = {"results.csv": results_sha, "verify.json": verify_sha}
    _json_dump(os.path.join(out_dir, "summary.json"), summary)
    _json_dump(os.path.join(out_dir, "profile.json"), {**result.timings, "write_s": write_s})
    return summary


def _default_out_dir(exp: Experiment) -> str:
    root = os.environ.get("BSVILAB_OUT_ROOT", "runs")
    return os.path.join(root, f"{exp.name}-seed{exp.seed}")


def cmd_run(args) -> int:
    config = load_config(args.config)
    exp = build_experiment(config)
    out_dir = args.out or _default_out_dir(exp)
    _check_out_dir(out_dir)
    result = execute(exp)
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
        # explicit nodes take precedence over steps, so they would run
        # every value on the same grid
        if "T" not in grid or "nodes" in grid:
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
    base = resolve_config(load_config(args.config))
    build_experiment(base)  # refuse a bad base config before forming the overrides
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"sweep: could not parse values {args.values!r}")
    if not values:
        raise ConfigError("sweep: no values given")
    # every run's config and the output directory are checked before the first run
    exps = []
    for value in values:
        merged = base
        for key, block in _sweep_override(args.axis, value, base).items():
            merged = {**merged, key: {**merged.get(key, {}), **block}}
        exps.append(build_experiment(merged))
    out_dir = args.out or os.environ.get("BSVILAB_OUT_ROOT", "runs")
    _check_out_dir(out_dir)
    rows = []
    prev_y0 = None
    for value, exp in zip(values, exps):
        if args.axis == "dt":
            # record the dt that ran: T over the rounded step count
            value = exp.grid.horizon / exp.grid.steps
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
    _make_out_dir(out_dir)
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
