"""The benchmark's workloads: a bsvilab config each, plus an accuracy gate.

A workload is a config dict handed to `bsvilab run`; the benchmark seed
becomes the config's scenario seed.  Each workload also names a gate, a
check of the run's `summary.json` against a closed form that does not
come from the program, so that a speed-up cannot quietly trade away
accuracy.  BENCHMARK.json and README.md say why each workload exists
and which layers it is meant to move.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

# bsvilab reserves scenario seed 0 for "derive from the wall clock", so
# benchmark seeds are shifted into the positive range.
_SEED_RANGE = 1 << 62


def scenario_seed(seed: int) -> int:
    return 1 + seed % _SEED_RANGE


def _final_y0(summary: dict) -> float:
    """Y0 at the finest eps of the schedule."""
    finest = min(summary["eps_schedule"])
    for key, value in summary["y0_by_eps"].items():
        if float(key) == finest:
            return float(value)
    raise KeyError("summary has no Y0 for the finest eps")


def _gate_mc_martingale(summary: dict, config: dict, results_csv: str) -> Optional[str]:
    """Regression with an intercept preserves sample means, and the
    driverless, unconstrained martingale has Y_i = CE_i[Y_{i+1}]; so Y0
    equals the sample mean of the terminal value B_T over the paths.
    B_T is rebuilt here from the documented stream rule of bsvilab.rng
    (Philox keyed with (seed, path index), one standard normal per step
    times sqrt(dt)), not from the program's own arrays.
    """
    import numpy as np

    steps = config["grid"]["steps"]
    horizon = config["grid"]["T"]
    n_paths = config["noise"]["paths"]
    seed = config["seed"] & ((1 << 64) - 1)
    sqdt = math.sqrt(horizon / steps)
    total = 0.0
    for p in range(n_paths):
        key = np.array([seed, p], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        total += float(np.sum(gen.standard_normal(steps) * sqdt))
    expected = total / n_paths
    y0 = _final_y0(summary)
    if abs(y0 - expected) > 1e-9:
        return f"Y0 {y0!r} is not the sample mean of B_T {expected!r}"
    if abs(summary["reference_error"] - abs(expected)) > 1e-9:
        return f"reference_error {summary['reference_error']!r} != |mean B_T|"
    return None


def _gate_reflection(summary: dict, config: dict, results_csv: str) -> Optional[str]:
    """With push F = 1 against the barrier at 0, the penalized solution
    sits at most eps * F above the projected reference; allow 0.1% for
    the time step."""
    bound = min(summary["eps_schedule"]) * 1.0 * (1.0 + 1e-3)
    err = summary["reference_error"]
    if err is None or not (0.0 <= err <= bound):
        return f"reference_error {err!r} exceeds eps * F = {bound!r}"
    return None


def _gate_two_barrier(summary: dict, config: dict, results_csv: str) -> Optional[str]:
    """Barriers at [-1, 1], a terminal clamped to [-1, 1] and an upward
    push F = 2 over T = 1.  Below the upper barrier the push lifts Y by
    F * (T - t) from a terminal of at least -1, so Y0 >= 1; above it the
    penalty holds Y within eps * F of the barrier.  So every Y0 lies in
    [1, 1 + eps * F], and every Y in results.csv (the finest eps) in
    [-1, 1 + eps * F]; allow 0.1% of eps * F for the time step."""
    push = 2.0
    for key, value in summary["y0_by_eps"].items():
        top = 1.0 + float(key) * push * (1.0 + 1e-3)
        if not 1.0 - 1e-12 <= float(value) <= top:
            return f"Y0 {value!r} at eps {key} outside [1, {top!r}]"
    top = 1.0 + min(summary["eps_schedule"]) * push * (1.0 + 1e-3)
    with open(results_csv, newline="") as fh:
        ys = [float(row["Y"]) for row in csv.DictReader(fh)]
    low, high = min(ys), max(ys)
    if not (-1.0 - 1e-12 <= low and high <= top):
        return f"results.csv Y spans [{low!r}, {high!r}], outside [-1, {top!r}]"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    gate: Callable[[dict, dict, str], Optional[str]]

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": scenario_seed(seed)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_regression",
            config={
                "scenario": "mc_martingale",
                "grid": {"T": 1.0, "steps": 128},
                "noise": {"kind": "mc", "paths": 1000},
                "solver": {"ce": "lsq", "degree": 3, "eps_schedule": [0.1]},
            },
            gate=_gate_mc_martingale,
        ),
        Workload(
            name="reflection_fine",
            config={
                "scenario": "reflection",
                "grid": {"T": 1.0, "steps": 1000},
                "solver": {"eps_schedule": [0.1, 0.05, 0.025]},
            },
            gate=_gate_reflection,
        ),
        Workload(
            name="tree_barrier",
            config={
                "scenario": "two_barrier_driven",
                "grid": {"T": 1.0, "steps": 256},
                "noise": {"kind": "tree", "eval_paths": 1024},
                "solver": {"eps_schedule": [0.1, 0.05, 0.025, 0.0125]},
            },
            gate=_gate_two_barrier,
        ),
    )
}
