"""Print the sha256 of every deterministic artifact of a fixed list of runs.

    python tools/artifact_hashes.py > hashes.txt

One line per case and artifact: results.csv, verify.json,
config_echo.json and summary.json; the wall-clock profile.json is left
out.  The cases are the seven presets at p = 1.5, 2 and 2.5, the
lattice presets `linear` (deterministic, a rank-1 basis) and
`martingale` (a tree, ranks 2 to 4) with regression expectations, the
three benchmark workloads (perfbench/workloads.py) at seeds 1 to 3, and
two drivers of t alone: `two_barrier_driven` with F = 2 - t on a ramp
clock whose A passes 1/eps of the coarse eps, and `reflection` with
F = 1 - t on its 1000-step grid.
Running it on two checkouts and diffing the outputs shows whether a
change moved any artifact byte; running it twice under different
PYTHONHASHSEED values shows whether a run depends on the process.
The bsvilab imported is the one under this checkout's src/.
"""

import hashlib
import importlib.util
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bsvilab.cli import execute, write_artifacts  # noqa: E402
from bsvilab.scenarios import SCENARIOS, build_experiment  # noqa: E402

ARTIFACTS = ("results.csv", "verify.json", "config_echo.json", "summary.json")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases() -> list:
    """(name, config) of every case, in the order they are printed."""
    out = [
        (f"{name}/p={p:g}", {"scenario": name, "solver": {"p": p}})
        for name in sorted(SCENARIOS)
        for p in (1.5, 2.0, 2.5)
    ]
    # lsq on a lattice: rank-deficient bases, at every date (deterministic) or early on (tree)
    out += [(f"{name}/lsq", {"scenario": name, "solver": {"ce": "lsq"}}) for name in ("linear", "martingale")]
    for name, workload in sorted(_workloads().items()):
        out += [(f"{name}/seed={seed}", workload.config_for(seed)) for seed in (1, 2, 3)]
    # H known from (t, alpha) before the sweep; A = 4 (t - 1/4)^+ passes
    # 1/eps = 2 at t = 3/4, and alpha is 1, then 1/5
    out += [
        (
            "two_barrier_driven/F=2-t",
            {
                "scenario": "two_barrier_driven",
                "generator": {"F": "2 - t"},
                "a_process": {"kind": "ramp", "start": 0.25, "rate": 4.0},
                "solver": {"eps_schedule": [0.5, 0.1]},
            },
        ),
        ("reflection/F=1-t", {"scenario": "reflection", "generator": {"F": "1 - t"}}),
    ]
    return out


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for k, (name, config) in enumerate(cases()):
            out_dir = os.path.join(work, str(k))
            write_artifacts(out_dir, execute(build_experiment(config)))
            for artifact in ARTIFACTS:
                print(f"{name} {artifact} {_digest(os.path.join(out_dir, artifact))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
