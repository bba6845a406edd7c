"""Record execute() times of every preset and of the mc_martingale ladder.

    python tools/bench_ladder.py --label parent --out BENCH_27.json
    python tools/bench_ladder.py --label change --out BENCH_27.json

Every preset runs through `bsvilab.cli.execute` three times in this
process; the fastest run is kept, with its `solve_s` and `verify_s`.
Each rung of the ladder, `mc_martingale` at 128 steps and 4000, 16000
and 32000 paths, runs once in a fresh process: its `total_s`, `solve_s`
and `verify_s` come from `RunResult.timings`, and its peak memory is the
child's `ru_maxrss`.  BLAS and OpenMP run on one thread, as in the
benchmark under perfbench/.  The environment (Python, numpy, nproc and
whether bytecode is cached) is recorded with the times.

The results go into the JSON file under --label, and the file keeps the
entries of other labels, so one file holds a parent and a change
measured on the same machine.  --presets and --rungs run a subset.
The bsvilab imported is the one under this checkout's src/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from bsvilab.cli import execute  # noqa: E402
from bsvilab.scenarios import SCENARIOS, build_experiment  # noqa: E402

RUNGS = (4000, 16000, 32000)
STEPS = 128
REPEATS = 3


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode_cached": not sys.dont_write_bytecode,
    }


def time_preset(name: str) -> dict:
    """The fastest of REPEATS execute() calls of a preset, with its split."""
    best = None
    for _ in range(REPEATS):
        exp = build_experiment({"scenario": name})
        t0 = time.perf_counter()
        result = execute(exp)
        wall = time.perf_counter() - t0
        if best is None or wall < best["execute_s"]:
            best = {
                "execute_s": wall,
                "solve_s": result.timings["solve_s"],
                "verify_s": result.timings["verify_s"],
            }
    return best


def rung(paths: int) -> dict:
    """One ladder rung in this process: RunResult.timings and ru_maxrss."""
    import resource

    exp = build_experiment(
        {"scenario": "mc_martingale", "grid": {"steps": STEPS}, "noise": {"paths": paths}}
    )
    timings = execute(exp).timings
    return {
        "paths": paths,
        "steps": STEPS,
        "total_s": timings["total_s"],
        "solve_s": timings["solve_s"],
        "verify_s": timings["verify_s"],
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def rung_in_child(paths: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child-rung", str(paths)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="HEAD", help="key of this entry in the output file")
    ap.add_argument("--out", help="JSON file to add this entry to (required)")
    ap.add_argument("--presets", nargs="*", default=sorted(SCENARIOS), help="presets to time")
    ap.add_argument("--rungs", nargs="*", type=int, default=list(RUNGS), help="ladder path counts")
    ap.add_argument("--child-rung", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child_rung is not None:
        print(json.dumps(rung(args.child_rung)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    unknown = sorted(set(args.presets) - set(SCENARIOS))
    if unknown:
        ap.error(f"unknown presets: {', '.join(unknown)}")

    entry = {
        "environment": environment(),
        "presets": {name: time_preset(name) for name in args.presets},
        "ladder": [rung_in_child(paths) for paths in args.rungs],
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.label: entry}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
