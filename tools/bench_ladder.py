"""Record execute() times of every preset and of three scale ladders.

    python tools/bench_ladder.py --label parent --out BENCH_32.json
    python tools/bench_ladder.py --label change --out BENCH_32.json

Every preset runs through `bsvilab.cli.execute` three times in this
process; the fastest run is kept, with its `solve_s` and `verify_s`.
Each rung of a ladder runs once in a fresh process: its `total_s`,
`solve_s` and `verify_s` come from `RunResult.timings`, its peak
memory is the child's `ru_maxrss` and its minor page faults the
child's `ru_minflt`.  The child then writes the run's artifacts into a
temporary directory, and `phases` splits the faults and the peak by
phase: for build (`build_paths` and `accumulate_weights`), solve
(`make_backend` and `solve_sequence`), verify (`verify_run`) and write
(`write_artifacts`), the `ru_minflt` counted inside its calls and the
rise of `ru_maxrss` across them (`ru_maxrss_rise_mb`, 0 for a phase
that stays under the peak before it).  A second fresh child runs the rung again under
tracemalloc and gives `tracemalloc_peak_mb`, the peak of the heap that
numpy and Python allocate during `execute()`; it is taken apart, so
the timed child runs untraced, and unlike `ru_maxrss` it does not
follow the heap's layout.  The Monte Carlo ladder (`ladder`) is
`mc_martingale` at 128 steps and 4000, 16000 and 32000 paths; the tree
ladder (`tree_ladder`) is `two_barrier_driven` on its 256-step lattice
with 1024, 4096 and 16384 evaluation paths, where verification reads
the lattice along the paths; the deterministic ladder
(`deterministic_ladder`) is `reflection` with three eps at 1000, 10000
and 100000 steps, where every step is a scalar recursion.  BLAS and
OpenMP run on one thread, as in the benchmark under perfbench/.  The
environment (Python, numpy, nproc and whether bytecode is cached) is
recorded with the times.

The results go into the JSON file under --label, and the file keeps the
entries of other labels, so one file holds a parent and a change
measured on the same machine.  --presets, --rungs, --tree-rungs and
--det-rungs run a subset.  The bsvilab imported is the one under this
checkout's src/.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import bsvilab.cli  # noqa: E402
import bsvilab.verify  # noqa: E402
from bsvilab.cli import execute  # noqa: E402
from bsvilab.scenarios import SCENARIOS, build_experiment  # noqa: E402

# kind -> (rung sizes, config of a rung of that size)
LADDERS = {
    "mc": ((4000, 16000, 32000), lambda paths: {
        "scenario": "mc_martingale", "grid": {"steps": 128}, "noise": {"paths": paths},
    }),
    "tree": ((1024, 4096, 16384), lambda paths: {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 256},
        "noise": {"kind": "tree", "eval_paths": paths},
    }),
    "deterministic": ((1000, 10000, 100000), lambda steps: {
        "scenario": "reflection",
        "grid": {"T": 1.0, "steps": steps},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025]},
    }),
}
REPEATS = 3
# phase -> the (module, name) pairs that execute() and rung() resolve at
# call time
PHASES = {
    "build": ((bsvilab.cli, "build_paths"), (bsvilab.cli, "accumulate_weights")),
    "solve": ((bsvilab.cli, "make_backend"), (bsvilab.cli, "solve_sequence")),
    "verify": ((bsvilab.verify, "verify_run"),),
    "write": ((bsvilab.cli, "write_artifacts"),),
}


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


def watch_phases() -> dict:
    """Wrap the calls of PHASES so that each adds its ru_minflt and its
    ru_maxrss rise to its phase's entry; returns the entries."""
    phases = {name: {"ru_minflt": 0, "ru_maxrss_rise_mb": 0.0} for name in PHASES}

    def watched(entry, fn):
        def call(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF)
            try:
                return fn(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF)
                entry["ru_minflt"] += after.ru_minflt - before.ru_minflt
                entry["ru_maxrss_rise_mb"] += (after.ru_maxrss - before.ru_maxrss) / 1024.0
        return call

    for name, sites in PHASES.items():
        for module, attr in sites:
            setattr(module, attr, watched(phases[name], getattr(module, attr)))
    return phases


def rung(kind: str, size: int) -> dict:
    """One rung of a ladder in this process: RunResult.timings, ru_maxrss
    and ru_minflt of execute(), then the per-phase split with the write."""
    phases = watch_phases()
    result = execute(build_experiment(LADDERS[kind][1](size)))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with tempfile.TemporaryDirectory() as tmp:
        bsvilab.cli.write_artifacts(os.path.join(tmp, "run"), result)
    return {
        "paths": result.bundle.n_paths,
        "steps": result.exp.grid.steps,
        "total_s": result.timings["total_s"],
        "solve_s": result.timings["solve_s"],
        "verify_s": result.timings["verify_s"],
        "ru_maxrss_mb": usage.ru_maxrss / 1024.0,
        "ru_minflt": usage.ru_minflt,
        "phases": phases,
    }


def traced_peak(kind: str, size: int) -> float:
    """The tracemalloc peak of one execute() of a rung in this process, MB."""
    import tracemalloc

    exp = build_experiment(LADDERS[kind][1](size))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        execute(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def in_child(flag: str, kind: str, size: int):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag, kind, str(size)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def rung_in_child(kind: str, size: int) -> dict:
    entry = in_child("--child-rung", kind, size)
    entry["tracemalloc_peak_mb"] = in_child("--child-traced", kind, size)
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="HEAD", help="key of this entry in the output file")
    ap.add_argument("--out", help="JSON file to add this entry to (required)")
    ap.add_argument("--presets", nargs="*", default=sorted(SCENARIOS), help="presets to time")
    ap.add_argument(
        "--rungs", nargs="*", type=int, default=list(LADDERS["mc"][0]),
        help="path counts of the Monte Carlo ladder",
    )
    ap.add_argument(
        "--tree-rungs", nargs="*", type=int, default=list(LADDERS["tree"][0]),
        help="evaluation path counts of the tree ladder",
    )
    ap.add_argument(
        "--det-rungs", nargs="*", type=int, default=list(LADDERS["deterministic"][0]),
        help="step counts of the deterministic ladder",
    )
    ap.add_argument("--child-rung", nargs=2, help=argparse.SUPPRESS)
    ap.add_argument("--child-traced", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child_rung is not None:
        kind, size = args.child_rung
        print(json.dumps(rung(kind, int(size))))
        return 0
    if args.child_traced is not None:
        kind, size = args.child_traced
        print(json.dumps(traced_peak(kind, int(size))))
        return 0
    if args.out is None:
        ap.error("--out is required")
    unknown = sorted(set(args.presets) - set(SCENARIOS))
    if unknown:
        ap.error(f"unknown presets: {', '.join(unknown)}")

    entry = {
        "environment": environment(),
        "presets": {name: time_preset(name) for name in args.presets},
        "ladder": [rung_in_child("mc", paths) for paths in args.rungs],
        "tree_ladder": [rung_in_child("tree", paths) for paths in args.tree_rungs],
        "deterministic_ladder": [rung_in_child("deterministic", steps) for steps in args.det_rungs],
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
