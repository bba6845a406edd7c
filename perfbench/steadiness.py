"""Steadiness check: two sets of runs of the same code, interleaved run by run.

    python3 perfbench/steadiness.py [--first-seed 1] [--label NAME] [--out FILE]

For each of ten seeds and each workload in BENCHMARK.json, runs
`perfbench/run.py --trace 0` twice in a row, once for set a and once for
set b, so the two sets see the same seeds and the same stretch of the
machine.  For each end-to-end metric it prints, next to the metric's
bound:

- for each set, the median and quartiles of its ten runs (Python's
  statistics.quantiles, n=4) and the spread (q3 - q1) / median, which
  is what a set of ten runs on ten seeds shows;
- how much worse set b's median is than set a's;
- the quartiles of the paired differences (b - a) / a, the noise that a
  comparison of two commits run in interleaved pairs on one seed sees.

For each workload it also prints the spread of the uncalibrated wall
times, and the slope of log uncalibrated execute time on log
calibration-loop time over all twenty runs, the evidence for
worker.CALIBRATION_EXPONENT.

With --out it merges the sets, under --label, into a JSON file of
recorded sets.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SETS = ("a", "b")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()

    def logged(prefix):
        return next(json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix))

    return logged("environment "), logged("uncalibrated medians, s "), json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def slope(xs, ys):
    """Least-squares slope of log ys on log xs."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="set")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))

    values = {s: {w: {m: [] for m in bounds} for w in workloads} for s in SETS}
    raw = {s: {w: [] for w in workloads} for s in SETS}
    env, attempted, failed = None, 0, 0
    for seed in seeds:
        for w in workloads:
            for s in SETS:
                env, uncalibrated, result = run_once(w, seed, bench["run_seconds"])
                raw[s][w].append(uncalibrated)
                attempted += result["attempted"]
                failed += result["failed"]
                for m in bounds:
                    values[s][w][m].append(result["metrics"][m]["value"])
                print(f"{w} seed {seed} set {s}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.5g}" for m in bounds
                ) + f", failed {result['failed']}/{result['attempted']}", flush=True)

    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "environment": env,
              "attempted": attempted, "failed": failed, "workloads": {}}
    for w in workloads:
        report["workloads"][w] = {}
        for m, bound in bounds.items():
            a, b = (summarise(values[s][w][m]) for s in SETS)
            diffs = [(y - x) / x for x, y in zip(a["values"], b["values"])]
            d1, _, d3 = statistics.quantiles(diffs, n=4)
            entry = {
                "bound": bound, "a": a, "b": b,
                "b_worse_by": b["median"] / a["median"] - 1.0,
                "paired_q1": d1, "paired_q3": d3, "paired_spread": d3 - d1,
            }
            report["workloads"][w][m] = entry
            print(f"{w:<16} {m:<12} bound {bound}: spread a {a['spread']:.3f} "
                  f"b {b['spread']:.3f} (median a {a['median']:.5g} b {b['median']:.5g}), "
                  f"b worse by {entry['b_worse_by']:+.3f}, paired (b-a)/a q1 {d1:+.3f} "
                  f"q3 {d3:+.3f}")
        runs = raw["a"][w] + raw["b"][w]
        report["workloads"][w]["uncalibrated"] = {
            "runs": {s: raw[s][w] for s in SETS},
            "spread": {s: {m: summarise([r[m] for r in raw[s][w]])["spread"]
                           for m in ("run_s", "execute_s", "setup_s")} for s in SETS},
            "execute_slope_on_loop": slope([r["calibration_loop_s"] for r in runs],
                                           [r["execute_s"] for r in runs]),
        }
        print(f"{w:<16} uncalibrated spread " + ", ".join(
            f"{s} {m} {v:.3f}"
            for s, d in report["workloads"][w]["uncalibrated"]["spread"].items()
            for m, v in d.items()
        ) + f"; slope of log execute on log loop "
            f"{report['workloads'][w]['uncalibrated']['execute_slope_on_loop']:.2f}")
    if args.out:
        recorded = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                recorded = json.load(fh)
        recorded[args.label] = report
        with open(args.out, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
