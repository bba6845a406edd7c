"""bsvilab benchmark: one command that runs a workload, checks it and prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bsvilab checkout; the program is imported from
its `src/`.  The runner starts worker.py once per sample, one process at
a time, with BLAS and OpenMP pinned to one thread, and keeps starting
samples while the next one is expected to end within --seconds.

--trace 0 reports the end-to-end metrics, each the median over the
samples of the run; times are wall seconds scaled to a fixed machine
speed by a calibration loop (worker.calibrate).  --trace 1 alternates
untraced and traced samples, reports the per-layer metrics of the
traced ones and prints the tracing overhead (traced minus untraced
execute time).  Every sample is checked:
the run must exit cleanly, pass its verification battery and the
workload's accuracy gate, and write results.csv and verify.json byte for
byte equal to the first sample's.  The last line of output is one JSON
object with keys correct, attempted, failed and metrics.  README.md
explains the workloads and what each metric should show.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, scenario_seed  # noqa: E402

# a run must end within 180 s; stop starting samples well before that
HARD_LIMIT_S = 150.0
MIN_SAMPLES = {False: 3, True: 2}

# single-threaded baseline: the runner pins every thread pool its
# children could start
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = (
    ("run_s", "s"),
    ("execute_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# unit of each per-layer metric by name suffix, "count" otherwise
LAYER_UNITS = (("_bytes", "bytes"), ("_s", "s"), ("worst_slack", "ratio"))

# sample fields that must repeat exactly across the samples of one run
REPEATED = ("results_sha256", "verify_sha256", "results_rows", "results_bytes", "checks")


class WorkerFailed(Exception):
    pass


def run_worker(work_dir, args, timeout):
    """Run worker.py once; return its result dict."""
    result_path = os.path.join(work_dir, "result.json")
    env = {**os.environ, **PINNED_ENV}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), result_path, *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def sample_problems(sample, first):
    """Reasons this sample counts as failed; empty if it passed."""
    problems = []
    if sample["exit_code"] != 0:
        problems.append(f"bsvilab run exited {sample['exit_code']}")
    if not sample["all_passed"]:
        problems.append("verification battery failed")
    if sample["gate_error"]:
        problems.append(f"accuracy gate: {sample['gate_error']}")
    if not sample["reported_hashes_match"]:
        problems.append("summary.json artifact_hashes differ from the files")
    if sample.get("missing_sites"):
        problems.append(f"call sites not found: {sample['missing_sites']}")
    if first is not None:
        for key in REPEATED:
            if sample[key] != first[key]:
                problems.append(f"{key} differs from the first sample")
        if sample.get("layers") and first.get("layers"):
            for key, value in sample["layers"].items():
                if layer_unit(key) in ("count", "bytes") and value != first["layers"][key]:
                    problems.append(f"layer count {key} differs from the first traced sample")
    return problems


def collect(workload, seed, seconds, trace, work_root, log):
    """Run samples until the next is expected to overrun.

    Returns the samples that produced results, the number attempted and
    the number failed.
    """
    start = time.perf_counter()
    budget = min(float(seconds), HARD_LIMIT_S)
    samples, failures, walls = [], 0, []
    first = {False: None, True: None}
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.median(walls) if walls else 0.0
        done = index >= MIN_SAMPLES[trace]
        if (done and elapsed + expected > budget) or elapsed + expected > HARD_LIMIT_S:
            break
        traced = trace and index % 2 == 1
        sample_dir = tempfile.mkdtemp(prefix=f"s{index}-", dir=work_root)
        args = [workload, str(seed), sample_dir] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        try:
            sample = run_worker(sample_dir, args, timeout=HARD_LIMIT_S + 20.0 - elapsed)
            problems = sample_problems(sample, first[traced])
        except (WorkerFailed, OSError, ValueError) as exc:
            sample, problems = None, [str(exc)]
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
        walls.append(time.perf_counter() - t0)
        index += 1
        if problems:
            failures += 1
            log(f"sample {index}: FAILED: {'; '.join(problems)}")
        if sample is None:
            continue
        if first[traced] is None and not problems:
            first[traced] = sample
        samples.append(sample)
        log(
            f"sample {index}{' traced' if traced else ''}: run {sample['run_s']:.4f} s "
            f"(cpu {sample['run_cpu_s']:.4f} s), "
            f"execute {sample['execute_s']:.4f} s, setup {sample['setup_s']:.4f} s, "
            f"peak rss {sample['peak_rss_mb']:.1f} MB"
        )
    return samples, index, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values):
    """The highest percentile with at least ten samples beyond it, as text."""
    pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
    if pct <= 50:
        return "no tail percentile: fewer than 20 samples"
    return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"


def end_to_end_metrics(samples, log):
    metrics = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in samples]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        log(
            f"{name:<12} {med:.6g} {unit}  median of {len(values)} samples "
            f"(q1 {q1:.6g}, q3 {q3:.6g}); {tail(values)}"
        )
    uncalibrated = {
        name: statistics.median(s["wall"][name] for s in samples) for name in samples[0]["wall"]
    }
    uncalibrated["calibration_loop_s"] = statistics.median(
        c for s in samples for c in s["calibration_s"])
    log("uncalibrated medians, s " + json.dumps(uncalibrated, sort_keys=True))
    return metrics


def layer_unit(name):
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def per_layer_metrics(samples, log):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    if not traced or not plain:
        raise WorkerFailed("trace run needs one traced and one untraced sample")
    metrics = {}
    for name, first in traced[0]["layers"].items():
        unit = layer_unit(name)
        # counts repeat exactly (sample_problems checks it); times vary
        value = first if unit in ("count", "bytes") else statistics.median(
            s["layers"][name] for s in traced)
        metrics[name] = {"value": value, "unit": unit}
    log(f"traced samples {len(traced)}, untraced {len(plain)}; medians:")
    for name, m in metrics.items():
        log(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    exec_traced = statistics.median(s["execute_s"] for s in traced)
    exec_plain = statistics.median(s["execute_s"] for s in plain)
    log(f"tracing overhead: traced execute_s {exec_traced:.4f} s - untraced "
        f"{exec_plain:.4f} s = {exec_traced - exec_plain:.4f} s")
    cost = metrics["trace.span_cost_s"]["value"]
    log(f"accounting, medians; wrapper cost {cost:.4f} s for "
        f"{metrics['trace.spans']['value']} spans:")
    for phase, total in (("execute", "cli.execute.total_s"), ("run", "cli.run.total_s")):
        traced_s = metrics[total]["value"]
        plain_s = statistics.median(s[f"{phase}_s"] for s in plain)
        log(f"  {phase}: traced {traced_s:.4f} s (= sum of layer self times), less wrapper "
            f"cost {traced_s - cost:.4f} s; untraced {phase}_s {plain_s:.4f} s")
    for name, d in sorted(traced[0].get("per_call", {}).items()):
        log(f"  per call {name}: {d['calls']} calls, median {d['median_us']:.2f} us, "
            f"p99 {d['p99_us']:.2f} us")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bsvilab", "cli.py")):
        print(f"perfbench: no bsvilab source under {ROOT}/src", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    trace = bool(args.trace)
    work_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work_parent, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=work_parent)
    try:
        env = run_worker(work_root, ["--env"], timeout=60.0)
        log(f"perfbench workload {args.workload}, seed {args.seed} "
            f"(scenario seed {scenario_seed(args.seed)}), {args.seconds:g} s, trace {args.trace}")
        log("environment " + json.dumps(env, sort_keys=True))
        samples, attempted, failed = collect(
            args.workload, args.seed, args.seconds, trace, work_root, log
        )
        if not samples:
            print("perfbench: no sample completed", file=sys.stderr)
            return 1
        metrics = per_layer_metrics(samples, log) if trace else end_to_end_metrics(samples, log)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass

    ref = samples[0]["reference_error"]
    log(f"reference_error {ref!r} (gated per sample, see workloads.py)")
    log(f"failed_frac {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
