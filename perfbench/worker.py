"""One benchmark sample: a full `bsvilab run` of one workload in a fresh process.

run.py starts this script once per sample, so every sample pays what a
user of `bsvilab run` pays: importing bsvilab into a new interpreter,
then `bsvilab.cli.main(["run", ...])`.  Usage:

    python3 perfbench/worker.py RESULT_JSON WORKLOAD SEED WORK_DIR [--trace]
    python3 perfbench/worker.py RESULT_JSON --env

The sample's timings, output hashes and checks go to RESULT_JSON.  With
--trace every layer call site listed in tracer.py is wrapped; without
it only the three phases of `run` are (build_experiment, execute,
write_artifacts).  --env records the interpreter, numpy, CPU and BLAS
thread count instead, and fills the bytecode cache for later samples.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start-up)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bsvilab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

if not os.path.abspath(bsvilab.cli.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"bsvilab was imported from {bsvilab.cli.__file__}, not from {ROOT}/src")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402

from tracer import SPANS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Time of calibrate() at the reference speed.  Every time a sample reports
# is its wall time scaled by (CALIBRATION_S / loop)**CALIBRATION_EXPONENT,
# where loop is the mean calibrate() time just before and just after the
# run.  The workloads slow less than the loop does: over the recorded
# steadiness runs, log execute time on log loop time has slopes of 0.60
# to 0.63 (README.md, Steadiness).  The exponent stays a little below
# that, so a workload that slows less than average is not over-corrected.
CALIBRATION_S = 0.1
CALIBRATION_EXPONENT = 0.5


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "bsvilab": os.path.relpath(os.path.dirname(bsvilab.cli.__file__), ROOT),
    }


def _file_digest(path):
    """sha256, newline count and size of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    lines = size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return digest.hexdigest(), lines, size


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def calibrate(n=20000) -> float:
    """Seconds a fixed loop of calls on one-element numpy arrays takes now.

    The shared test machine's speed drifts by tens of percent within
    minutes, and this loop, which runs no bsvilab code, slows with it;
    scaling by it removes much of that drift from the reported times.
    """
    def step(y, a):
        return numpy.maximum(numpy.asarray(y, dtype=float) - a, 0.0) * 0.5

    x = numpy.ones(1)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(n):
        total += float(step(x, 0.3)[0])
    return time.perf_counter() - t0


def span_cost(n=20000) -> float:
    """Seconds one span wrapper adds to a call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer().span("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced sample; `_s` metrics are self times."""
    s, c, n = tr.self_s, tr.calls, tr.counts
    return {
        "scenarios.build_experiment_s": s["scenarios.build_experiment"],
        "paths.build_s": s["paths.build"],
        "rng.streams": n["rng.streams"],
        "solver.solve_sequence_s": s["solver.solve_sequence"],
        "solver.solve_sequence.total_s": tr.total_s["solver.solve_sequence"],
        "solver.solve_penalized.calls": c["solver.solve_penalized"],
        "solver.solve_penalized_s": s["solver.solve_penalized"],
        "solver.resolve_implicit.calls": c["solver.resolve_implicit"],
        "solver.resolve_implicit_s": s["solver.resolve_implicit"],
        "solver.make_backend.calls": c["solver.make_backend"],
        "solver.backend.calls": c["solver.backend"],
        "solver.backend_s": s["solver.backend"],
        "solver.lstsq.calls": n["solver.lstsq.calls"],
        "solver.smoothing_s": s["solver.smoothing"],
        "solver.field_paths.calls": c["solver.field_paths"],
        "solver.field_paths_s": s["solver.field_paths"],
        "solver.field_paths_bytes": n["solver.field_paths_bytes"],
        "convex.combined_gradient.calls": c["convex.combined_gradient"],
        "convex.combined_gradient_s": s["convex.combined_gradient"],
        "generators.driver_calls.solve": n["generators.driver_calls.solve"],
        "generators.driver_calls.verify": n["generators.driver_calls.verify"],
        "generators.driver_s": s["generators.driver"],
        "verify.battery_s": s["verify.battery"],
        "verify.battery.total_s": tr.total_s["verify.battery"],
        "verify.variational.calls": c["verify.variational"],
        "verify.variational_s": s["verify.variational"],
        "verify.ito_s": s["verify.ito"],
        "verify.contraction_s": s["verify.contraction"],
        "verify.bounds_s": s["verify.bounds"],
        "cli.execute_self_s": s["cli.execute"],
        "cli.execute.total_s": tr.total_s["cli.execute"],
        "cli.write_artifacts_s": s["cli.write_artifacts"],
        "cli.run_self_s": s["cli.run"],
        "cli.run.total_s": tr.total_s["cli.run"],
        "trace.spans": sum(c.values()),
    }


def run_sample(workload_name: str, seed: int, work_dir: str, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    config = workload.config_for(seed)
    config_path = os.path.join(work_dir, "config.json")
    out_dir = os.path.join(work_dir, "run")
    with open(config_path, "w") as fh:
        json.dump(config, fh)

    tracer = Tracer()
    missing = install(tracer) if traced else []
    if not traced:
        for _, attr, name, _ in SPANS[:3]:
            setattr(bsvilab.cli, attr, tracer.span(name, getattr(bsvilab.cli, attr)))
    run = tracer.span("cli.run", bsvilab.cli.main)
    calibration = [calibrate()]
    before = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = run(["run", "--config", config_path, "--out", out_dir])
    after = resource.getrusage(resource.RUSAGE_SELF)
    calibration.append(calibrate())
    speed = (CALIBRATION_S / statistics.mean(calibration)) ** CALIBRATION_EXPONENT
    peak_rss_mb = after.ru_maxrss / 1024.0
    run_cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    results_sha, results_lines, results_bytes = _file_digest(
        os.path.join(out_dir, "results.csv")
    )
    verify_sha, _, _ = _file_digest(os.path.join(out_dir, "verify.json"))
    reported = summary.get("artifact_hashes", {})
    checks = summary["verifications"]
    slacks = [c["worst_violation"] / c["tolerance"] for c in checks if c["tolerance"] > 0]

    wall = {
        "setup_s": IMPORT_S + tracer.total_s["scenarios.build_experiment"],
        "run_s": tracer.total_s["cli.run"],
        "execute_s": tracer.total_s["cli.execute"],
    }
    result = {
        **{name: value * speed for name, value in wall.items()},
        "wall": wall,
        "calibration_s": calibration,
        "exit_code": exit_code,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "results_sha256": results_sha,
        "verify_sha256": verify_sha,
        "reported_hashes_match": reported.get("results.csv") == results_sha
        and reported.get("verify.json") == verify_sha,
        "all_passed": bool(summary["all_passed"]),
        "gate_error": workload.gate(summary, config, os.path.join(out_dir, "results.csv")),
        "reference_error": summary.get("reference_error"),
        "checks": len(checks),
        "checks_passed": sum(1 for c in checks if c["passed"]),
        "worst_slack": max(slacks) if slacks else 0.0,
        "results_rows": results_lines - 1,
        "results_bytes": results_bytes,
        "traced": traced,
    }
    if traced:
        layers = layer_metrics(tracer)
        layers.update(
            {
                "trace.span_cost_s": layers["trace.spans"] * span_cost(),
                "verify.checks": result["checks"],
                "verify.checks_passed": result["checks_passed"],
                "verify.worst_slack": result["worst_slack"],
                "cli.results_rows": result["results_rows"],
                "cli.results_bytes": result["results_bytes"],
            }
        )
        result["layers"] = {
            name: value * speed if name.endswith("_s") else value
            for name, value in layers.items()
        }
        result["missing_sites"] = missing
        result["per_call"] = {
            name: {
                "calls": len(d),
                "median_us": 1e6 * speed * _percentile(d, 0.5),
                "p99_us": 1e6 * speed * _percentile(d, 0.99),
            }
            for name, d in tracer.durations.items()
            if len(d) >= 1000  # at least ten calls lie beyond the 99th percentile
        }
    return result


def main(argv) -> int:
    result_path = argv[0]
    if argv[1:] == ["--env"]:
        payload = environment()
    else:
        workload, seed, work_dir = argv[1], int(argv[2]), argv[3]
        payload = run_sample(workload, seed, work_dir, traced="--trace" in argv[4:])
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
