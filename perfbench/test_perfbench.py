"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run real traced samples of every workload (about a minute in all)
and are not part of the repository's unit suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as runner  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _scratch_dir():
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(dir=parent)


def _remove(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def _traced_sample(workload, seed):
    work = _scratch_dir()
    try:
        return runner.run_worker(work, [workload, str(seed), work, "--trace"], timeout=170)
    finally:
        _remove(work)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_counts_repeat_exactly(workload):
    first = _traced_sample(workload, 3)
    second = _traced_sample(workload, 3)
    assert runner.sample_problems(first, None) == []
    assert runner.sample_problems(second, first) == []
    counts = {
        k: v for k, v in first["layers"].items()
        if runner.layer_unit(k) in ("count", "bytes")
    }
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["cli.results_rows"] > 0 and counts["solver.field_paths.calls"] > 0


def test_a_missing_call_site_fails_the_sample():
    sample = {"exit_code": 0, "all_passed": True, "gate_error": None,
              "reported_hashes_match": True, "missing_sites": []}
    assert runner.sample_problems(sample, None) == []
    sample["missing_sites"] = ["bsvilab.solver.resolve_implicit"]
    assert runner.sample_problems(sample, None) == [
        "call sites not found: ['bsvilab.solver.resolve_implicit']"
    ]


@pytest.mark.parametrize("y0, ys, passes", [
    (1.19, [-1.0, 0.3, 1.0249], True),
    (1.21, [-1.0, 0.3, 1.0249], False),
    (0.99, [-1.0, 0.3, 1.0249], False),
    (1.19, [-1.001, 0.3, 1.0249], False),
    (1.19, [-1.0, 0.3, 1.03], False),
])
def test_tree_barrier_gate_bounds(y0, ys, passes):
    summary = {"eps_schedule": [0.1, 0.0125], "y0_by_eps": {"0.1": y0, "0.0125": 1.0249}}
    work = _scratch_dir()
    try:
        path = os.path.join(work, "results.csv")
        with open(path, "w") as fh:
            fh.write("step,Y\n" + "".join(f"0,{y!r}\n" for y in ys))
        error = WORKLOADS["tree_barrier"].gate(summary, {}, path)
    finally:
        _remove(work)
    assert (error is None) == passes


def test_self_times_add_up_to_the_root():
    tr = Tracer()

    def leaf():
        return sum(range(2000))

    leaf_span = tr.span("leaf", leaf)

    def middle():
        return leaf_span() + leaf_span()

    root = tr.span("root", tr.span("middle", middle))
    root()
    assert tr.calls == {"root": 1, "middle": 1, "leaf": 2}
    assert sum(tr.self_s.values()) == pytest.approx(tr.total_s["root"], rel=1e-9)


def test_refuses_to_run_without_the_program():
    bare = _scratch_dir()
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reflection_fine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        _remove(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
