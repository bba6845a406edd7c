import csv
import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bsvilab import cli, g17, solver, verify
from bsvilab.cli import _sweep_override, execute, fmt, main, write_artifacts
from bsvilab.errors import ConfigError
from bsvilab.scenarios import SCENARIOS, build_experiment, resolve_config
from bsvilab.solver import SolutionField

from oracles import results_csv_oracle

MART_SMALL = {"scenario": "martingale", "grid": {"steps": 16}, "seed": 5}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_fmt_round_trips_doubles():
    for x in (1.0 / 3.0, 0.1, np.exp(1.0), -7.25e-13, 0.0):
        assert float(fmt(x)) == x


def test_resolve_config_merges_preset_and_overrides():
    merged = resolve_config(MART_SMALL)
    assert merged["grid"] == {"T": 1.0, "steps": 16}
    assert merged["scenario"]["terminal"] == {"kind": "brownian"}
    assert merged["seed"] == 5
    # string and dict scenario spellings agree
    alt = resolve_config({"scenario": {"name": "martingale"}, "grid": {"steps": 16}, "seed": 5})
    assert alt == merged


def test_resolve_config_rejects_unknown_keys_and_names():
    with pytest.raises(ConfigError, match="unknown top-level"):
        resolve_config({"scenario": "martingale", "grids": {}})
    with pytest.raises(ConfigError, match="unknown scenario"):
        resolve_config({"scenario": "nonesuch"})
    with pytest.raises(ConfigError, match="scenario.terminal"):
        resolve_config({"grid": {"T": 1.0, "steps": 4}})


def test_config_errors_name_the_field():
    base = resolve_config(MART_SMALL)
    cases = [
        ({"potentials": {"phi": {"kind": "interval", "a": 0.5, "b": 2.0}}}, "potentials.phi"),
        ({"potentials": {"phi": {"kind": "cubic"}}}, "potentials.phi.kind"),
        ({"generator": {"F": "y/2"}}, "Div"),
        # F = y is increasing in y, so it breaks the declared mu = 0
        ({"generator": {"F": "y"}}, "generator: F violates its declared monotonicity bound mu"),
        ({"noise": {"kind": "sobol"}}, "noise.kind"),
        ({"a_process": {"kind": "steps"}}, "a_process.kind"),
        # lambda is a constant of the weights' proof, fixed at 1/2
        ({"solver": {"lambda": 0.5}}, r"solver: unknown keys \['lambda'\]"),
        ({"grid": {"T": 1.0, "steps": None}}, "grid.steps"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "oracle"}}}, "scenario.terminal.kind"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "clamp", "lo": 1.0, "hi": -1.0}}}, "lo < hi"),
        # the mollified driver is gone; a tree backend needs a lattice
        ({"solver": {"mollify": True, "eps_schedule": [2.0, 0.5]}}, r"solver: unknown keys \['mollify'\]"),
        ({"noise": {"kind": "mc", "paths": 10}, "solver": {"ce": "tree"}},
         "solver.ce: 'tree' needs tree or deterministic noise, got mc"),
        ({"seed": "abc"}, "seed"),
        # a typo inside a block names the key instead of falling back to a default
        ({"scenario": {"name": "martingale", "terminal": {"kind": "brownian", "valeu": 1.0}}},
         r"scenario.terminal: unknown keys \['valeu'\]"),
        ({"scenario": {"name": "martingale", "termnal": {}}}, r"scenario: unknown keys \['termnal'\]"),
        ({"potentials": {"phy": {"kind": "zero"}}}, r"potentials: unknown keys \['phy'\]"),
        ({"potentials": {"phi": {"kind": "interval", "bb": 0.0}}}, r"potentials.phi: unknown keys \['bb'\]"),
        ({"generator": {"g": "0"}}, r"generator: unknown keys \['g'\]"),
        ({"noise": {"kind": "mc", "path": 10}}, r"noise: unknown keys \['path'\]"),
        ({"grid": {"step": 10}}, r"grid: unknown keys \['step'\]"),
        ({"grid": 10}, "grid: expected an object"),
        ({"a_process": {"kind": "linear", "rat": 2.0}}, r"a_process: unknown keys \['rat'\]"),
        ({"solver": {"eps_shedule": [0.05]}}, r"solver: unknown keys \['eps_shedule'\]"),
        # the verifier's gates are constants, so a verify block is no key at all
        ({"verify": {}}, r"config: unknown top-level keys \['verify'\]"),
        # bool is an int subclass; an integer field still refuses true
        ({"noise": {"kind": "mc", "paths": True}}, r"noise.paths: expected .*int.*got bool"),
        ({"grid": {"T": 1.0, "steps": True}}, r"grid.steps: expected .*int.*got bool"),
        ({"seed": True}, r"config.seed: expected .*int.*got bool"),
        ({"solver": {"degree": True}}, r"solver.degree must be an integer >= 1, got True"),
        ({"grid": {"nodes": "abc"}}, r"grid.nodes: expected .*list.*got str"),
        ({"grid": {"nodes": [0, True]}}, r"grid.nodes: expected a list of numbers"),
        ({"grid": {"nodes": [0, "1"]}}, r"grid.nodes: expected a list of numbers"),
        ({"noise": {"kind": "tree", "eval_paths": -3}}, r"noise: eval_paths must be >= 1, got -3"),
        # 0 is no request for the default count
        ({"noise": {"kind": "tree", "eval_paths": 0}}, r"noise: eval_paths must be >= 1, got 0"),
        # --out and the default directory name the output; the config does not
        ({"out_dir": 5}, r"config: unknown top-level keys \['out_dir'\]"),
    ] + [
        # a NaN or infinite bound makes every sampled comparison vacuous
        ({"generator": {name: value}}, f"generator: {name} must be finite, got {value}")
        for name in ("mu", "nu", "ell")
        for value in (math.nan, math.inf, -math.inf)
    ] + [
        # NaN passes lo < hi, and JSON carries NaN and Infinity
        ({"scenario": {"name": "martingale", "terminal": {"kind": "clamp", **bounds}}},
         f"scenario.terminal.{name}: must be a number, got nan")
        for name, bounds in (
            ("lo", {"lo": math.nan, "hi": 1.0}),
            ("hi", {"lo": -1.0, "hi": math.nan}),
            ("lo", {"lo": math.nan, "hi": math.nan}),
        )
    ] + [
        ({"scenario": {"name": "martingale", "terminal": {"kind": "constant", "value": value}}},
         f"scenario.terminal.value: must be finite, got {value}")
        for value in (math.nan, math.inf, -math.inf)
    ]
    for override, needle in cases:
        cfg = {**base, **override}
        with pytest.raises(ConfigError, match=needle):
            build_experiment(cfg)


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_configs():
    workloads = _perfbench_module("workloads").WORKLOADS
    return {name: w.config_for(1) for name, w in workloads.items()}


def test_every_call_site_the_benchmark_traces_exists():
    # a renamed or deleted site fails a traced benchmark sample; look each
    # one up without tracer.install, which would patch the modules for
    # the tests that follow
    tracer = _perfbench_module("tracer")
    sites = [(owner, attr) for owner, attr, *_ in tracer.SPANS + tracer.COUNTERS]
    missing = [
        f"{owner}.{attr}" for owner, attr in sites
        if getattr(tracer._resolve(owner), attr, None) is None
    ]
    assert sites and missing == []


def test_every_shipped_config_passes_the_key_check():
    configs = {name: {"scenario": name} for name in SCENARIOS}
    configs.update(_benchmark_configs())
    # a block merged over a preset of another kind keeps the preset's keys
    configs["tree-over-mc"] = {"scenario": "mc_martingale", "noise": {"kind": "tree"}}
    configs["quadratic-over-interval"] = {
        "scenario": "two_barrier", "potentials": {"phi": {"kind": "quadratic", "c": 1.0}}
    }
    for name, config in configs.items():
        base = resolve_config(config)
        build_experiment(base)
        axes = {"eps": 0.05, "dt": 0.01}
        if base["noise"]["kind"] == "mc":
            axes["paths"] = 100
        for axis, value in axes.items():
            merged = base
            for key, block in _sweep_override(axis, value, base).items():
                merged = {**merged, key: {**merged.get(key, {}), **block}}
            build_experiment(merged)


def test_execute_builds_one_backend(monkeypatch):
    make_backend = solver.make_backend
    calls = []

    def counted(bundle, cfg):
        calls.append(cfg.ce)
        return make_backend(bundle, cfg)

    monkeypatch.setattr(cli, "make_backend", counted)
    monkeypatch.setattr(solver, "make_backend", counted)
    for config in (MART_SMALL, {"scenario": "mc_martingale", "grid": {"steps": 8}, "noise": {"paths": 200}}):
        calls.clear()
        res = execute(build_experiment(config))
        assert calls == [res.exp.solver.ce]
        assert {s.backend_kind for s in res.seq.solutions.values()} == {res.exp.solver.ce}


# sha256 of results.csv for every tree and deterministic preset at its
# defaults, and for two of them with ell = 1 (CASE_CONFIGS).  These runs
# use only +, -, *, / and sqrt, so the bytes should not depend on the
# CPU; a change that moves them moves a result.
RESULTS_CSV_SHA256 = {
    "clocked_decay": "774f9ddcfb3337a8e14268f3aefeb407276475140a8c9f49f48fde1eb16ce7d4",
    "clocked_decay/ell=1/p=1.5": "774f9ddcfb3337a8e14268f3aefeb407276475140a8c9f49f48fde1eb16ce7d4",
    "linear": "907ff6ebc11baa77e819236c03b492fc675fd60f44671390f2533e28186c21ed",
    "martingale": "c9666b6a76a98a19f926b7651a465eb2049fb1200456d9c3765a47b0c5bf9f6a",
    "reflection": "5126da07cf993631ebb24165b38a11b7978df833b03b1c54a4afc1c682017941",
    "two_barrier": "0c1c6ca9ac2cd1e4928411af05f4c9f5240a4f09b97b554a314e88df9a86d2da",
    "two_barrier_driven": "f2d6f8f8ba90d0a0b7fcc9b2cd4741e40f2e4a0c1c71f6643b8b615d3782ae05",
    "two_barrier_driven/ell=1": "f2d6f8f8ba90d0a0b7fcc9b2cd4741e40f2e4a0c1c71f6643b8b615d3782ae05",
}


# sha256 of verify.json for the same runs: every check's worst value,
# gate and monitors
VERIFY_JSON_SHA256 = {
    "clocked_decay": "5f2ef5015569a2db750b86c56152873758b5725b7d5451d2e655efe648809886",
    "clocked_decay/ell=1/p=1.5": "bad59e9ae2a68c7841af49277bf0a08942bbb54f2c459e965dc0ea3a9e95da7c",
    "linear": "7c9cdc23bb7f3b5e1ac66a4e6150bec9a3aad4953ba157d47132c9368a791340",
    "martingale": "88c0400751c5fe85c62fb6997d1b5efef4ae861c5f956891e47838ead0a2b591",
    "reflection": "3ba60dbd2615ccbc1628762b8e193a3d07ac8934b73d19e5f8961302e14f3935",
    "two_barrier": "df05c537342d9a92a99778ad75fc811d116ab1588b75b318bc829d46cb2341bb",
    "two_barrier_driven": "5cd78a442cf342fcce79643e27e3aaa25079d0574822d61c13923987d1a2d21d",
    "two_barrier_driven/ell=1": "89b31112bef3ca56555fb6192a9b1971f0a4dbd51599f6b7c58afe5250dab3d2",
}


# ell^2 / (2 n_p lambda) is the one term of the weights that the split
# lambda = 1/2 enters; n_p = min(1, p - 1) is 1, then 1/2.  The weights
# move verify.json only: the solve does not read them
CASE_CONFIGS = {
    "two_barrier_driven/ell=1": {"scenario": "two_barrier_driven", "generator": {"ell": 1.0}},
    "clocked_decay/ell=1/p=1.5": {
        "scenario": "clocked_decay", "generator": {"ell": 1.0}, "solver": {"p": 1.5},
    },
}


@pytest.mark.parametrize("scenario", sorted(RESULTS_CSV_SHA256))
def test_results_csv_bytes_hold_on_exact_presets(tmp_path, scenario):
    config = CASE_CONFIGS.get(scenario, {"scenario": scenario})
    written = write_artifacts(str(tmp_path), execute(build_experiment(config)))
    assert written["artifact_hashes"] == {
        "results.csv": RESULTS_CSV_SHA256[scenario],
        "verify.json": VERIFY_JSON_SHA256[scenario],
    }


def test_terminal_kinds_evaluate():
    b = np.array([-2.0, 0.0, 2.0])
    exp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "expr", "expr": "b - a"}}})
    assert np.array_equal(exp.terminal(b, 0.5), b - 0.5)
    clamp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "clamp", "lo": -1.0, "hi": 1.0}}})
    assert np.array_equal(clamp.terminal(b, 0.0), np.array([-1.0, 0.0, 1.0]))
    # an infinite bound clamps nothing on its side
    open_clamp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "clamp", "lo": -math.inf, "hi": math.inf}}})
    assert np.array_equal(open_clamp.terminal(b, 0.0), b)
    const = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "constant", "value": 0.25}}})
    assert np.array_equal(const.terminal(b, 0.0), np.full(3, 0.25))


def test_seed_zero_derives_and_records():
    exp = build_experiment({"scenario": "martingale", "seed": 0})
    assert exp.seed != 0
    assert exp.echo["seed"] == exp.seed
    assert exp.noise.seed == exp.seed
    fixed = build_experiment({"scenario": "martingale", "seed": 7})
    assert fixed.seed == 7 and fixed.noise.seed == 7


def test_registry_round_trips_and_lists(capsys):
    for name, preset in SCENARIOS.items():
        rehydrated = json.loads(json.dumps(preset))
        exp = build_experiment(rehydrated)
        assert exp.name == name
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_run_writes_byte_identical_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, MART_SMALL)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", "--config", cfg, "--out", out1]) == 0
    assert main(["run", "--config", cfg, "--out", out2]) == 0

    # wall-clock data lives in profile.json, so every other artifact repeats
    for fname in ("results.csv", "verify.json", "config_echo.json", "summary.json"):
        assert Path(out1, fname).read_bytes() == Path(out2, fname).read_bytes(), fname
    profile = json.loads(Path(out1, "profile.json").read_text())
    assert set(profile) == {"solve_s", "verify_s", "total_s", "write_s"}

    s1 = json.loads(Path(out1, "summary.json").read_text())
    assert "timings" not in s1

    blob = Path(out1, "results.csv").read_bytes()
    assert s1["artifact_hashes"]["results.csv"] == hashlib.sha256(blob).hexdigest()
    assert s1["all_passed"] is True
    assert s1["y0_by_eps"][fmt(0.1)] == 0.0

    head = blob.split(b"\r\n", 1)[0]
    assert head == b"step,t,Q,alpha,node_or_path,Y,Z,U,Kinc"


def test_verify_subcommand_replays_a_run(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, MART_SMALL)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report

    assert main(["verify", str(tmp_path / "missing")]) == 2

    # a run directory whose echo carries a verify block predates the fixed gates
    echo = json.loads(Path(out, "config_echo.json").read_text())
    old = tmp_path / "old"
    old.mkdir()
    (old / "config_echo.json").write_text(json.dumps({**echo, "verify": {}}))
    assert main(["verify", str(old)]) == 2
    # so does one whose solver block sets lambda, now fixed at 1/2; with
    # the key deleted it replays
    with_lambda = {**echo, "solver": {**echo["solver"], "lambda": 0.5}}
    (old / "config_echo.json").write_text(json.dumps(with_lambda))
    capsys.readouterr()
    assert main(["verify", str(old)]) == 2
    assert "error: solver: unknown keys ['lambda']" in capsys.readouterr().err
    (old / "config_echo.json").write_text(json.dumps(echo))
    assert main(["verify", str(old)]) == 0

    # a zero tolerance turns the O(dt) discretization bias into failures
    monkeypatch.setattr(verify, "C_DT", 0.0)
    monkeypatch.setattr(verify, "C_MC", 0.0)
    strict = {"scenario": "linear", "grid": {"T": 1.0, "steps": 50}, "seed": 3}
    cfg2 = write_cfg(tmp_path, strict, name="strict.json")
    out2 = str(tmp_path / "strict")
    main(["run", "--config", cfg2, "--out", out2])
    capsys.readouterr()
    assert main(["verify", out2]) == 1


def test_sweep_dt_shows_first_order_convergence(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"scenario": "linear", "seed": 2})
    out = str(tmp_path / "sweep")
    assert main([
        "sweep", "--config", cfg, "--axis", "dt", "--values", "0.02,0.01", "--out", out
    ]) == 0
    capsys.readouterr()
    rows = Path(out, "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "axis,value,y0,y0_gap_prev,reference_error,runtime_s"
    errs = [float(r.split(",")[4]) for r in rows[1:]]
    assert 1.7 <= errs[0] / errs[1] <= 2.3
    # full-precision serialization round-trips
    y0 = rows[1].split(",")[2]
    assert fmt(float(y0)) == y0


def test_sweep_guards_axes(tmp_path):
    cfg = write_cfg(tmp_path, {"scenario": "linear", "seed": 2})
    assert main(["sweep", "--config", cfg, "--axis", "paths", "--values", "100", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--config", cfg, "--axis", "dt", "--values", "oops", "--out", str(tmp_path)]) == 2
    nodes_cfg = write_cfg(tmp_path, {
        "scenario": {"terminal": {"kind": "constant", "value": 1.0}},
        "grid": {"nodes": [0.0, 0.5, 1.0]},
        "noise": {"kind": "deterministic"},
        "seed": 2,
    }, name="nodes.json")
    assert main(["sweep", "--config", nodes_cfg, "--axis", "dt", "--values", "0.1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("axis, values", [
    ("dt", "0.25,0"),
    ("dt", "0.25,nan"),
    ("dt", "0.25,-0.5"),
    ("eps", "0.1,inf"),
    ("paths", "20,nan"),
    ("paths", "20,1.5"),
    ("paths", "20,-3"),
])
def test_sweep_refuses_bad_axis_values(tmp_path, capsys, monkeypatch, axis, values):
    # every value is checked before the first run, so nothing runs and
    # no sweep.csv is written
    scenario = "mc_martingale" if axis == "paths" else "linear"
    cfg = write_cfg(tmp_path, {"scenario": scenario, "grid": {"T": 1.0, "steps": 8}})
    runs = []
    monkeypatch.setattr(cli, "execute", runs.append)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--axis", axis, "--values", values, "--out", str(out)]) == 2
    assert f"sweep: {axis} values must be" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("axis, config", [
    ("dt", {"scenario": "linear", "grid": None}),
    ("paths", {"scenario": "mc_martingale", "noise": None}),
    ("eps", {"scenario": "linear", "solver": None}),
])
def test_sweep_refuses_a_null_config_block(tmp_path, capsys, axis, config):
    # the base config is checked as `run` checks it, before any override
    # reads the block
    block = next(key for key, value in config.items() if value is None)
    out = tmp_path / "out"
    argv = ["sweep", "--config", write_cfg(tmp_path, config), "--axis", axis, "--values", "100"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {block}: expected an object, got NoneType" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"scenario": "linear", "grid": {"T": 1.0, "steps": 3}},
    {"scenario": "linear", "grid": {"T": 1.0, "steps": 1}},
    {"scenario": "two_barrier", "grid": {"T": 1.0, "steps": 2}},
    {"scenario": "linear", "grid": {"nodes": [0.0, 0.5, 1.0]}},
])
def test_grids_of_a_few_steps_run_and_verify(tmp_path, capsys, config):
    # max(4 max(dt), T/20) lies past the horizon here; the smoothing
    # scale is capped at T instead of raising DomainError
    out = str(tmp_path / "run")
    assert main(["run", "--config", write_cfg(tmp_path, config), "--out", out]) == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["all_passed"], summary["verifications"]
    capsys.readouterr()


def test_sweep_dt_runs_above_a_quarter_of_the_horizon(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"scenario": "linear"})
    argv = ["sweep", "--config", cfg, "--axis", "dt", "--values", "0.5,0.3", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    # 0.3 runs as 3 steps of T/3, and the table records that dt
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["0.5", "0.33333333333333331"]
    # explicit nodes would override every step count the sweep sets
    nodes = {"scenario": "linear", "grid": {"T": 1.0, "steps": 8, "nodes": [0.0, 0.5, 1.0]}}
    argv[2] = write_cfg(tmp_path, nodes, "nodes.json")
    assert main(argv) == 2
    assert "needs a grid given as T and steps" in capsys.readouterr().err


def test_main_reports_config_errors(tmp_path, capsys, monkeypatch):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"scenario": "martingale", "note": "\xe9"}')
    good = write_cfg(tmp_path, MART_SMALL)
    taken = tmp_path / "taken"
    taken.write_text("")
    # a directory or non-UTF-8 bytes as the config, a file as --out or as
    # a parent of --out: an error line naming the path, no traceback
    unusable = [
        (["run", "--config", str(tmp_path)], str(tmp_path)),
        (["run", "--config", str(latin)], str(latin)),
        (["run", "--config", good, "--out", str(taken)], str(taken)),
        (["run", "--config", good, "--out", str(taken / "sub")], str(taken / "sub")),
        (["sweep", "--config", good, "--axis", "eps", "--values", "0.1", "--out", str(taken)],
         str(taken)),
    ]
    for argv, path in unusable:
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and path in err
        # the output directory is checked before anything runs
        assert out == ""
    # a config error refuses run and sweep before any path is realized
    # and before the output directory is made
    realized = []
    monkeypatch.setattr(cli, "build_paths", lambda *args: realized.append(args))
    mollify = write_cfg(tmp_path, {**MART_SMALL, "solver": {"mollify": True, "eps_schedule": [2.0, 0.5]}})
    mollify_sweep = write_cfg(tmp_path, {**MART_SMALL, "solver": {"mollify": True}}, "sweep.json")
    tree_mc = write_cfg(tmp_path, {"scenario": "mc_martingale", "solver": {"ce": "tree"}}, "mc.json")
    fresh = tmp_path / "fresh"
    refused = [
        (["run", "--config", mollify, "--out", str(fresh)], "solver: unknown keys ['mollify']"),
        (["run", "--config", tree_mc, "--out", str(fresh)], "solver.ce"),
        (["sweep", "--config", mollify_sweep, "--axis", "eps", "--values", "0.5,2",
          "--out", str(fresh)], "solver: unknown keys ['mollify']"),
        (["sweep", "--config", tree_mc, "--axis", "paths", "--values", "100",
          "--out", str(fresh)], "solver.ce"),
    ]
    for argv, field in refused:
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {field}") and out == ""
        assert realized == [] and not fresh.exists()


@pytest.mark.parametrize("scenario", ["martingale", "two_barrier_driven"])
def test_tree_noise_with_regression_expectations_verifies(scenario):
    # regression levels hold one value per path even on a tree bundle, so
    # they reach paths by stacking, not through lattice node indices
    exp = build_experiment(
        {"scenario": scenario, "solver": {"ce": "lsq"}, "noise": {"kind": "tree", "eval_paths": 256}}
    )
    res = execute(exp)
    assert res.summary["all_passed"], [r.name for r in res.reports if not r.passed]
    sol = res.seq.solutions[exp.solver.eps_schedule[-1]]
    levels = [sol.level("Y", i) for i in range(exp.grid.steps + 1)]
    assert np.array_equal(sol.paths(res.bundle)["Y"], np.stack(levels, axis=1))


def test_tiny_ramp_keeps_the_clock_density_at_most_one():
    # diff(t + A) rounded below dt on the last step: alpha was 1 + 6.7e-16
    # and combined_driver raised DomainError
    exp = build_experiment({
        "scenario": "linear",
        "grid": {"T": 1, "steps": 5},
        "a_process": {"kind": "ramp", "start": 0.5, "rate": 2.220446049250313e-16},
    })
    res = execute(exp)
    assert np.all(res.bundle.alpha <= 1.0)
    assert res.summary["all_passed"], [r.name for r in res.reports if not r.passed]


def test_a_clock_that_overflows_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    # A = 1e308 t overflows to inf from t = 2 on, and dA = inf - inf to nan
    # (T = 4); either made alpha 0 or nan, so build_paths refuses the clock,
    # without a numpy warning first
    solved = []
    monkeypatch.setattr(cli, "solve_sequence", lambda *args: solved.append(args))
    for horizon, node in ((2, 8), (4, 4)):
        config = {
            "scenario": "linear",
            "grid": {"T": horizon, "steps": 8},
            "a_process": {"kind": "linear", "rate": 1e308},
        }
        with pytest.raises(ConfigError, match=rf"^a_process: .* at node {node} \(t = 2.0\)"):
            execute(build_experiment(config))
        capsys.readouterr()
        argv = ["run", "--config", write_cfg(tmp_path, config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: a_process: the clock is not finite at node {node}") and out == ""
    assert solved == []
    # a clock that stays finite passes, and its alpha = dt / dq lies in [0, 1]
    exp = build_experiment({
        "scenario": "linear",
        "grid": {"T": 2, "steps": 8},
        "a_process": {"kind": "linear", "rate": 8e307},
    })
    alpha = cli.build_paths(exp.grid, exp.noise, exp.a_spec).alpha
    assert np.all((0.0 <= alpha) & (alpha <= 1.0)) and alpha[0] == 0.25 / (0.25 + 2e307)


def test_a_run_refused_after_the_config_leaves_no_output_directory(tmp_path, capsys):
    # build_paths refuses the first two and accumulate_weights the third,
    # after build_experiment has accepted them
    overflow = {
        "scenario": "linear",
        "grid": {"T": 2, "steps": 8},
        "a_process": {"kind": "linear", "rate": 1e308},
    }
    uneven_tree = {"scenario": "martingale", "grid": {"nodes": [0.0, 0.25, 1.0]}}
    # F = -y keeps its declared bound mu = 1000, but the energy bound's
    # e^{2 Vplus_N} = e^2000 is no float: this wrote NaN and Infinity into
    # verify.json, with numpy overflow warnings, and exited 0
    heavy_weights = {"scenario": "linear", "generator": {"mu": 1000}}
    weights_error = (
        "generator: the weights overflow, max(p, 2) Vplus_N = 2000 > 709.783; "
        "lower generator.mu, nu or ell, or solver.p"
    )
    refused = ((overflow, "a_process"), (uneven_tree, "noise"), (heavy_weights, weights_error))
    for k, (config, field) in enumerate(refused):
        cfg = write_cfg(tmp_path, config, f"cfg{k}.json")
        out = tmp_path / f"out{k}" / "run"
        for argv in (
            ["run", "--config", cfg, "--out", str(out)],
            ["sweep", "--config", cfg, "--axis", "eps", "--values", "0.1", "--out", str(out)],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {field}")
            assert not (tmp_path / f"out{k}").exists()


def test_a_run_with_non_finite_results_is_refused_and_leaves_no_output_directory(tmp_path, capsys):
    # F = 1e300 keeps Y finite, but U^2 and the checks' sums overflow:
    # this wrote NaN and Infinity into verify.json and summary.json, which
    # strict JSON parsers reject, and exited 0.  The first is the one-cell
    # float sweep, the second a lattice
    push = {"generator": {"F": "1e300"}, "grid": {"T": 1.0, "steps": 4}}
    configs = ({"scenario": "reflection", **push}, {"scenario": "two_barrier_driven", **push})
    for k, config in enumerate(configs):
        cfg = write_cfg(tmp_path, config, f"cfg{k}.json")
        out = tmp_path / f"out{k}" / "run"
        for argv in (
            ["run", "--config", cfg, "--out", str(out)],
            ["sweep", "--config", cfg, "--axis", "eps", "--values", "0.1", "--out", str(out)],
        ):
            capsys.readouterr()
            # the overflow itself warns; the refusal is what is tested here
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: verification 'variational[zero] q=2': worst_violation is nan")
            assert not (tmp_path / f"out{k}").exists()


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._json_dump(str(tmp_path / "x.json"), {"gap": float("inf")})


def _strict_json(path):
    def refuse(text):
        raise AssertionError(f"{path.name} holds {text}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_a_config_holding_nan_or_infinity_is_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    # the config is echoed into config_echo.json and summary.json, which
    # cannot carry these; an unbounded side is a bound left out instead
    def no_solve(exp):
        raise AssertionError("solved a config that should have been refused")

    monkeypatch.setattr(cli, "execute", no_solve)
    for k, text in enumerate(("-Infinity", "Infinity", "NaN", "1e999", "-1e999")):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(
            '{"scenario": {"name": "two_barrier", '
            f'"terminal": {{"kind": "clamp", "lo": {text}, "hi": 1.0}}}}}}'
        )
        run_dir = tmp_path / f"old{k}"
        run_dir.mkdir()
        (run_dir / "config_echo.json").write_text(cfg.read_text())
        out = tmp_path / f"out{k}" / "run"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["sweep", "--config", str(cfg), "--axis", "eps", "--values", "0.1", "--out", str(out)],
            ["verify", str(run_dir)],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config: {text} is not a finite number"), err
            assert not (tmp_path / f"out{k}").exists()


def test_one_sided_bounds_run_and_write_strict_json(tmp_path, capsys):
    # a clamp's lo and an interval's a left null clamp and constrain no side
    config = {
        "scenario": {"name": "two_barrier", "terminal": {"kind": "clamp", "lo": None}},
        "potentials": {"phi": {"kind": "interval", "a": None}},
        "grid": {"steps": 8},
    }
    exp = build_experiment(config)
    assert np.array_equal(exp.terminal(np.array([-5.0, 0.5, 5.0]), 0.0), [-5.0, 0.5, 1.0])
    out = tmp_path / "run"
    assert main(["run", "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 0
    for name in ("config_echo.json", "summary.json", "verify.json", "profile.json"):
        _strict_json(out / name)
    assert _strict_json(out / "config_echo.json")["scenario"]["terminal"]["lo"] is None
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "10/10 checks passed" in capsys.readouterr().out


def test_write_artifacts_refuses_an_infinite_config_built_in_code(tmp_path):
    # build_experiment takes an infinite bound from code; JSON cannot echo it
    exp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "clamp", "lo": -math.inf}}})
    result = execute(exp)
    with pytest.raises(ConfigError, match=r"config: scenario.terminal.lo is -inf"):
        write_artifacts(str(tmp_path / "run"), result)
    assert not (tmp_path / "run").exists()


def test_a_run_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call in a process, a cost every run paid
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from bsvilab.cli import main\n"
        f"assert main(['run', '--config', {write_cfg(tmp_path, {'scenario': 'reflection'})!r},"
        f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_execute_evaluates_the_driver_at_zero_once(monkeypatch):
    driver_f = verify.driver_f
    calls = []

    def counted(gen, t, y, z):
        calls.append(np.array(t))
        return driver_f(gen, t, y, z)

    monkeypatch.setattr(verify, "driver_f", counted)
    exp = build_experiment({"scenario": "two_barrier_driven", "grid": {"steps": 16}})
    res = execute(exp)
    # one call per bound, on the left nodes of all N steps at once
    assert len(calls) == 2
    for t in calls:
        assert np.array_equal(t, res.bundle.grid.nodes[:-1])
    # a bound called on its own gives the report the run gave
    final = res.seq.solutions[exp.solver.eps_schedule[-1]]
    eta = final.paths(res.bundle)["Y"][:, -1]
    alone = [
        verify.check_apriori_bound(final, res.bundle, exp.gen, eta, exp.solver.p),
        verify.check_energy_bound(final, res.bundle, exp.gen, eta),
    ]
    assert [r.as_dict() for r in res.reports[-2:]] == [r.as_dict() for r in alone]


def test_execute_summary_structure(tmp_path):
    exp = build_experiment(MART_SMALL)
    res = execute(exp)
    s = res.summary
    assert s["scenario"] == "martingale"
    assert s["noise"] == {"kind": "tree", "eval_paths": 512}
    assert s["weight_monitor"] == {"max_exp_pV": 1.0, "exp_pVplus_N": 1.0}
    assert "timings" not in s
    assert set(res.timings) == {"solve_s", "verify_s", "total_s"}
    assert s["config"]["seed"] == 5
    assert s["reference_error"] == 0.0
    written = write_artifacts(str(tmp_path / "out"), res)
    assert set(written["artifact_hashes"]) == {"results.csv", "verify.json"}
    for name, digest in written["artifact_hashes"].items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest
    profile = json.loads((tmp_path / "out" / "profile.json").read_text())
    assert profile == {**res.timings, "write_s": profile["write_s"]}
    assert profile["write_s"] > 0.0


def test_reference_error_needs_the_presets_data():
    # exp(-1) solves linear's own data; Y0 = 0.1326 under F = -2y is not 0.235 off
    for override in (
        {"generator": {"F": "-2*y", "mu": -2.0}},
        {"scenario": {"name": "linear", "terminal": {"kind": "constant", "value": 3.0}}},
        {"grid": {"T": 2.0, "steps": 100}},
        {"a_process": {"kind": "linear", "rate": 1.0}},
        {"potentials": {"phi": {"kind": "interval", "b": 2.0}}},
    ):
        res = execute(build_experiment({"scenario": "linear", **override}))
        assert res.summary["reference_error"] is None, override
    # grid steps, noise and solver settings keep the comparison
    for override in (
        {},
        {"grid": {"T": 1.0, "steps": 50}},
        {"noise": {"kind": "tree"}, "grid": {"steps": 8}},
        {"solver": {"eps_schedule": [0.05]}},
    ):
        res = execute(build_experiment({"scenario": "linear", **override}))
        assert res.summary["reference_error"] < 0.04, override
    for name in ("mc_regression", "reflection_fine"):
        res = execute(build_experiment(_benchmark_configs()[name]))
        assert res.summary["reference_error"] is not None, name


CLOCKED_NODES = [0.0, 0.1, 0.35, 0.5, 0.8, 1.0]


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "mc_martingale", "grid": {"steps": 16}, "noise": {"paths": 300}},
        {"scenario": "two_barrier_driven", "grid": {"steps": 32}},
        {"scenario": "reflection", "grid": {"steps": 100}},
        {
            "scenario": "martingale",
            "grid": {"steps": 16},
            "solver": {"ce": "lsq"},
            "noise": {"kind": "tree", "eval_paths": 256},
        },
        # a clock A on a non-uniform grid: heads with Q != t and alpha != 1
        {"scenario": "clocked_decay", "grid": {"nodes": CLOCKED_NODES}},
        {
            "scenario": "mc_martingale",
            "grid": {"nodes": CLOCKED_NODES},
            "a_process": {"kind": "ramp", "start": 0.3, "rate": 2.0},
            "noise": {"paths": 50},
        },
    ],
    ids=["mc-lsq", "tree", "deterministic", "tree-lsq", "clocked", "mc-lsq-ramp"],
)
def test_results_csv_matches_the_per_row_writer(tmp_path, monkeypatch, config):
    res = execute(build_experiment(config))
    write_artifacts(str(tmp_path / "out"), res)
    results_csv_oracle(str(tmp_path / "oracle.csv"), res)
    want = (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "out" / "results.csv").read_bytes() == want
    final = res.seq.solutions[res.exp.solver.eps_schedule[-1]]
    assert want.count(b"\r\n") == 1 + final.Y.size
    # rows per block, 7 a prime, None all rows.  mc-lsq has 17 levels of
    # 300 rows: 7-row blocks start mid-level, a level spans many blocks,
    # and the index grows from 1 to 3 digits inside blocks; 650-row
    # blocks hold whole levels with a partial level on each side, and
    # fill them level by level (at least cli.WIDE_LEVEL rows a level),
    # the smaller blocks row by row; tree has 561 rows, so its last 2-
    # and 7-row block holds one row; clocked has 6 rows, fewer than a
    # 7-row block
    assert 650 >= 3 * cli.WIDE_LEVEL
    for block in (1, 2, 7, 650, None):
        sizes = _write_in_blocks(monkeypatch, res, str(tmp_path / "got.csv"), block)
        assert max(sizes) == min(block or final.Y.size, final.Y.size), block
        assert (tmp_path / "got.csv").read_bytes() == want, block


def _write_in_blocks(monkeypatch, result, path, rows):
    """Write result's results.csv in blocks of `rows` rows (None: one
    block) by setting cli.BLOCK_BYTES to that many rows' bytes; return
    the rows of every g17.write call, each on a block."""
    row_bytes = []
    real_row_bytes = cli._row_bytes

    def spy_row_bytes(*args):
        row_bytes.append(real_row_bytes(*args))
        return row_bytes[-1]

    monkeypatch.setattr(cli, "_row_bytes", spy_row_bytes)
    cli._write_results_csv(path, result)
    sol = result.seq.solutions[result.exp.solver.eps_schedule[-1]]
    monkeypatch.setattr(cli, "BLOCK_BYTES", (rows or sol.Y.size) * row_bytes[-1])
    calls = []
    real_write = g17.write

    def spy_write(x, out):
        calls.append(x.shape[0])
        real_write(x, out)

    monkeypatch.setattr(g17, "write", spy_write)
    cli._write_results_csv(path, result)
    return calls


def _hand_built_result(y_levels, z, u, dq):
    """A run whose final solution holds the given Y levels, and Z and U
    laid out in their first len(y_levels) - 1 levels."""
    steps = len(y_levels) - 1
    sol = SolutionField(
        eps=0.05, backend_kind="tree", Y=np.concatenate(y_levels), Z=np.array(z),
        U=np.array(u), H=np.zeros(len(u)), offsets=np.cumsum([0] + [len(y) for y in y_levels]),
    )
    return SimpleNamespace(
        exp=SimpleNamespace(solver=SimpleNamespace(eps_schedule=(0.1, 0.05))),
        seq=SimpleNamespace(solutions={0.05: sol}),
        bundle=SimpleNamespace(
            grid=SimpleNamespace(nodes=np.linspace(0.0, 1.0, steps + 1), steps=steps),
            Q=np.linspace(0.0, 1.0, steps + 1),
            dq=np.array(dq),
            alpha=np.linspace(1.0, 0.25, steps),
        ),
    )


def test_results_csv_writer_on_hand_built_levels(tmp_path, monkeypatch):
    # signed zero, the smallest subnormal, huge values, integral floats
    # and a one-node level, as a lattice's root is; Kinc = U dQ
    result = _hand_built_result(
        y_levels=[np.array([3.0]), np.array([-0.0, 5e-324, 1e300]), np.array([-1e300, 2.0, 0.1])],
        z=[1e300, -0.0, 3.0, -5e-324],
        u=[2.0, -0.0, -1e300, 1e-323],
        dq=[0.5, 0.5],
    )
    results_csv_oracle(str(tmp_path / "oracle.csv"), result)
    want = (tmp_path / "oracle.csv").read_bytes()
    assert want.splitlines(keepends=True)[1:5] == [
        b"0,0,0,1,0,3,1.0000000000000001e+300,2,1\r\n",
        b"1,0.5,0.5,0.25,0,-0,-0,-0,-0\r\n",
        b"1,0.5,0.5,0.25,1,4.9406564584124654e-324,3,-1.0000000000000001e+300,-5.0000000000000003e+299\r\n",
        b"1,0.5,0.5,0.25,2,1.0000000000000001e+300,-4.9406564584124654e-324,9.8813129168249309e-324,4.9406564584124654e-324\r\n",
    ]
    assert want.endswith(b"2,1,1,,2,0.10000000000000001,,,\r\n")
    # rows per block, 3 a prime, None all 7 rows: 2-row blocks start
    # mid-level and end on a one-row block
    for block in (1, 2, 3, None):
        sizes = _write_in_blocks(monkeypatch, result, str(tmp_path / "got.csv"), block)
        assert max(sizes) == (block or 7), block
        assert (tmp_path / "got.csv").read_bytes() == want, block


def test_results_csv_writer_refuses_ragged_levels(tmp_path):
    # a Z one cell short of its level
    result = _hand_built_result(
        y_levels=[np.array([1.0, 2.0]), np.array([1.0, 2.0])], z=[1.0], u=[0.0, 0.0], dq=[0.5],
    )
    with pytest.raises(ValueError):
        cli._write_results_csv(str(tmp_path / "got.csv"), result)


def test_results_csv_writer_memory_is_one_block(tmp_path):
    # 68000 rows, 12 blocks: a 4.4 MB file written by a writer that holds
    # about one block, never the whole text.  The peak measured 1,751,312
    # bytes (numpy 2.4, Python 3.11); the bound adds 64 KiB to it
    res = execute(build_experiment(
        {"scenario": "mc_martingale", "grid": {"steps": 16}, "noise": {"paths": 4000}}
    ))
    cli._write_results_csv(str(tmp_path / "results.csv"), res)  # g17's tables, once
    gc.collect()
    tracemalloc.start()
    try:
        cli._write_results_csv(str(tmp_path / "results.csv"), res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "results.csv").stat().st_size > 4 << 20
    assert peak < 1_751_312 + (64 << 10)


@pytest.mark.parametrize("name", ["mc_regression", "tree_barrier"])
def test_writing_artifacts_stays_below_the_verifiers_peak(tmp_path, name):
    # cli.BLOCK_BYTES is sized so that the write never sets a run's
    # tracemalloc peak: each call's rise above its start stays below
    # verify_run's, the largest transient of execute()
    exp = build_experiment(_benchmark_configs()[name])
    res = execute(exp)
    backend = solver.make_backend(res.bundle, exp.solver)
    write_artifacts(str(tmp_path / "warm"), res)  # g17's tables, once

    def rise(call):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    verifier = rise(lambda: verify.verify_run(
        res.seq, backend, exp.phi, exp.psi, exp.gen, exp.solver.p
    ))
    writer = rise(lambda: write_artifacts(str(tmp_path / "out"), res))
    assert writer < verifier


def test_summary_reports_the_penalty_per_eps():
    res = execute(build_experiment({"scenario": "reflection", "grid": {"steps": 200}}))
    eps = res.exp.solver.eps_schedule
    penalty = res.summary["penalty_by_eps"]
    assert set(penalty) == {fmt(e) for e in eps}
    dq = res.bundle.dq
    for e in eps:
        assert set(penalty[fmt(e)]) == {"active_fraction", "max_stiffness"}
        # the wall at 0 binds on the 100 steps before t = 1/2
        assert penalty[fmt(e)]["active_fraction"] == 0.5
        assert penalty[fmt(e)]["max_stiffness"] == float(np.max(dq / e))
    json.dumps(penalty)  # plain floats, ready for summary.json
