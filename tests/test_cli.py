import hashlib
import json
import os

import numpy as np
import pytest

from bsvilab.cli import execute, fmt, main, write_artifacts
from bsvilab.errors import ConfigError
from bsvilab.scenarios import SCENARIOS, build_experiment, resolve_config

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
        ({"noise": {"kind": "sobol"}}, "noise.kind"),
        ({"a_process": {"kind": "steps"}}, "a_process.kind"),
        ({"solver": {"lambda": 2.0}}, "lambda"),
        ({"grid": {"T": 1.0, "steps": None}}, "grid.steps"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "oracle"}}}, "scenario.terminal.kind"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "clamp", "lo": 1.0, "hi": -1.0}}}, "lo < hi"),
        ({"seed": "abc"}, "seed"),
    ]
    for override, needle in cases:
        cfg = {**base, **override}
        with pytest.raises(ConfigError, match=needle):
            build_experiment(cfg)


def test_terminal_kinds_evaluate():
    b = np.array([-2.0, 0.0, 2.0])
    exp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "expr", "expr": "b - a"}}})
    assert np.array_equal(exp.terminal(b, 0.5), b - 0.5)
    clamp = build_experiment({**resolve_config(MART_SMALL), "scenario": {
        "name": "martingale", "terminal": {"kind": "clamp", "lo": -1.0, "hi": 1.0}}})
    assert np.array_equal(clamp.terminal(b, 0.0), np.array([-1.0, 0.0, 1.0]))
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

    for fname in ("results.csv", "verify.json", "config_echo.json"):
        b1 = open(os.path.join(out1, fname), "rb").read()
        b2 = open(os.path.join(out2, fname), "rb").read()
        assert b1 == b2, fname

    s1 = json.load(open(os.path.join(out1, "summary.json")))
    s2 = json.load(open(os.path.join(out2, "summary.json")))
    s1.pop("timings"), s2.pop("timings")
    assert s1 == s2

    blob = open(os.path.join(out1, "results.csv"), "rb").read()
    assert s1["artifact_hashes"]["results.csv"] == hashlib.sha256(blob).hexdigest()
    assert s1["all_passed"] is True
    assert s1["y0_by_eps"][fmt(0.1)] == 0.0

    head = open(os.path.join(out1, "results.csv")).readline().strip()
    assert head == "step,t,Q,alpha,node_or_path,Y,Z,U,Kinc"


def test_verify_subcommand_replays_a_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MART_SMALL)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report

    assert main(["verify", str(tmp_path / "missing")]) == 2

    # a zero tolerance turns the O(dt) discretization bias into failures
    strict = {"scenario": "linear", "grid": {"T": 1.0, "steps": 50},
              "verify": {"c_dt": 0.0, "c_mc": 0.0}, "seed": 3}
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
    rows = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
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


def test_main_reports_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2


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
    assert np.array_equal(sol.paths(res.bundle)["Y"], np.stack(sol.Y_levels, axis=1))


def test_execute_summary_structure(tmp_path):
    exp = build_experiment(MART_SMALL)
    res = execute(exp)
    s = res.summary
    assert s["scenario"] == "martingale"
    assert s["noise"] == {"kind": "tree", "eval_paths": 512}
    assert s["weight_monitor"] == {"max_exp_pV": 1.0, "exp_pVplus_N": 1.0}
    assert set(s["timings"]) == {"solve_s", "verify_s", "total_s"}
    assert s["config"]["seed"] == 5
    assert s["reference_error"] == 0.0
    written = write_artifacts(str(tmp_path / "out"), res)
    assert set(written["artifact_hashes"]) == {"results.csv", "verify.json"}
