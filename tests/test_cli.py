import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bsvilab import cli, solver, verify
from bsvilab.cli import _sweep_override, execute, fmt, main, write_artifacts
from bsvilab.errors import ConfigError
from bsvilab.scenarios import SCENARIOS, build_experiment, resolve_config

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
        ({"solver": {"lambda": 2.0}}, "lambda"),
        ({"grid": {"T": 1.0, "steps": None}}, "grid.steps"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "oracle"}}}, "scenario.terminal.kind"),
        ({"scenario": {"name": "martingale", "terminal": {"kind": "clamp", "lo": 1.0, "hi": -1.0}}}, "lo < hi"),
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
    ]
    for override, needle in cases:
        cfg = {**base, **override}
        with pytest.raises(ConfigError, match=needle):
            build_experiment(cfg)


def _benchmark_configs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: w.config_for(1) for name, w in module.WORKLOADS.items()}


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
# defaults.  These runs use only +, -, *, / and sqrt, so the bytes should
# not depend on the CPU; a change that moves them moves a result.
RESULTS_CSV_SHA256 = {
    "clocked_decay": "774f9ddcfb3337a8e14268f3aefeb407276475140a8c9f49f48fde1eb16ce7d4",
    "linear": "907ff6ebc11baa77e819236c03b492fc675fd60f44671390f2533e28186c21ed",
    "martingale": "c9666b6a76a98a19f926b7651a465eb2049fb1200456d9c3765a47b0c5bf9f6a",
    "reflection": "5126da07cf993631ebb24165b38a11b7978df833b03b1c54a4afc1c682017941",
    "two_barrier": "0c1c6ca9ac2cd1e4928411af05f4c9f5240a4f09b97b554a314e88df9a86d2da",
    "two_barrier_driven": "f2d6f8f8ba90d0a0b7fcc9b2cd4741e40f2e4a0c1c71f6643b8b615d3782ae05",
}


@pytest.mark.parametrize("scenario", sorted(RESULTS_CSV_SHA256))
def test_results_csv_bytes_hold_on_exact_presets(tmp_path, scenario):
    written = write_artifacts(str(tmp_path), execute(build_experiment({"scenario": scenario})))
    assert written["artifact_hashes"]["results.csv"] == RESULTS_CSV_SHA256[scenario]


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
        assert Path(out1, fname).read_bytes() == Path(out2, fname).read_bytes(), fname

    s1 = json.loads(Path(out1, "summary.json").read_text())
    s2 = json.loads(Path(out2, "summary.json").read_text())
    s1.pop("timings"), s2.pop("timings")
    assert s1 == s2

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


def test_execute_evaluates_the_driver_at_zero_once(monkeypatch):
    driver_f = verify.driver_f
    calls = []

    def counted(gen, t, y, z):
        calls.append(t)
        return driver_f(gen, t, y, z)

    monkeypatch.setattr(verify, "driver_f", counted)
    exp = build_experiment({"scenario": "two_barrier_driven", "grid": {"steps": 16}})
    res = execute(exp)
    assert len(calls) == exp.grid.steps
    # each bound computes the same source terms itself when not handed them
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
    assert set(s["timings"]) == {"solve_s", "verify_s", "total_s"}
    assert s["config"]["seed"] == 5
    assert s["reference_error"] == 0.0
    written = write_artifacts(str(tmp_path / "out"), res)
    assert set(written["artifact_hashes"]) == {"results.csv", "verify.json"}


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
    ],
    ids=["mc-lsq", "tree", "deterministic", "tree-lsq"],
)
def test_results_csv_matches_the_per_row_writer(tmp_path, config):
    res = execute(build_experiment(config))
    write_artifacts(str(tmp_path / "out"), res)
    results_csv_oracle(str(tmp_path / "oracle.csv"), res)
    got = (tmp_path / "out" / "results.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    final = res.seq.solutions[res.exp.solver.eps_schedule[-1]]
    assert got.count(b"\r\n") == 1 + sum(np.size(y) for y in final.Y_levels)


def _hand_built_result(y_levels, z_levels, u_levels, kinc_levels):
    steps = len(y_levels) - 1
    sol = SimpleNamespace(
        Y_levels=y_levels, Z_levels=z_levels, U_levels=u_levels, kinc_levels=kinc_levels
    )
    return SimpleNamespace(
        exp=SimpleNamespace(solver=SimpleNamespace(eps_schedule=(0.1, 0.05))),
        seq=SimpleNamespace(solutions={0.05: sol}),
        bundle=SimpleNamespace(
            grid=SimpleNamespace(nodes=np.linspace(0.0, 1.0, steps + 1), steps=steps),
            Q=np.linspace(0.0, 1.0, steps + 1),
            alpha=np.linspace(1.0, 0.25, steps),
        ),
    )


def test_results_csv_writer_on_hand_built_levels(tmp_path):
    # signed zero, the smallest subnormal, huge values, integral floats
    # and a one-node level (a 0-d array, as a lattice's root is)
    result = _hand_built_result(
        y_levels=[np.array(3.0), np.array([-0.0, 5e-324, 1e300]), np.array([-1e300, 2.0, 0.1])],
        z_levels=[np.array([1e300]), np.array([-0.0, 3.0, -5e-324])],
        u_levels=[np.array([0.0]), np.array([1.0, -1e300, 2.0])],
        kinc_levels=[np.array([5e-324]), np.array([0.1, -0.0, 1e-300])],
    )
    cli._write_results_csv(str(tmp_path / "got.csv"), result)
    results_csv_oracle(str(tmp_path / "oracle.csv"), result)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    assert got.splitlines(keepends=True)[1:3] == [
        b"0,0,0,1,0,3,1.0000000000000001e+300,0,4.9406564584124654e-324\r\n",
        b"1,0.5,0.5,0.25,0,-0,-0,1,0.10000000000000001\r\n",
    ]
    assert got.endswith(b"2,1,1,,2,0.10000000000000001,,,\r\n")


def test_results_csv_writer_refuses_ragged_levels(tmp_path):
    result = _hand_built_result(
        y_levels=[np.array([1.0, 2.0]), np.array([1.0, 2.0])],
        z_levels=[np.array([1.0])],
        u_levels=[np.array([0.0, 0.0])],
        kinc_levels=[np.array([0.0, 0.0])],
    )
    with pytest.raises(ValueError):
        cli._write_results_csv(str(tmp_path / "got.csv"), result)


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
        # no budget binds (A = 0), so every step counts
        assert penalty[fmt(e)]["max_stiffness"] == float(np.max(dq / e))
    json.dumps(penalty)  # plain floats, ready for summary.json
