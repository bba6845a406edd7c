import dataclasses

import numpy as np
import pytest

from bsvilab.convex import ConvexSpec
from bsvilab.errors import (
    ConfigError,
    DomainError,
    NonFiniteGenerator,
)
from bsvilab import solver
from bsvilab.generators import GeneratorSpec, combined_driver
from bsvilab.paths import IncreasingProcessSpec, NoiseModel, TimeGrid, build_paths
from bsvilab.scenarios import SCENARIOS, build_experiment
from bsvilab.solver import (
    SmoothingConfig,
    SolverConfig,
    make_backend,
    resolve_implicit,
    smoothing_operator,
    solve_penalized,
    solve_sequence,
)

from oracles import (
    implicit_step_oracle,
    reflection_oracle,
    regression_fit_oracle,
    smoothing_operator_oracle,
    solve_sequence_oracle,
)

ZERO = ConvexSpec.zero()
QUAD1 = ConvexSpec.quadratic(1.0)
IND11 = ConvexSpec.interval(-1.0, 1.0)
HALFLINE = ConvexSpec.interval(-np.inf, 0.0)
ABS = ConvexSpec.abs_value()
ZERO_GEN = GeneratorSpec.from_expressions("0", "0")
ZERO_A = IncreasingProcessSpec.zero()


def terminal_driver(b, a):
    return b


def terminal_const(value):
    return lambda b, a: np.full_like(np.asarray(b, dtype=float), value)


def tree_bundle(steps, horizon=1.0, a_spec=ZERO_A, seed=0):
    return build_paths(TimeGrid.uniform(horizon, steps), NoiseModel.binomial_tree(seed=seed), a_spec)


def det_bundle(steps, horizon=1.0, a_spec=ZERO_A):
    return build_paths(TimeGrid.uniform(horizon, steps), NoiseModel.deterministic(), a_spec)


def test_solver_config_validation():
    for kwargs in (
        {"p": 1.0},
        {"lam": 0.0},
        {"lam": 1.0},
        {"eps_schedule": ()},
        {"eps_schedule": (0.1, 0.1)},
        {"eps_schedule": (0.05, 0.1)},
        {"eps_schedule": (0.1, -0.05)},
        {"eps_schedule": (np.nan,)},
        {"eps_schedule": (0.1, np.nan)},
        {"eps_schedule": (np.inf, 0.1)},
        {"eps_schedule": (-np.inf,)},
        # float() would read these; only real numbers are schedule entries
        {"eps_schedule": ("a",)},
        {"eps_schedule": (None,)},
        {"eps_schedule": (True, 0.5)},
        {"eps_schedule": (0.1, "0.05")},
        {"ce": "nn"},
        {"degree": 0},
    ):
        with pytest.raises(ConfigError, match="solver"):
            SolverConfig(**kwargs)
    cfg = SolverConfig(eps_schedule=[0.1, 0.05])
    assert cfg.eps_schedule == (0.1, 0.05)
    assert SolverConfig(eps_schedule=[1, np.float32(0.5)]).eps_schedule == (1.0, 0.5)
    assert type(SolverConfig(eps_schedule=[1]).eps_schedule[0]) is float
    for entries in (["a"], [None], [True, 0.5], [0.1, "0.05"]):
        with pytest.raises(ConfigError, match="solver.eps_schedule"):
            build_experiment({"scenario": "linear", "solver": {"eps_schedule": entries}})
    # built directly, a wrong type names its field instead of raising TypeError
    for kwargs, needle in (
        ({"eps_schedule": 0.1}, "solver.eps_schedule"),
        ({"eps_schedule": None}, "solver.eps_schedule"),
        ({"p": "3"}, "solver.p"),
        ({"p": True}, "solver.p"),
        ({"lam": "a"}, "solver.lambda"),
        ({"degree": 2.5}, "solver.degree"),
        ({"degree": True}, "solver.degree"),
        ({"degree": "3"}, "solver.degree"),
        ({"mollify": "no"}, "solver.mollify"),
        ({"mollify": 1}, "solver.mollify"),
    ):
        with pytest.raises(ConfigError, match=needle):
            SolverConfig(**kwargs)
    assert SolverConfig(degree=np.int64(2), mollify=True).degree == 2


def test_solver_block_keys_are_the_config_fields():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"p", "lam", "eps_schedule", "ce", "degree", "mollify"}
    # lam is spelled lambda in a config, and integers are read as floats
    exp = build_experiment({"scenario": "linear", "solver": {"p": 3, "lambda": 0.25}})
    assert (exp.solver.p, exp.solver.lam) == (3.0, 0.25) and type(exp.solver.p) is float
    with pytest.raises(ConfigError, match=r"solver: unknown keys \['lam'\]"):
        build_experiment({"scenario": "linear", "solver": {"lam": 0.25}})
    # the penalty scheme has no knobs: explicit steps, predictor sweeps,
    # ridge fits and the mollifier's node count are gone
    for key, value in (("mode", "explicit"), ("sweeps", 2), ("ridge", 0.1), ("mollifier_nq", 101)):
        with pytest.raises(ConfigError, match=rf"solver: unknown keys \['{key}'\]"):
            build_experiment({"scenario": "linear", "solver": {key: value}})


def test_martingale_exactness_on_tree():
    bundle = tree_bundle(8)
    cfg = SolverConfig(eps_schedule=(0.1,))
    sol = solve_penalized(bundle, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, cfg)
    for lv, ref in zip(sol.Y_levels, bundle.levels):
        assert np.allclose(lv, ref, rtol=0, atol=1e-13)
    for z in sol.Z_levels:
        assert np.allclose(z, 1.0, rtol=0, atol=1e-13)
    for u in sol.U_levels:
        assert np.array_equal(u, np.zeros_like(u))
    assert abs(sol.y0) <= 1e-14


def test_linear_backward_ode_first_order():
    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    cfg = SolverConfig(eps_schedule=(0.1,))
    errs = []
    for steps in (50, 100):
        sol = solve_penalized(det_bundle(steps), ZERO, ZERO, gen, terminal_const(1.0), 0.1, cfg)
        errs.append(abs(sol.y0 - np.exp(-1.0)))
    assert errs[1] < errs[0]
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_reflection_scenario_plateau_and_profile():
    gen = GeneratorSpec.from_expressions("1", "0")
    bundle = det_bundle(1000)
    cfg = SolverConfig(eps_schedule=(0.025,))
    sol = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.025, cfg)
    assert np.isclose(sol.y0, 0.025, rtol=0, atol=1e-6)
    ref = reflection_oracle(bundle.grid.nodes, -0.5, 1.0, 1.0)
    y = np.array([float(lv[0]) for lv in sol.Y_levels])
    assert np.max(np.abs(y - ref)) <= 0.025 + 5.0 / 1000


def test_penalization_force_single_sign_for_one_sided_wall():
    gen = GeneratorSpec.from_expressions("1", "0")
    cfg = SolverConfig(eps_schedule=(0.05,))
    sol = solve_penalized(det_bundle(400), HALFLINE, ZERO, gen, terminal_const(-0.5), 0.05, cfg)
    for kinc in sol.kinc_levels:
        assert np.all(kinc >= -1e-15)
    total = sum(float(np.sum(np.abs(k))) for k in sol.kinc_levels)
    assert np.isfinite(total) and total > 0.0


@pytest.mark.parametrize(
    "pair",
    [(ZERO, ZERO), (QUAD1, ZERO), (IND11, ABS), (HALFLINE, QUAD1)],
)
@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_implicit_step_closed_form_matches_bisection(pair, alpha):
    phi, psi = pair
    y_hat = np.linspace(-4.0, 4.0, 41)
    for eps in (0.05, 0.5):
        for dq in (0.01, 0.3):
            exact = resolve_implicit(phi, psi, alpha, eps, dq, y_hat)
            probed = implicit_step_oracle(phi, psi, alpha, eps, dq, "bisect")(y_hat)
            assert np.allclose(exact, probed, rtol=0, atol=1e-11)


def per_step_sweep(bundle, phi, psi, gen, terminal, eps):
    """Y levels of the semi-implicit sweep with a fresh implicit solve per step."""
    backend = make_backend(bundle, SolverConfig(eps_schedule=(eps,)))
    t, dq, alpha = bundle.grid.nodes, bundle.dq, bundle.alpha
    y = np.asarray(terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float)
    levels = [y]
    for i in reversed(range(bundle.grid.steps)):
        ce, z = backend.ce(i, y), backend.z(i, y)
        if bundle.A[i] <= 1.0 / eps:
            y_hat = ce + combined_driver(gen, alpha[i], t[i], ce, z) * dq[i]
            y = resolve_implicit(phi, psi, alpha[i], eps, dq[i], y_hat)
        else:
            y = ce
        levels.append(y)
    return levels[::-1]


RAMP = IncreasingProcessSpec.ramp(0.5, 1.0)
# dyadic steps 1/4 and 1/8 around the ramp start: dQ = 1/4 with alpha 1
# and with alpha 1/2, so neither alpha nor dQ alone identifies a step
UNEVEN = build_paths(
    TimeGrid(np.array([0.0, 0.25, 0.5, 0.625, 0.75, 1.0])), NoiseModel.deterministic(), RAMP
)


@pytest.mark.parametrize(
    "bundle, phi, n_keys",
    [
        (tree_bundle(16, a_spec=RAMP), IND11, 2),
        (UNEVEN, IND11, 3),
        # with psi = QUAD1 neither potential has kinks: the linear inverse
        # (the id is kept from when this case was recentered)
        (tree_bundle(8, a_spec=RAMP), ConvexSpec.quadratic(2.0), 2),
    ],
    ids=["closed_form-tree", "closed_form-uneven", "recentered"],
)
def test_one_implicit_step_per_alpha_and_dq_matches_per_step_solves(
    monkeypatch, bundle, phi, n_keys
):
    keys = set(zip(bundle.alpha, bundle.dq))
    assert len(keys) == n_keys
    gen = GeneratorSpec.from_expressions("0.3 - y", "0.5 * y")
    terminal = lambda b, a: 0.5 * b + 1.2  # noqa: E731
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2:5])
        return implicit_step(*args, **kwargs)

    implicit_step = solver.implicit_step
    monkeypatch.setattr(solver, "implicit_step", counted)
    eps = 0.5
    cfg = SolverConfig(eps_schedule=(eps,))
    sol = solve_penalized(bundle, phi, QUAD1, gen, terminal, eps, cfg)
    assert sorted((a, d) for a, _, d in builds) == sorted(keys)
    ref = per_step_sweep(bundle, phi, QUAD1, gen, terminal, eps)
    for got, want in zip(sol.Y_levels, ref, strict=True):
        assert np.array_equal(got, want)


def test_tree_step_identity_reconstructs_exactly():
    bundle = tree_bundle(6)
    gen = GeneratorSpec.from_expressions("0.3 - y", "0", mu=0.0)
    cfg = SolverConfig(eps_schedule=(0.1,))
    sol = solve_penalized(
        bundle, IND11, ZERO, gen, lambda b, a: np.clip(b, -1.0, 1.0), 0.1, cfg
    )
    p = sol.paths(bundle)
    dq = bundle.dq
    recon = p["Y"][:, :-1] - (p["H"] - p["U"]) * dq + p["Z"] * bundle.dB
    assert np.allclose(recon, p["Y"][:, 1:], rtol=0, atol=1e-12)
    # every call gathers fresh arrays; a window's columns are those of the whole grid
    again = sol.paths(bundle)
    for key, arr in p.items():
        assert again[key] is not arr and np.array_equal(again[key], arr)
    for a, b in ((0, 3), (3, 7)):
        win = sol.paths(bundle, (a, b))
        for key, arr in p.items():
            assert np.array_equal(win[key], arr[:, a:b])
    assert list(sol.paths(bundle, (6, 7), "Y")) == ["Y"]


def test_budget_truncation_switches_the_dynamics_off():
    bundle = det_bundle(90, a_spec=IncreasingProcessSpec.linear(9.0))
    gen = GeneratorSpec.from_expressions("1", "0")
    cfg = SolverConfig(eps_schedule=(0.5,))
    sol = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.5, cfg)
    t = bundle.grid.nodes[:-1]
    live = bundle.A[:-1] <= 1.0 / 0.5
    assert np.array_equal(live, t <= 2.0 / 9.0 + 1e-12)
    for i in range(bundle.grid.steps):
        if live[i]:
            assert np.all(sol.H_levels[i] != 0.0)
        else:
            assert np.all(sol.H_levels[i] == 0.0)
            assert np.all(sol.U_levels[i] == 0.0)


def test_sequence_zero_potentials_have_zero_gaps():
    bundle = tree_bundle(7)
    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    cfg = SolverConfig(eps_schedule=(0.1, 0.05, 0.025))
    seq = solve_sequence(make_backend(bundle, cfg), ZERO, ZERO, gen, terminal_driver, cfg)
    for gap in seq.gaps:
        assert gap["y_gap"] == 0.0
        assert gap["z_gap"] == 0.0
    assert all(v == 0.0 for v in seq.penalty_energy.values())


@pytest.mark.parametrize("case", ["tree_barrier", "lsq-two-eps"])
def test_z_gap_is_the_path_l2_gap_of_the_expanded_fields(case):
    exp = build_experiment({**SWEEP_CASES[case], "grid": {"steps": 32}})
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    seq = solve_sequence(make_backend(bundle, exp.solver), exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    schedule = exp.solver.eps_schedule
    assert len(seq.gaps) == len(schedule) - 1
    for gap, coarse, fine in zip(seq.gaps, schedule, schedule[1:]):
        za, zb = (seq.solutions[e].paths(bundle)["Z"] for e in (coarse, fine))
        want = float(np.sqrt(np.sum(np.mean((za - zb) ** 2, axis=0) * bundle.dt)))
        assert want > 0.0 and gap["z_gap"] == want


def test_sequence_reflection_gap_tracks_eps():
    bundle = det_bundle(500)
    gen = GeneratorSpec.from_expressions("1", "0")
    cfg = SolverConfig(eps_schedule=(0.1, 0.05))
    seq = solve_sequence(make_backend(bundle, cfg), HALFLINE, ZERO, gen, terminal_const(-0.5), cfg)
    assert np.isclose(seq.gaps[0]["y_gap"], 0.05, rtol=0.2)
    assert all(np.isfinite(v) for v in seq.penalty_energy.values())


def test_smoothing_of_constant_is_a_fixed_point():
    bundle = tree_bundle(8)
    backend = make_backend(bundle, SolverConfig())
    u = [np.full(i + 1, 3.0) for i in range(9)]
    sm = smoothing_operator(bundle, backend, u, SmoothingConfig(eps=0.2))
    for m in sm.M_levels:
        assert np.allclose(m, 3.0, rtol=0, atol=1e-12)
    for nn in sm.N_levels:
        assert np.allclose(nn, 0.0, rtol=0, atol=1e-12)
    assert np.isclose(sm.gamma, 3.0, rtol=0, atol=1e-12)


def test_smoothing_never_exceeds_the_source_sup():
    bundle = tree_bundle(8)
    backend = make_backend(bundle, SolverConfig())
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = [rng.uniform(-2.0, 2.0, i + 1) for i in range(9)]
        sm = smoothing_operator(bundle, backend, u, SmoothingConfig(eps=0.3))
        sup_u = max(float(np.max(np.abs(x))) for x in u)
        sup_m = max(float(np.max(np.abs(m))) for m in sm.M_levels)
        assert sup_m <= sup_u + 1e-12


def test_smoothing_modulus_bound_for_linear_source():
    bundle = det_bundle(1000)
    backend = make_backend(bundle, SolverConfig())
    t = bundle.grid.nodes
    u = [np.array([ti]) for ti in t]
    sm = smoothing_operator(bundle, backend, u, SmoothingConfig(eps=0.01))
    scale = sm.scale
    bound = np.sqrt(scale) * 1.0 + 2.0 * np.exp(1.0 - 1.0 / np.sqrt(scale)) * 1.0
    worst = max(
        float(np.max(np.abs(m - ti))) for m, ti in zip(sm.M_levels, t)
    )
    assert worst <= bound
    with pytest.raises(DomainError):
        smoothing_operator(bundle, backend, u, SmoothingConfig(eps=2.0))
    with pytest.raises(DomainError):
        SmoothingConfig(eps=0.0)


def test_mollified_linear_driver_leaves_solution_unchanged():
    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    bundle = det_bundle(100)
    plain = solve_penalized(
        bundle, ZERO, ZERO, gen, terminal_const(1.0), 0.1, SolverConfig(eps_schedule=(0.1,))
    )
    smooth = solve_penalized(
        bundle, ZERO, ZERO, gen, terminal_const(1.0), 0.1,
        SolverConfig(eps_schedule=(0.1,), mollify=True),
    )
    assert np.isclose(plain.y0, smooth.y0, rtol=0, atol=1e-12)


def test_mc_martingale_y0_within_statistical_gate():
    bundle = build_paths(TimeGrid.uniform(1.0, 16), NoiseModel.gaussian_mc(2000, seed=9), ZERO_A)
    cfg = SolverConfig(eps_schedule=(0.1,), ce="lsq", degree=3)
    sol = solve_penalized(bundle, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, cfg)
    assert abs(sol.y0) <= 5.0 / np.sqrt(2000)


def test_backend_selection_rules():
    mc = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.gaussian_mc(64, seed=1), ZERO_A)
    with pytest.raises(ConfigError):
        make_backend(mc, SolverConfig(ce="tree"))
    assert make_backend(mc, SolverConfig(ce="lsq")).degree == 3
    assert make_backend(tree_bundle(4), SolverConfig()).__class__.__name__ == "TreeBackend"
    # the level format is the backend's, whatever cfg.ce says
    lsq = make_backend(tree_bundle(4), SolverConfig(ce="lsq"))
    seq = solve_sequence(lsq, ZERO, ZERO, ZERO_GEN, terminal_driver, SolverConfig())
    assert seq.solutions[0.1].backend_kind == lsq.kind == "lsq"
    assert seq.solutions[0.1].Y_levels[2].shape == (lsq.bundle.n_paths,)


def test_unnormalized_potential_is_refused():
    # the sweep takes every potential as finite and minimal at 0, and
    # ConvexSpec refuses any other at construction
    for a, b in ((0.5, 2.0), (-2.0, -0.5)):
        with pytest.raises(DomainError, match="must contain 0"):
            ConvexSpec.interval(a, b)
    with pytest.raises(DomainError, match="unknown potential kind"):
        ConvexSpec(kind="custom")
    config = {"scenario": "reflection", "potentials": {"phi": {"kind": "interval", "a": 0.5, "b": 2.0}}}
    with pytest.raises(ConfigError) as err:
        build_experiment(config)
    assert str(err.value) == "potentials.phi: interval must contain 0, got [0.5, 2.0]"


def assert_matches_oracle(seq, ref):
    """Every level of every eps equal to the per-eps sweep, bit for bit."""
    assert list(seq.solutions) == list(ref)
    for eps, want in ref.items():
        sol = seq.solutions[eps]
        for key in ("Y_levels", "Z_levels", "U_levels", "H_levels"):
            got = getattr(sol, key)
            assert len(got) == len(want[key])
            for i, (g, w) in enumerate(zip(got, want[key])):
                assert g.dtype == w.dtype and g.shape == w.shape, (eps, key, i)
                # tobytes, not array_equal: -0.0 and 0.0 print differently
                assert g.tobytes() == w.tobytes(), (eps, key, i)


def sweep_and_oracle(config):
    """(one sweep, per-eps oracle) for a config."""
    exp = build_experiment(config)
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    args = (exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    seq = solve_sequence(make_backend(bundle, exp.solver), *args)
    return seq, solve_sequence_oracle(bundle, *args)


SWEEP_CASES = {
    **{name: {"scenario": name} for name in sorted(SCENARIOS)},
    # the benchmark workloads
    "reflection_fine": {
        "scenario": "reflection",
        "grid": {"T": 1.0, "steps": 1000},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025]},
    },
    "tree_barrier": {
        "scenario": "two_barrier_driven",
        "grid": {"T": 1.0, "steps": 256},
        "noise": {"kind": "tree", "eval_paths": 1024},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025, 0.0125]},
    },
    "abs-quadratic": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "potentials": {"phi": {"kind": "abs"}, "psi": {"kind": "quadratic", "c": 2.0}},
        "generator": {"F": "2 - y"},
    },
    # breakpoint-free potentials: the inverse is a division, which keeps -0.0
    "quadratic-signed-zero": {
        "scenario": {"name": "linear", "terminal": {"kind": "constant", "value": -0.0}},
        "grid": {"steps": 20},
        "potentials": {"phi": {"kind": "quadratic", "c": 1.0}},
        "generator": {"F": "y", "G": "y", "mu": 1.0, "nu": 1.0},
        "solver": {"eps_schedule": [0.2, 0.1]},
    },
    # y_hat = +0.0 on the knot of a wall at -0.0: the lower outer segment
    # must keep the wall's sign
    "wall-at-negative-zero": {
        "scenario": {"name": "reflection", "terminal": {"kind": "constant", "value": 0.0}},
        "grid": {"steps": 20},
        "potentials": {"phi": {"kind": "interval", "b": -0.0}},
        "generator": {"F": "0"},
    },
    # the kinks of abs (+-eps) and of the interval coincide at eps 0.05 only,
    # so that row has fewer segments than the others
    "coinciding-kinks": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "potentials": {"phi": {"kind": "abs"}, "psi": {"kind": "interval", "a": -0.05, "b": 0.05}},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025]},
    },
    # min(z, 1) is 1-Lipschitz in z
    "mollify": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 16},
        "generator": {"F": "2 - y + min(z, 1)", "ell": 1.0},
        "solver": {"mollify": True, "eps_schedule": [0.2, 0.1]},
    },
    "lsq-two-eps": {
        "scenario": "mc_martingale",
        "grid": {"steps": 16},
        "noise": {"paths": 500},
        "potentials": {"phi": {"kind": "interval", "a": -0.3, "b": 0.3}},
        "generator": {"F": "0.5 - y"},
        "solver": {"eps_schedule": [0.1, 0.05]},
    },
    # a kink-free and a kinked potential on a ramp clock (the id is kept
    # from when this case was recentered)
    "recentered": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 8},
        "a_process": {"kind": "ramp", "start": 0.5, "rate": 1.0},
        "potentials": {"phi": {"kind": "quadratic", "c": 1.0}, "psi": {"kind": "abs"}},
        "solver": {"eps_schedule": [0.5, 0.1]},
    },
}


@pytest.mark.parametrize("config", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_one_sweep_matches_the_per_eps_sweeps(config):
    assert_matches_oracle(*sweep_and_oracle(config))


def test_rows_outside_their_budget_skip_the_driver_and_the_penalty(monkeypatch):
    # A = 4t crosses 1/eps = 2 at t = 1/2 but never reaches 1/eps = 10
    config = {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "a_process": {"kind": "linear", "rate": 4.0},
        "solver": {"eps_schedule": [0.5, 0.1]},
    }
    rows_seen = []

    def counted(gen, alpha, t, y, z):
        rows_seen.append(len(y))
        return combined_driver(gen, alpha, t, y, z)

    monkeypatch.setattr(solver, "combined_driver", counted)
    seq, ref = sweep_and_oracle(config)
    assert_matches_oracle(seq, ref)

    exp = build_experiment(config)
    a_left = build_paths(exp.grid, exp.noise, exp.a_spec).A[:-1]
    out = a_left > 2.0
    assert out.any() and not out.all() and np.all(a_left <= 10.0)
    # one driver call per step, carrying only the rows inside their budget
    assert rows_seen == [1 if o else 2 for o in out[::-1]]
    coarse, fine = seq.solutions[0.5], seq.solutions[0.1]
    for i in np.flatnonzero(out):
        for level in (coarse.H_levels[i], coarse.U_levels[i]):
            assert level.tobytes() == np.zeros_like(level).tobytes()
        assert np.all(fine.H_levels[i] != 0.0)
    dq = seq.solutions[0.5].dq
    assert coarse.max_stiffness == float(np.max(dq[~out] / 0.5))
    assert fine.max_stiffness == float(np.max(dq / 0.1))


def test_non_finite_driver_on_the_finest_row_alone_still_raises():
    # A = 4t: the coarse row (budget 2) stays at -0.5 after t = 1/2 and
    # climbs to about 0.02 by t = 0; the fine row, in budget throughout,
    # overshoots the wall at 0 by up to about 0.1
    bundle = det_bundle(40, a_spec=IncreasingProcessSpec.linear(4.0))
    gen = GeneratorSpec(
        F=lambda t, y, z: np.where(np.asarray(y) > 0.05, np.nan, 1.0),
        G=lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
    )
    cfg = SolverConfig(eps_schedule=(0.5, 0.1))
    coarse = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.5, cfg)
    assert max(float(y[0]) for y in coarse.Y_levels) < 0.05
    with pytest.raises(NonFiniteGenerator):
        solve_sequence(make_backend(bundle, cfg), HALFLINE, ZERO, gen, terminal_const(-0.5), cfg)


def test_sweep_refuses_a_schedule_that_is_not_decreasing():
    # the sweep reads its schedule from the config, which checks it once,
    # also where solve_penalized swaps in its one eps
    cfg = SolverConfig()
    with pytest.raises(ConfigError, match="solver.eps_schedule"):
        dataclasses.replace(cfg, eps_schedule=(0.1, 0.2))
    for eps in (np.nan, np.inf, 0.0):
        with pytest.raises(ConfigError, match="solver.eps_schedule"):
            solve_penalized(det_bundle(4), ZERO, ZERO, ZERO_GEN, terminal_const(1.0), eps, cfg)


# MC paths; MC paths over T = 1e-6, whose bases are full rank with
# s_min / s_max near 1e-10; an enumerated tree whose first dates have
# fewer distinct driver values than monomials; one deterministic path
# with B = 0 (rank 1)
REGRESSION_BUNDLES = {
    "mc": lambda: build_paths(TimeGrid.uniform(1.0, 8), NoiseModel.gaussian_mc(300, seed=4), ZERO_A),
    "mc-near-degenerate": lambda: build_paths(
        TimeGrid.uniform(1e-6, 8), NoiseModel.gaussian_mc(300, seed=4), ZERO_A
    ),
    "tree": lambda: tree_bundle(6),
    "deterministic": lambda: det_bundle(6),
}


@pytest.mark.parametrize("kind", REGRESSION_BUNDLES)
def test_regression_fits_match_vander_lstsq(kind):
    bundle = REGRESSION_BUNDLES[kind]()
    backend = make_backend(bundle, SolverConfig(ce="lsq"))
    B = backend.B
    n = bundle.grid.steps
    bases = [np.vander(B[:, i], 4, increasing=True) for i in range(1, n)]
    if kind in ("tree", "deterministic"):
        assert min(map(np.linalg.matrix_rank, bases)) < 4  # the minimum-norm fit is exercised
    if kind == "mc-near-degenerate":
        s = np.linalg.svd(bases[0], compute_uv=False)
        assert s[-1] / s[0] < 1e-8  # kept by lstsq's rank rule, dropped by a looser one
    rng = np.random.default_rng(7)
    for shape in ((bundle.n_paths,), (3, bundle.n_paths)):
        # dates out of order and revisited, so the one-slot factor is replaced
        for i in (1, 2, n - 1, 2, 3):
            v = rng.standard_normal(shape) * 3.0
            want_ce = regression_fit_oracle(B[:, i], 3, v)
            target = (v - want_ce) * bundle.dB[:, i] / bundle.dt[i]
            want_z = regression_fit_oracle(B[:, i], 3, target)
            got_ce, got_z = backend.ce(i, v), backend.z(i, v)
            assert got_ce.shape == got_z.shape == shape
            assert np.max(np.abs(got_ce - want_ce)) <= 1e-12 * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(got_z - want_z)) <= 1e-12 * (1.0 + np.max(np.abs(target)))
        v = rng.standard_normal(shape)
        assert np.array_equal(backend.ce(0, v), np.broadcast_to(np.mean(v, axis=-1, keepdims=True), shape))


def test_regression_factors_each_date_once_per_pass(monkeypatch):
    calls = {"svd": 0, "lstsq": 0}
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
    steps = 16
    exp = build_experiment({
        "scenario": "mc_martingale",
        "grid": {"steps": steps},
        "noise": {"paths": 200},
        "solver": {"eps_schedule": [0.1, 0.05]},
    })
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    backend = make_backend(bundle, exp.solver)
    sol = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver).solutions[0.05]
    # date 0 is the sample mean; dates 1 .. steps-1 are factored once each
    assert calls["svd"] <= steps - 1
    calls["svd"] = 0
    smoothing_operator(bundle, backend, sol.Y_levels, SmoothingConfig(eps=0.2))
    assert calls["svd"] <= steps - 1
    assert calls["lstsq"] == 0


SMOOTHING_BUNDLES = {
    "tree": lambda: (tree_bundle(8, a_spec=IncreasingProcessSpec.ramp(0.3, 1.5)), "tree"),
    "deterministic": lambda: (det_bundle(12), "tree"),
    "mc-lsq": lambda: (REGRESSION_BUNDLES["mc"](), "lsq"),
}


@pytest.mark.parametrize("kind", SMOOTHING_BUNDLES)
@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
def test_one_pass_smoothing_matches_the_two_loop_oracle(kind, eps):
    bundle, ce = SMOOTHING_BUNDLES[kind]()
    backend = make_backend(bundle, SolverConfig(ce=ce))
    rng = np.random.default_rng(11)
    if ce == "lsq":
        sizes = [bundle.n_paths] * (bundle.grid.steps + 1)
    else:
        sizes = [level.size for level in bundle.levels]
    u = [rng.uniform(-2.0, 2.0, size) for size in sizes]
    got = smoothing_operator(bundle, backend, u, SmoothingConfig(eps=eps))
    want = smoothing_operator_oracle(bundle, backend, u, SmoothingConfig(eps=eps))
    assert (got.gamma, got.i_eps, got.scale) == (want.gamma, want.i_eps, want.scale)
    for key in ("M_levels", "N_levels", "R_levels"):
        g, w = getattr(got, key), getattr(want, key)
        assert len(g) == len(w)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g, w)), key
