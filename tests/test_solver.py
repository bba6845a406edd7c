import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvilab.convex import ConvexSpec
from bsvilab.errors import (
    ConfigError,
    DomainError,
    NonFiniteGenerator,
)
from bsvilab import convex, solver
from bsvilab.cli import execute, fmt
from bsvilab.generators import GeneratorSpec, combined_driver
from bsvilab.paths import IncreasingProcessSpec, NoiseModel, TimeGrid, build_paths
from bsvilab.scenarios import SCENARIOS, build_experiment
from bsvilab.solver import (
    SolverConfig,
    make_backend,
    monomial_basis,
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
        ({"degree": 2.5}, "solver.degree"),
        ({"degree": True}, "solver.degree"),
        ({"degree": "3"}, "solver.degree"),
    ):
        with pytest.raises(ConfigError, match=needle):
            SolverConfig(**kwargs)
    assert SolverConfig(degree=np.int64(2)).degree == 2
    assert SolverConfig(eps_schedule=(2.0, 0.5)).eps_schedule == (2.0, 0.5)


def test_solver_block_keys_are_the_config_fields():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"p", "eps_schedule", "ce", "degree"}
    # integers are read as floats
    exp = build_experiment({"scenario": "linear", "solver": {"p": 3}})
    assert exp.solver.p == 3.0 and type(exp.solver.p) is float
    # the penalty scheme has no knobs: explicit steps, predictor sweeps,
    # ridge fits and the mollified driver with its node count are gone;
    # so is lambda, the split of the weights, a constant of the proof
    removed = (
        ("mode", "explicit"), ("sweeps", 2), ("ridge", 0.1), ("mollifier_nq", 101), ("mollify", True),
        ("lambda", 0.5),
    )
    for key, value in removed:
        with pytest.raises(ConfigError, match=rf"solver: unknown keys \['{key}'\]"):
            build_experiment({"scenario": "linear", "solver": {key: value}})


def test_martingale_exactness_on_tree():
    bundle = tree_bundle(8)
    cfg = SolverConfig(eps_schedule=(0.1,))
    sol = solve_penalized(bundle, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, cfg)
    for i, (a, b) in enumerate(zip(bundle.offsets, bundle.offsets[1:])):
        assert np.allclose(sol.level("Y", i), bundle.cell_values[a:b], rtol=0, atol=1e-13)
    assert np.allclose(sol.Z, 1.0, rtol=0, atol=1e-13)
    assert np.array_equal(sol.U, np.zeros_like(sol.U))
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
    y = np.array([float(sol.level("Y", i)[0]) for i in range(bundle.grid.steps + 1)])
    assert np.max(np.abs(y - ref)) <= 0.025 + 5.0 / 1000


def test_penalization_force_single_sign_for_one_sided_wall():
    gen = GeneratorSpec.from_expressions("1", "0")
    cfg = SolverConfig(eps_schedule=(0.05,))
    bundle = det_bundle(400)
    sol = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.05, cfg)
    # Kinc = U dQ per level, as results.csv writes it
    kinc = [sol.level("U", i) * bundle.dq[i] for i in range(400)]
    for k in kinc:
        assert np.all(k >= -1e-15)
    total = sum(float(np.sum(np.abs(k))) for k in kinc)
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


@pytest.mark.parametrize(
    "pair",
    [(IND11, ABS), (HALFLINE, QUAD1), (ConvexSpec.interval(-0.05, 0.05), ABS), (QUAD1, ZERO)],
    ids=["interval-abs", "halfline-quadratic", "coinciding-kinks", "kink-free"],
)
def test_both_readers_of_the_implicit_table_match_the_closed_form_oracle(pair):
    phi, psi = pair
    schedule = (0.1, 0.05, 0.025)
    # four keys: alpha 0, 0.4 and 1, two clock steps
    alphas, dqs = [0.0, 0.4, 1.0, 0.4], [0.3, 0.3, 0.01, 0.01]
    step = solver.implicit_step(phi, psi, alphas, schedule, dqs)
    for key, (alpha, dq) in enumerate(zip(alphas, dqs)):
        for r, eps in enumerate(schedule):
            xs = np.unique(convex.gradient_breakpoints(phi, eps) + convex.gradient_breakpoints(psi, eps))
            knots = xs + dq * convex.combined_gradient(phi, psi, alpha, eps, xs)
            y_hat = np.concatenate([
                knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.7, -2.5],
            ])
            want = implicit_step_oracle(phi, psi, alpha, eps, dq, "closed_form")(y_hat)
            # the array reader, every row at once
            got = step(np.tile(y_hat, (len(schedule), 1)), key)[r]
            assert got.tobytes() == want.tobytes(), (key, eps)
            # the float reader, one step of the one-cell sweep per value:
            # H dQ = -0.0 leaves y_hat as it is, -0.0 included
            for y, w in zip(y_hat.tolist(), want):
                levels, y_hats = np.array([np.nan, y]), np.empty(1)
                solver._one_cell_sweep(step, r, memoryview(levels), memoryview(y_hats), [-0.0], [key])
                assert y_hats.tobytes() == np.float64(y).tobytes()
                assert levels[:1].tobytes() == np.float64(w).tobytes(), (key, eps, y)


def per_step_sweep(bundle, phi, psi, gen, terminal, eps):
    """Y levels of the semi-implicit sweep with a fresh implicit solve per step."""
    backend = make_backend(bundle, SolverConfig(eps_schedule=(eps,)))
    t, dq, alpha = bundle.grid.nodes, bundle.dq, bundle.alpha
    y = np.asarray(terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float)
    levels = [y]
    for i in reversed(range(bundle.grid.steps)):
        ce, z = backend.ce(i, y), backend.z(i, y)
        y_hat = ce + combined_driver(gen, alpha[i], t[i], ce, z) * dq[i]
        y = resolve_implicit(phi, psi, alpha[i], eps, dq[i], y_hat)
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
    # one table build for the run, one key per distinct (alpha_i, dQ_i)
    [(alphas, schedule, dqs)] = builds
    assert list(schedule) == [eps] and len(alphas) == len(dqs) == n_keys
    assert set(zip(alphas, dqs)) == keys
    ref = per_step_sweep(bundle, phi, QUAD1, gen, terminal, eps)
    assert sol.Y.size == sum(want.size for want in ref)
    for i, want in enumerate(ref):
        assert np.array_equal(sol.level("Y", i), want)


def test_tree_step_identity_reconstructs_exactly():
    bundle = tree_bundle(6)
    gen = GeneratorSpec.from_expressions("0.3 - y", "0", mu=0.0)
    cfg = SolverConfig(eps_schedule=(0.1,))
    sol = solve_penalized(
        bundle, IND11, ZERO, gen, lambda b, a: np.clip(b, -1.0, 1.0), 0.1, cfg
    )
    p = sol.paths(bundle)
    dq = bundle.dq
    recon = p["Y"][:, :-1] - (p["H"] - p["U"]) * dq + p["Z"] * bundle.increments(0, bundle.grid.steps)
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
    u = np.full(45, 3.0)  # levels of 1, ..., 9 nodes
    sm = smoothing_operator(backend, u, 0.2)
    assert sm.M.size == u.size and sm.N.size == sm.R.size == u.size - 9
    assert np.allclose(sm.M, 3.0, rtol=0, atol=1e-12)
    assert np.allclose(sm.N, 0.0, rtol=0, atol=1e-12)
    assert np.isclose(sm.gamma, 3.0, rtol=0, atol=1e-12)


def test_smoothing_never_exceeds_the_source_sup():
    bundle = tree_bundle(8)
    backend = make_backend(bundle, SolverConfig())
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.uniform(-2.0, 2.0, 45)
        sm = smoothing_operator(backend, u, 0.3)
        sup_u = float(np.max(np.abs(u)))
        sup_m = float(np.max(np.abs(sm.M)))
        assert sup_m <= sup_u + 1e-12


def test_smoothing_modulus_bound_for_linear_source():
    bundle = det_bundle(1000)
    backend = make_backend(bundle, SolverConfig())
    t = bundle.grid.nodes
    u = t.copy()  # one node per level
    sm = smoothing_operator(backend, u, 0.01)
    scale = sm.scale
    bound = np.sqrt(scale) * 1.0 + 2.0 * np.exp(1.0 - 1.0 / np.sqrt(scale)) * 1.0
    worst = max(float(np.max(np.abs(sm.level("M", i) - ti))) for i, ti in enumerate(t))
    assert worst <= bound
    with pytest.raises(DomainError):
        smoothing_operator(backend, u, 2.0)
    for bad in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(DomainError):
            smoothing_operator(backend, u, bad)


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
    assert seq.solutions[0.1].level("Y", 2).shape == (lsq.bundle.n_paths,)


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
    assert list(seq.solutions) == list(ref.solutions)
    for eps, want in ref.solutions.items():
        sol = seq.solutions[eps]
        for key in "YZUH":
            levels = want[f"{key}_levels"]
            assert getattr(sol, key).size == sum(w.size for w in levels)
            for i, w in enumerate(levels):
                g = sol.level(key, i)
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
    # deterministic noise with state-free drivers: each eps row recurses
    # in Python floats on one-cell levels
    "coinciding-kinks-deterministic": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "noise": {"kind": "deterministic"},
        "potentials": {"phi": {"kind": "abs"}, "psi": {"kind": "interval", "a": -0.05, "b": 0.05}},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025]},
    },
    "abs-quadratic-deterministic": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "noise": {"kind": "deterministic"},
        "potentials": {"phi": {"kind": "abs"}, "psi": {"kind": "quadratic", "c": 2.0}},
        "generator": {"F": "2 - 4 * t"},
    },
    # a driver that reads z; min(z, 1) is 1-Lipschitz in z
    "z-driver": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 16},
        "generator": {"F": "2 - y + min(z, 1)", "ell": 1.0},
        "solver": {"eps_schedule": [0.2, 0.1]},
    },
    "lsq-two-eps": {
        "scenario": "mc_martingale",
        "grid": {"steps": 16},
        "noise": {"paths": 500},
        "potentials": {"phi": {"kind": "interval", "a": -0.3, "b": 0.3}},
        "generator": {"F": "0.5 - y"},
        "solver": {"eps_schedule": [0.1, 0.05]},
    },
    # a driver of t alone, known before the sweep, on a ramp clock
    # A = 4 (t - 1/4)^+, so alpha = 1, then 1/5
    "state-free-ramp": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "a_process": {"kind": "ramp", "start": 0.25, "rate": 4.0},
        "generator": {"F": "1 - 2 * t", "G": "0.5 * t"},
        "solver": {"eps_schedule": [0.5, 0.1]},
    },
    # the same on deterministic noise: several keys and alpha in (0, 1);
    # F pushes Y over the barrier at 1, so the penalty acts
    "state-free-ramp-deterministic": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "noise": {"kind": "deterministic"},
        "a_process": {"kind": "ramp", "start": 0.25, "rate": 4.0},
        "generator": {"F": "3 - 2 * t", "G": "0.5 * t"},
        "solver": {"eps_schedule": [0.5, 0.1]},
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


# the cases whose every eps row recurses in floats, and two that keep
# the array path on deterministic noise: drivers that read y
ONE_CELL = (
    "reflection", "reflection_fine", "wall-at-negative-zero", "coinciding-kinks-deterministic",
    "abs-quadratic-deterministic", "state-free-ramp-deterministic",
)


@pytest.mark.parametrize("case", [*ONE_CELL, "linear", "clocked_decay"])
def test_deterministic_runs_call_the_backend_only_for_drivers_that_read_the_state(
    monkeypatch, case
):
    exp = build_experiment(SWEEP_CASES[case])
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    assert bundle.kind == "deterministic"
    backend = make_backend(bundle, exp.solver)
    calls = []
    for name in ("ce", "z"):
        method = getattr(solver.TreeBackend, name)
        monkeypatch.setattr(
            solver.TreeBackend, name,
            lambda self, i, v, name=name, method=method: calls.append(name) or method(self, i, v),
        )
    seq = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    sweep_calls = len(calls)
    sol = seq.solutions[exp.solver.eps_schedule[-1]]
    smoothing_operator(backend, sol.Y, 0.5)
    # the smoothing pass recurses in floats whatever the driver
    assert len(calls) == sweep_calls
    assert sweep_calls == (0 if case in ONE_CELL else 2 * bundle.grid.steps)
    assert not sol.Z.any() and sol.Z.dtype == float


@pytest.mark.parametrize("config", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_penalty_energy_and_gaps_match_the_per_level_oracle(config):
    seq, ref = sweep_and_oracle(config)
    assert list(seq.penalty_energy) == list(ref.penalty_energy)
    for eps, want in ref.penalty_energy.items():
        assert np.float64(seq.penalty_energy[eps]).tobytes() == np.float64(want).tobytes(), eps
    assert [(g["eps_coarse"], g["eps_fine"]) for g in seq.gaps] == [
        (g["eps_coarse"], g["eps_fine"]) for g in ref.gaps
    ]
    for got, want in zip(seq.gaps, ref.gaps):
        for key in ("y_gap", "z_gap"):
            assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), (want, key)


@pytest.mark.parametrize("driver", ["2", "2 - y"], ids=["state-free", "reads-y"])
def test_every_row_takes_the_driver_and_the_penalty_on_every_step(monkeypatch, driver):
    # A = 4t passes 1/eps = 2 at t = 1/2, and nothing changes there
    config = {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 32},
        "a_process": {"kind": "linear", "rate": 4.0},
        "generator": {"F": driver},
        "solver": {"eps_schedule": [0.5, 0.1]},
    }
    res = execute(build_experiment(config))
    calls = []

    def counted(gen, alpha, t, y, z):
        calls.append((t, np.shape(y)))
        return combined_driver(gen, alpha, t, y, z)

    monkeypatch.setattr(solver, "combined_driver", counted)
    seq, ref = sweep_and_oracle(config)
    assert_matches_oracle(seq, ref)

    bundle = res.bundle
    if driver == "2":
        # H is known from (t, alpha): one call over every step
        [(t, _)] = calls
        assert np.array_equal(t, bundle.grid.nodes[:-1])
    else:
        # one driver call per step, carrying both rows
        assert [shape[0] for _, shape in calls] == [2] * bundle.grid.steps
    late = np.flatnonzero(bundle.A[:-1] > 2.0)
    assert 0 < late.size < bundle.grid.steps
    for sol in seq.solutions.values():
        for i in late:
            assert np.all(sol.level("H", i) != 0.0) and np.any(sol.level("U", i) != 0.0)
    penalty = res.summary["penalty_by_eps"]
    for eps in (0.5, 0.1):
        assert penalty[fmt(eps)]["max_stiffness"] == float(np.max(bundle.dq / eps))


def test_non_finite_driver_on_one_row_alone_still_raises():
    # F = 1 pushes Y over the wall at 0, further at the coarse eps; a
    # driver that is NaN above a level between the two rows' peaks is NaN
    # in one row of the sweep's two-row calls
    bundle = det_bundle(40, a_spec=IncreasingProcessSpec.linear(4.0))
    cfg = SolverConfig(eps_schedule=(0.5, 0.1))
    one = GeneratorSpec.from_expressions("1", "0")
    seq = solve_sequence(make_backend(bundle, cfg), HALFLINE, ZERO, one, terminal_const(-0.5), cfg)
    # the driver reads CE = Y_{i+1}: levels 1 to N on deterministic noise
    peaks = {eps: float(np.max(sol.levels("Y", 1, 41))) for eps, sol in seq.solutions.items()}
    calm, wild = sorted(peaks, key=peaks.get)
    level = 0.5 * (peaks[calm] + peaks[wild])
    gen = GeneratorSpec(
        F=lambda t, y, z: np.where(np.asarray(y) > level, np.nan, 1.0),
        G=lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
    )
    sol = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), calm, cfg)
    assert np.all(np.isfinite(sol.Y))
    with pytest.raises(NonFiniteGenerator):
        solve_sequence(make_backend(bundle, cfg), HALFLINE, ZERO, gen, terminal_const(-0.5), cfg)


def test_a_state_free_driver_raises_from_the_sweeps_single_call(monkeypatch):
    # F = +inf after t = 1/2; the record says F reads t alone, so the
    # sweep evaluates it once, before the first step
    def f(t, y, z):
        return np.where(np.asarray(t) > 0.5, np.inf, 1.0)

    f.reads = frozenset({"t"})
    gen = GeneratorSpec(F=f, G=ZERO_GEN.G)
    assert not gen.reads_state
    calls = []

    def counted(*args):
        calls.append(args)
        return combined_driver(*args)

    monkeypatch.setattr(solver, "combined_driver", counted)
    bundle = det_bundle(40, a_spec=IncreasingProcessSpec.linear(4.0))
    cfg = SolverConfig(eps_schedule=(0.5, 0.1))
    for eps in cfg.eps_schedule:
        calls.clear()
        with pytest.raises(NonFiniteGenerator):
            solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), eps, cfg)
        assert len(calls) == 1


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
            target = (v - want_ce) * bundle.increments(i, i + 1)[:, 0] / bundle.dt[i]
            want_z = regression_fit_oracle(B[:, i], 3, target)
            got_ce, got_z = backend.ce(i, v), backend.z(i, v)
            assert got_ce.shape == got_z.shape == shape
            assert np.max(np.abs(got_ce - want_ce)) <= 1e-12 * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(got_z - want_z)) <= 1e-12 * (1.0 + np.max(np.abs(target)))
        v = rng.standard_normal(shape)
        assert np.array_equal(backend.ce(0, v), np.broadcast_to(np.mean(v, axis=-1, keepdims=True), shape))


def test_regression_factors_each_date_once_per_pass(monkeypatch):
    calls = {"svd": 0, "lstsq": 0, "basis": 0}
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
    monkeypatch.setattr(solver, "monomial_basis", counted("basis", solver.monomial_basis))
    smoothing_operator(backend, sol.Y, 0.2)
    # date 0 is the sample mean; dates 1 .. steps-1 are factored once
    # each, by the sweep, and the smoothing pass reuses those factors.
    # It takes a date's expectation and loading together, so the
    # one-date slot builds each date's basis once
    assert calls["svd"] == steps - 1
    assert calls["lstsq"] == 0
    assert calls["basis"] == steps - 1


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-110, 1e77, -1e103, 1.7e308]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(EDGE_FLOATS, st.floats(allow_nan=False)), min_size=1, max_size=40),
    st.integers(1, 5),
)
def test_monomial_basis_is_vander_bit_for_bit(b, degree):
    b = np.array(b)
    with np.errstate(over="ignore", under="ignore"):  # powers of the edge values
        want = np.vander(b, degree + 1, increasing=True)
        got = monomial_basis(b, np.empty((b.size, degree + 1), order="F"))
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(EDGE_FLOATS, st.floats(allow_nan=False), st.sampled_from([1.0, -1.0])), max_size=12))
def test_distinct_kinks_are_np_unique_bit_for_bit(values):
    assert solver._distinct(values).tobytes() == np.unique(np.array(values, dtype=float)).tobytes()


def test_a_regression_fit_does_not_depend_on_the_fits_before_it():
    bundle = REGRESSION_BUNDLES["mc"]()
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, bundle.n_paths))
    i = 3
    fresh = make_backend(bundle, SolverConfig(ce="lsq"))
    first = fresh.ce(i, v), fresh.z(i, v)
    # fits at other dates evict date i from the one-date slot; on another
    # backend, date i comes after them
    late = make_backend(bundle, SolverConfig(ce="lsq"))
    for j in (1, 5, 7, 2):
        fresh.ce(j, v)
        late.z(j, v)
    for backend in (fresh, late):
        again = backend.ce(i, v), backend.z(i, v)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


SMOOTHING_BUNDLES = {
    "tree": lambda: (tree_bundle(8, a_spec=IncreasingProcessSpec.ramp(0.3, 1.5)), "tree"),
    "deterministic": lambda: (det_bundle(12), "tree"),
    "deterministic-ramp": lambda: (det_bundle(12, a_spec=IncreasingProcessSpec.ramp(0.3, 1.5)), "tree"),
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
        sizes = np.diff(bundle.offsets)
    u = [rng.uniform(-2.0, 2.0, size) for size in sizes]
    # a first call on other values leaves its freed buffers for the
    # second's np.empty, so a level the pass leaves unwritten shows
    smoothing_operator(backend, np.concatenate(u) + 7.0, eps)
    got = smoothing_operator(backend, np.concatenate(u), eps)
    want = smoothing_operator_oracle(bundle, backend, u, eps)
    assert (got.gamma, got.i_eps, got.scale) == (want.gamma, want.i_eps, want.scale)
    for key in "MNR":
        levels = getattr(want, f"{key}_levels")
        assert getattr(got, key).size == sum(w.size for w in levels)
        assert all(got.level(key, i).tobytes() == w.tobytes() for i, w in enumerate(levels)), key
