import warnings

import numpy as np
import pytest

from bsvilab.convex import ConvexSpec
from bsvilab.errors import (
    ConfigError,
    DomainError,
    NonFiniteGenerator,
    PenalizationSolveFailure,
    StiffnessWarning,
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

from oracles import reflection_oracle, solve_sequence_oracle

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
        {"mode": "implicit"},
        {"ce": "nn"},
        {"degree": 0},
        {"ridge": -1.0},
        {"sweeps": 0},
    ):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)
    cfg = SolverConfig(eps_schedule=[0.1, 0.05])
    assert cfg.eps_schedule == (0.1, 0.05)


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


@pytest.mark.parametrize("pair", [(ZERO, ZERO), (QUAD1, ZERO), (IND11, ABS), (HALFLINE, QUAD1)])
@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_implicit_step_closed_form_matches_bisection(pair, alpha):
    phi, psi = pair
    y_hat = np.linspace(-4.0, 4.0, 41)
    for eps in (0.05, 0.5):
        for dq in (0.01, 0.3):
            exact = resolve_implicit(phi, psi, alpha, eps, dq, y_hat, method="closed_form")
            probed = resolve_implicit(phi, psi, alpha, eps, dq, y_hat, method="bisect")
            assert np.allclose(exact, probed, rtol=0, atol=1e-11)


def test_implicit_step_custom_falls_back_to_bisection():
    custom = ConvexSpec.custom(lambda y: 0.5 * np.square(y))
    y_hat = np.array([-2.0, 0.0, 1.5])
    got = resolve_implicit(custom, ZERO, 1.0, 0.25, 0.1, y_hat)
    ref = resolve_implicit(QUAD1, ZERO, 1.0, 0.25, 0.1, y_hat, method="closed_form")
    # the numeric prox inside the custom route carries a few 1e-9 itself
    assert np.allclose(got, ref, rtol=0, atol=1e-7)
    with pytest.raises(PenalizationSolveFailure):
        resolve_implicit(custom, ZERO, 1.0, 0.25, 0.1, y_hat, method="closed_form")
    with pytest.raises(ConfigError):
        resolve_implicit(QUAD1, ZERO, 1.0, 0.25, 0.1, y_hat, method="newton")


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


CUSTOM_QUAD = ConvexSpec.custom(lambda y: 0.5 * np.square(y))
RAMP = IncreasingProcessSpec.ramp(0.5, 1.0)
# dyadic steps 1/4 and 1/8 around the ramp start: dQ = 1/4 with alpha 1
# and with alpha 1/2, so neither alpha nor dQ alone identifies a step
UNEVEN = build_paths(
    TimeGrid(np.array([0.0, 0.25, 0.5, 0.625, 0.75, 1.0])), NoiseModel.deterministic(), RAMP
)


@pytest.mark.parametrize(
    "bundle, phi, method, n_keys",
    [
        (tree_bundle(16, a_spec=RAMP), IND11, "closed_form", 2),
        (UNEVEN, IND11, "closed_form", 3),
        # each bisect step runs a numeric prox per probe, so keep it short
        (tree_bundle(1, a_spec=RAMP), CUSTOM_QUAD, "bisect", 1),
    ],
    ids=["closed_form-tree", "closed_form-uneven", "bisect"],
)
def test_one_implicit_step_per_alpha_and_dq_matches_per_step_solves(
    monkeypatch, bundle, phi, method, n_keys
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
    assert sol.implicit_method == method
    assert sorted((a, d) for a, _, d in builds) == sorted(keys)
    ref = per_step_sweep(bundle, phi, QUAD1, gen, terminal, eps)
    for got, want in zip(sol.Y_levels, ref, strict=True):
        assert np.array_equal(got, want)


def test_explicit_mode_warns_when_stiff():
    gen = GeneratorSpec.from_expressions("1", "0")
    bundle = det_bundle(10)
    cfg = SolverConfig(eps_schedule=(0.05,), mode="explicit")
    with pytest.warns(StiffnessWarning):
        solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.05, cfg)
    calm = SolverConfig(eps_schedule=(0.05,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.05, calm)


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
    # expanded once per bundle: the same read-only arrays come back
    again = sol.paths(bundle)
    for key, arr in p.items():
        assert again[key] is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


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
    off = ConvexSpec.interval(0.5, 2.0)
    with pytest.raises(DomainError, match="recenter"):
        solve_penalized(
            det_bundle(10), off, ZERO, ZERO_GEN, terminal_const(1.0), 0.1, SolverConfig()
        )


def assert_matches_oracle(seq, ref):
    """Every level of every eps equal to the per-eps sweep, bit for bit."""
    assert list(seq.solutions) == list(ref)
    for eps, want in ref.items():
        sol = seq.solutions[eps]
        assert sol.implicit_method == want["implicit_method"]
        for key in ("Y_levels", "Z_levels", "U_levels", "H_levels"):
            got = getattr(sol, key)
            assert len(got) == len(want[key])
            for i, (g, w) in enumerate(zip(got, want[key])):
                assert g.dtype == w.dtype and g.shape == w.shape, (eps, key, i)
                # tobytes, not array_equal: -0.0 and 0.0 print differently
                assert g.tobytes() == w.tobytes(), (eps, key, i)


def sweep_and_oracle(config):
    """(one sweep, per-eps oracle, their StiffnessWarning messages) for a config."""
    exp = build_experiment(config)
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    args = (exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    out = []
    for solve, on in (
        (solve_sequence, make_backend(bundle, exp.solver)),
        (solve_sequence_oracle, bundle),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out.append(solve(on, *args))
        out.append([str(w.message) for w in caught if w.category is StiffnessWarning])
    seq, seq_warned, ref, ref_warned = out
    return seq, ref, seq_warned, ref_warned


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
    # dQ/eps = 1.25 and 1.67 at the finer two eps: two warnings, still stable
    "explicit": {
        "scenario": "reflection",
        "grid": {"steps": 100},
        "solver": {"mode": "explicit", "eps_schedule": [0.1, 0.008, 0.006]},
    },
    "mollify": {
        "scenario": "two_barrier_driven",
        "grid": {"steps": 16},
        "generator": {"F": "2 - y + min(z, 1)"},
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
}


@pytest.mark.parametrize("config", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_one_sweep_matches_the_per_eps_sweeps(config):
    seq, ref, seq_warned, ref_warned = sweep_and_oracle(config)
    assert_matches_oracle(seq, ref)
    assert seq_warned == ref_warned
    if config.get("solver", {}).get("mode") == "explicit":
        assert len(seq_warned) == 2


def test_one_sweep_matches_the_per_eps_sweeps_on_bisection():
    # each bisection step runs a numeric prox per probe, so keep it short;
    # eps >= 0.5 because the bisection gate fails at smaller eps
    bundle = tree_bundle(1, a_spec=RAMP)
    gen = GeneratorSpec.from_expressions("0.3 - y", "0.5 * y")
    terminal = lambda b, a: 0.5 * b + 1.2  # noqa: E731
    cfg = SolverConfig(eps_schedule=(1.0, 0.5))
    args = (CUSTOM_QUAD, QUAD1, gen, terminal, cfg)
    seq = solve_sequence(make_backend(bundle, cfg), *args)
    assert {sol.implicit_method for sol in seq.solutions.values()} == {"bisect"}
    assert_matches_oracle(seq, solve_sequence_oracle(bundle, *args))


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
    seq, ref, _, _ = sweep_and_oracle(config)
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
    with pytest.raises(ConfigError):
        solver.backward_sweep(
            make_backend(det_bundle(4), SolverConfig()), ZERO, ZERO, ZERO_GEN, terminal_const(1.0),
            (0.1, 0.2), SolverConfig(),
        )
