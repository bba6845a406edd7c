import warnings

import numpy as np
import pytest

from bsvilab.convex import ConvexSpec
from bsvilab.errors import (
    ConfigError,
    DomainError,
    PenalizationSolveFailure,
    StiffnessWarning,
)
from bsvilab.generators import GeneratorSpec
from bsvilab.paths import IncreasingProcessSpec, NoiseModel, TimeGrid, build_paths
from bsvilab.solver import (
    SmoothingConfig,
    SolverConfig,
    make_backend,
    resolve_implicit,
    smoothing_operator,
    solve_penalized,
    solve_sequence,
)

from oracles import reflection_oracle

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
    seq = solve_sequence(bundle, ZERO, ZERO, gen, terminal_driver, cfg)
    for gap in seq.gaps:
        assert gap["y_gap"] == 0.0
        assert gap["z_gap"] == 0.0
    assert all(v == 0.0 for v in seq.penalty_energy.values())


def test_sequence_reflection_gap_tracks_eps():
    bundle = det_bundle(500)
    gen = GeneratorSpec.from_expressions("1", "0")
    cfg = SolverConfig(eps_schedule=(0.1, 0.05))
    seq = solve_sequence(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), cfg)
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


def test_unnormalized_potential_is_refused():
    off = ConvexSpec.interval(0.5, 2.0)
    with pytest.raises(DomainError, match="recenter"):
        solve_penalized(
            det_bundle(10), off, ZERO, ZERO_GEN, terminal_const(1.0), 0.1, SolverConfig()
        )
