import dataclasses
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bsvilab import paths as pathsmod
from bsvilab import verify
from bsvilab.convex import ConvexSpec
from bsvilab.errors import DomainError, GridMismatch, InfinitePotential, NonFiniteGenerator
from bsvilab.generators import GeneratorSpec
from bsvilab.paths import (
    IncreasingProcessSpec,
    NoiseModel,
    TimeGrid,
    accumulate_weights,
    build_paths,
)
from bsvilab.cli import execute
from bsvilab.scenarios import build_experiment
from bsvilab.solver import SolverConfig, make_backend, solve_penalized, solve_sequence
from bsvilab.verify import (
    TestProcess as ComparisonProcess,
    _pair_max,
    _pair_range,
    battery,
    check_apriori_bound,
    check_contraction,
    check_energy_bound,
    check_variational_inequality,
    default_tolerance,
    ito_report_from_solution,
    reconstruction_process,
    smoothed_midpoint_process,
    zero_process,
)
from oracles import (
    ito_oracle,
    random_step_process,
    random_step_process_oracle,
    smoothing_operator_oracle,
    variational_oracle,
    verify_run_oracle,
    z_gap_oracle,
)

ZERO = ConvexSpec.zero()
IND11 = ConvexSpec.interval(-1.0, 1.0)
HALFLINE = ConvexSpec.interval(-np.inf, 0.0)
ZERO_GEN = GeneratorSpec.from_expressions("0", "0")
ZERO_A = IncreasingProcessSpec.zero()
CFG = SolverConfig(eps_schedule=(0.1,))
INF_F_AT_ZERO = GeneratorSpec(
    F=lambda t, y, z: np.where(np.asarray(y) == 0.0, np.inf, 0.0), G=ZERO_GEN.G
)
INF_G = GeneratorSpec(F=ZERO_GEN.F, G=lambda t, y: np.inf)


def terminal_driver(b, a):
    return b


def terminal_const(value):
    return lambda b, a: np.full_like(np.asarray(b, dtype=float), value)


def weighted(bundle, mu=0.0, nu=0.0, ell=0.0, p=2.0):
    gen = GeneratorSpec(F=ZERO_GEN.F, G=ZERO_GEN.G, mu=mu, nu=nu, ell=ell)
    return accumulate_weights(bundle, gen, SolverConfig(p=p))


def tree_bundle(steps, seed=0):
    b = build_paths(TimeGrid.uniform(1.0, steps), NoiseModel.binomial_tree(seed=seed), ZERO_A)
    return weighted(b)


def det_bundle(steps):
    return weighted(build_paths(TimeGrid.uniform(1.0, steps), NoiseModel.deterministic(), ZERO_A))


def martingale_solution(steps=10):
    bundle = tree_bundle(steps)
    sol = solve_penalized(bundle, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, CFG)
    return bundle, sol


def test_default_tolerance_combines_bias_and_noise(monkeypatch):
    bundle = tree_bundle(10)  # 2^10 enumerated paths
    assert np.isclose(default_tolerance(bundle), 5 * 0.1 + 5 / 32.0, rtol=0, atol=1e-15)
    single = det_bundle(4)
    assert np.isclose(default_tolerance(single), 5 * 0.25 + 5.0, rtol=0, atol=1e-15)
    monkeypatch.setattr(verify, "C_DT", 1.0)
    monkeypatch.setattr(verify, "C_MC", 0.0)
    assert np.isclose(default_tolerance(single), 0.25, atol=1e-15)


def test_pair_scans_match_brute_force():
    rng = np.random.default_rng(0)
    for shape in ((7,), (3, 9)):
        a = rng.normal(size=shape)
        flat = a.reshape(-1, shape[-1])
        brute_max = max(
            row[i] - row[j]
            for row in flat
            for i in range(len(row))
            for j in range(i + 1, len(row))
        )
        assert np.isclose(_pair_max(a), brute_max, rtol=0, atol=1e-15)
        brute_rng = max(
            abs(row[i] - row[j])
            for row in flat
            for i in range(len(row))
            for j in range(i + 1, len(row))
        )
        assert np.isclose(_pair_range(a), brute_rng, rtol=0, atol=1e-15)


def test_variational_inequality_rejects_bad_exponent():
    bundle, sol = martingale_solution()
    tp = zero_process(sol.offsets)
    for q in (1.0, 2.5):
        with pytest.raises(DomainError):
            check_variational_inequality(sol, tp, ZERO, ZERO, ZERO_GEN, bundle, q, 0.1)


def test_martingale_against_itself_is_exact():
    bundle, sol = martingale_solution()
    off = sol.offsets
    tp = ComparisonProcess(
        0.0, lambda a, e: (np.zeros(off[e] - off[a]), np.ones(off[e] - off[a])), label="self"
    )
    rep = check_variational_inequality(
        sol, tp, ZERO, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.1, tol=1e-13
    )
    assert rep.passed
    assert abs(rep.worst_violation) <= 1e-14
    assert rep.monitors["gamma_floor_margin"] >= -1e-15
    assert rep.monitors["driver_eval_gap"] == 0.0


def test_martingale_zero_process_passes_default_gate():
    bundle, sol = martingale_solution()
    rep = check_variational_inequality(
        sol, zero_process(sol.offsets), ZERO, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.1
    )
    assert rep.passed
    assert rep.tolerance == pytest.approx(default_tolerance(bundle))


def test_gamma_floor_tracks_delta_for_small_q():
    bundle, sol = martingale_solution()
    rep = check_variational_inequality(
        sol, zero_process(sol.offsets), ZERO, ZERO, ZERO_GEN, bundle, q=1.5, delta=0.25
    )
    # q < 2 keeps the shift inside Gamma, so the floor is sqrt(delta)
    assert rep.monitors["gamma_floor_margin"] >= 0.0
    rep2 = check_variational_inequality(
        sol, zero_process(sol.offsets), ZERO, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.25
    )
    # q = 2 drops it: Gamma equals |M - Y| and the terminal monitor is plain
    assert rep2.monitors["terminal_gamma_sq_minus_shift"] == pytest.approx(
        float(np.mean(bundle.on_paths(bundle.cell_values)[:, -1] ** 2)), abs=1e-12
    )


def test_raw_potential_mode_detects_domain_exit():
    bundle = tree_bundle(8)
    sol = solve_penalized(
        bundle, IND11, ZERO, ZERO_GEN, lambda b, a: np.clip(b, -1, 1), 0.1, CFG
    )
    wild = random_step_process(sol.offsets, seed=3, scale=5.0)
    with pytest.raises(InfinitePotential):
        check_variational_inequality(
            sol, wild, IND11, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.1,
            penalization_eps=None,
        )
    rep = check_variational_inequality(
        sol, wild, IND11, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.1,
        penalization_eps=0.1,
    )
    assert np.isfinite(rep.worst_violation)


def test_ito_identity_exact_for_martingale_and_constants():
    bundle, sol = martingale_solution()
    rep = ito_report_from_solution(sol, bundle, p=2.0, delta=0.0, tol=1e-12)
    assert rep.passed and abs(rep.worst_violation) <= 1e-13

    const = solve_penalized(bundle, ZERO, ZERO, ZERO_GEN, terminal_const(0.7), 0.1, CFG)
    for p in (1.5, 2.0):
        rep = ito_report_from_solution(const, bundle, p=p, delta=1.0, tol=1e-12)
        assert rep.passed and abs(rep.worst_violation) <= 1e-13


def test_ito_residual_halves_with_the_step():
    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    res = []
    for steps in (100, 200):
        bundle = det_bundle(steps)
        sol = solve_penalized(bundle, ZERO, ZERO, gen, terminal_const(1.0), 0.1, CFG)
        # the solver's drift is the explicit H dQ = -Y_{i+1} dt, which the
        # identity weights by Y_i: the residual is first order in dt
        rep = ito_report_from_solution(sol, bundle, p=2.0, delta=0.0, tol=1.0)
        res.append(rep.worst_violation)
    assert 1.5 <= res[0] / res[1] <= 2.5


def test_ito_identity_validation_and_mc_mode():
    bundle, sol = martingale_solution()
    with pytest.raises(DomainError):
        ito_report_from_solution(sol, bundle, p=1.5, delta=0.0, tol=1.0)
    with pytest.raises(DomainError):
        ito_report_from_solution(sol, bundle, p=2.0, delta=-0.1, tol=1.0)

    mc = weighted(build_paths(TimeGrid.uniform(1.0, 16), NoiseModel.gaussian_mc(4000, seed=2), ZERO_A))
    cfg = SolverConfig(eps_schedule=(0.1,), ce="lsq", degree=3)
    msol = solve_penalized(mc, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, cfg)
    averaged = ito_report_from_solution(msol, mc, p=2.0, delta=0.0, tol=default_tolerance(mc))
    assert averaged.passed
    # the worst per-path range, from whole arrays
    forced = ito_oracle(msol, mc, p=2.0, delta=0.0, tol=1.0, pathwise=True)
    # pathwise residuals do not vanish off the lattice; averaging is the point
    assert forced.worst_violation > 10 * averaged.worst_violation


def test_contraction_identical_and_perturbed_terminal():
    bundle, sol = martingale_solution()
    same = check_contraction(sol, sol, bundle, q=2.0, tol=1e-14)
    assert same.passed and same.worst_violation <= 0.0
    assert same.monitors["initial_gap"] == 0.0

    for h in (1e-3, 1e-2):
        shifted = solve_penalized(
            bundle, ZERO, ZERO, ZERO_GEN, lambda b, a: b + h, 0.1, CFG
        )
        rep = check_contraction(sol, shifted, bundle, q=2.0, tol=1e-12)
        assert rep.passed
        assert rep.monitors["initial_gap"] == pytest.approx(h, abs=1e-15)
        assert rep.monitors["gap_ratio"] == pytest.approx(1.0, abs=1e-9)

    bare = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.binomial_tree(), ZERO_A)
    with pytest.raises(GridMismatch):
        check_contraction(sol, sol, bare, q=2.0, tol=1.0)


def test_contraction_between_eps_levels():
    bundle = tree_bundle(10)
    gen = GeneratorSpec.from_expressions("2", "0")
    term = lambda b, a: np.clip(b, -1.0, 1.0)
    sa = solve_penalized(bundle, IND11, ZERO, gen, term, 0.1, CFG)
    sb = solve_penalized(bundle, IND11, ZERO, gen, term, 0.05, CFG)
    rep = check_contraction(sa, sb, bundle, q=2.0, tol=10 * 0.1)
    assert rep.passed


def test_apriori_bound_reference_cases():
    zero_bundle, _ = martingale_solution()
    zsol = solve_penalized(zero_bundle, ZERO, ZERO, ZERO_GEN, terminal_const(0.0), 0.1, CFG)
    rep = check_apriori_bound(zsol, zero_bundle, ZERO_GEN, np.zeros(zero_bundle.n_paths), p=2.0)
    assert rep.passed and rep.worst_violation <= 0.0

    bundle, sol = martingale_solution()
    eta = bundle.on_paths(bundle.cell_values)[:, -1]
    for p in (1.5, 2.0, 2.5):
        wb = weighted(bundle, p=p)
        rep = check_apriori_bound(sol, wb, ZERO_GEN, eta, p=p)
        assert rep.passed

    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    db = weighted(build_paths(TimeGrid.uniform(1.0, 100), NoiseModel.deterministic(), ZERO_A), mu=-1.0)
    lsol = solve_penalized(db, ZERO, ZERO, gen, terminal_const(1.0), 0.1, CFG)
    rep = check_apriori_bound(lsol, db, gen, np.ones(1), p=2.0)
    assert rep.passed
    assert rep.monitors["margin"] >= 0.0

    bare = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.binomial_tree(), ZERO_A)
    ssol = solve_penalized(bare, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, CFG)
    with pytest.raises(GridMismatch):
        check_apriori_bound(ssol, bare, ZERO_GEN, np.zeros(bare.n_paths), p=2.0)

    # an infinite source term would let the bound pass vacuously
    for bad in (INF_F_AT_ZERO, INF_G):
        with pytest.raises(NonFiniteGenerator):
            check_apriori_bound(lsol, db, bad, np.ones(1), p=2.0)


def test_energy_bound_with_positive_part_weights():
    bundle, sol = martingale_solution()
    eta = bundle.on_paths(bundle.cell_values)[:, -1]
    rep = check_energy_bound(sol, bundle, ZERO_GEN, eta)
    assert rep.passed
    assert rep.monitors["c_fit"] == 4.0

    bare = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.binomial_tree(), ZERO_A)
    ssol = solve_penalized(bare, ZERO, ZERO, ZERO_GEN, terminal_driver, 0.1, CFG)
    with pytest.raises(GridMismatch):
        check_energy_bound(ssol, bare, ZERO_GEN, np.zeros(bare.n_paths))

    for bad in (INF_F_AT_ZERO, INF_G):
        with pytest.raises(NonFiniteGenerator):
            check_energy_bound(sol, bundle, bad, eta)


def test_zero_potential_solutions_pass_random_probes():
    bundle = tree_bundle(8)
    gen = GeneratorSpec.from_expressions("-y", "0", mu=-1.0)
    sol = solve_penalized(bundle, ZERO, ZERO, gen, terminal_driver, 0.1, CFG)
    tol = 5.0 * (float(np.max(bundle.dt)) + 1.0 / np.sqrt(bundle.n_paths))
    for k in range(10):
        tp = random_step_process(sol.offsets, seed=11, index=k)
        for q in (1.5, 2.0):
            rep = check_variational_inequality(
                sol, tp, ZERO, ZERO, gen, bundle, q=q, delta=0.1,
                tol=tol, penalization_eps=sol.eps,
            )
            assert rep.passed, rep.name


def test_step_processes_read_windows_without_path_copies():
    # 8 random-step processes and the zero process in the per-path layout
    # of 16384 x 128 paths (a regression backend's): whole (paths, steps)
    # arrays would hold 256 MB
    grid = TimeGrid.uniform(1.0, 128)
    bundle = build_paths(grid, NoiseModel.gaussian_mc(16384, seed=4), ZERO_A)
    offsets = np.arange(grid.steps + 2) * bundle.n_paths
    gc.collect()
    tracemalloc.start()
    try:
        processes = [random_step_process(offsets, seed=7, index=k) for k in range(8)]
        processes.append(zero_process(offsets))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    wholes = [random_step_process_oracle(bundle, seed=7, index=k) for k in range(8)]
    zeros = np.broadcast_to(0.0, (bundle.n_paths, bundle.grid.steps))
    wholes.append((0.0, zeros, zeros))
    for tp, (gamma, n_whole, r_whole) in zip(processes, wholes):
        assert tp.gamma == gamma
        for a, b in bundle.windows():
            e = min(b, grid.steps)
            for got, want in zip(tp.steps(a, e), (n_whole, r_whole)):
                # level i holds path p's value in its cell p
                assert got.shape == ((e - a) * bundle.n_paths,)
                assert got.tobytes() == want[:, a:e].T.tobytes()
    # on a lattice every cell of a level holds the step's value, so the
    # levels gathered along the walks give the whole arrays' columns
    tree = tree_bundle(40)
    tp = random_step_process(tree.offsets, seed=7, index=3)
    gamma, n_whole, r_whole = random_step_process_oracle(tree, seed=7, index=3)
    assert tp.gamma == gamma
    for a, e in ((0, 13), (13, 40)):
        for got, want in zip(tp.steps(a, e), (n_whole, r_whole)):
            assert tree.on_paths(got, a, e).tobytes() == want[:, a:e].tobytes()


@pytest.mark.parametrize("q", [2.0, 1.5])
def test_random_step_processes_on_a_lattice_match_the_oracle(monkeypatch, q):
    # windows of 4 steps: the running sum of M crosses 5 window edges
    monkeypatch.setattr(pathsmod, "WINDOW_CELLS", 2048)
    monkeypatch.setattr(pathsmod, "WINDOW_MIN_STEPS", 2)
    bundle = tree_bundle(24)
    assert len(bundle.windows()) == 6
    gen = GeneratorSpec.from_expressions("2 - y + 0.5 * z", "0")
    sol = solve_penalized(bundle, IND11, ZERO, gen, lambda b, a: 1.2 * b, 0.1, CFG)
    tol = default_tolerance(bundle)
    for k in range(3):
        got = check_variational_inequality(
            sol, random_step_process(sol.offsets, seed=5, index=k), IND11, ZERO, gen, bundle,
            q, 0.1, tol=tol, penalization_eps=sol.eps,
        )
        name = f"variational[random-step-{k}] q={q:g}" + (" delta=0.1" if q < 2.0 else "")
        process = random_step_process_oracle(bundle, seed=5, index=k)
        want = variational_oracle(sol, bundle, IND11, ZERO, gen, process, name, q, 0.1, tol)
        assert got.as_dict() == want.as_dict()


def test_reconstruction_process_collapses_gamma():
    bundle, sol = martingale_solution()
    tp = reconstruction_process(sol)
    rep = check_variational_inequality(
        sol, tp, ZERO, ZERO, ZERO_GEN, bundle, q=2.0, delta=0.5, tol=1e-12,
        penalization_eps=sol.eps,
    )
    assert rep.passed
    assert abs(rep.monitors["terminal_gamma_sq_minus_shift"]) <= 1e-14


def test_battery_composition_and_verdicts(monkeypatch):
    bundle = det_bundle(500)
    gen = GeneratorSpec.from_expressions("1", "0")
    sol = solve_penalized(bundle, HALFLINE, ZERO, gen, terminal_const(-0.5), 0.025, CFG)
    backend = make_backend(bundle, CFG)
    # one path: a gate of 0.25, tighter than the default 5.01
    monkeypatch.setattr(verify, "C_DT", 0.0)
    monkeypatch.setattr(verify, "C_MC", 0.25)
    reports = battery(sol, backend, HALFLINE, ZERO, gen, p=2.0)
    # 3 processes x one q = 2 check (its Gamma shift is 0 at every delta) + collapse
    assert len(reports) == 4
    names = [r.name for r in reports]
    assert any("zero" in s for s in names)
    assert any("reconstruction" in s for s in names)
    assert any("smoothed" in s for s in names)
    assert names[-1] == "reconstruction-collapse"
    for rep in reports:
        assert rep.passed, rep.name
        assert rep.tolerance == 0.25

    lowp = battery(sol, backend, HALFLINE, ZERO, gen, p=1.5)
    assert len(lowp) == 13  # 3 processes x (3 deltas at q = 1.5 + q = 2) + collapse


def _one_per_q2_check(reports: list) -> list:
    """Standalone report dicts, one per (process, q, delta), with each
    process's q = 2 reports at every delta checked equal and kept once."""
    kept = []
    for rep in reports:
        if " q=2" in rep["name"] and kept and kept[-1]["name"] == rep["name"]:
            # Gamma's shift is 0 at q = 2: every delta gives the same report
            assert rep == kept[-1]
        else:
            kept.append(rep)
    return kept


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_battery_shares_candidate_terms_without_changing_reports(p):
    bundle = tree_bundle(12)
    gen = GeneratorSpec.from_expressions("2 - y + 0.5 * z", "0")
    sol = solve_penalized(bundle, IND11, ZERO, gen, lambda b, a: 1.2 * b, 0.1, CFG)
    backend = make_backend(bundle, CFG)
    got = battery(sol, backend, IND11, ZERO, gen, p)
    processes = [
        zero_process(sol.offsets),
        reconstruction_process(sol),
        smoothed_midpoint_process(sol, backend),
    ]
    tol = default_tolerance(bundle)
    want = [
        check_variational_inequality(
            sol, tp, IND11, ZERO, gen, bundle, q, delta, tol=tol, penalization_eps=sol.eps
        ).as_dict()
        for tp in processes
        for q in sorted({2.0, min(p, 2.0)})
        for delta in (1.0, 0.1, 0.01)
    ]
    assert [r.as_dict() for r in got[:-1]] == _one_per_q2_check(want)


@pytest.mark.parametrize("p, calls", [(2.0, 3), (1.5, 12)])
def test_battery_evaluates_each_gamma_shift_once(monkeypatch, p, calls):
    # at q = 2 every delta has Gamma shift 0, so each process is checked
    # once at q = 2 and once per delta at q < 2
    exp = build_experiment({"scenario": "two_barrier_driven", "solver": {"p": p}})
    bundle = accumulate_weights(build_paths(exp.grid, exp.noise, exp.a_spec), exp.gen, exp.solver)
    backend = make_backend(bundle, exp.solver)
    seq = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    final = seq.solutions[exp.solver.eps_schedule[-1]]
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return check_variational_inequality(*args, **kwargs)

    monkeypatch.setattr(verify, "check_variational_inequality", counting)
    got = battery(final, backend, exp.phi, exp.psi, exp.gen, p)
    assert len(made) == calls

    processes = [
        zero_process(final.offsets),
        reconstruction_process(final),
        smoothed_midpoint_process(final, backend),
    ]
    tol = default_tolerance(bundle)
    want = [
        check_variational_inequality(
            final, tp, exp.phi, exp.psi, exp.gen, bundle, q, delta,
            tol=tol, penalization_eps=final.eps,
        ).as_dict()
        for tp in processes
        for q in sorted({2.0, min(p, 2.0)})
        for delta in verify.DELTAS
    ]
    assert [r.as_dict() for r in got[:-1]] == _one_per_q2_check(want)


@pytest.mark.parametrize("p", [2.0, 1.5, 2.5])
def test_verify_run_is_the_plan_of_a_run(p):
    exp = build_experiment({"scenario": "two_barrier_driven", "solver": {"p": p}})
    bundle = accumulate_weights(build_paths(exp.grid, exp.noise, exp.a_spec), exp.gen, exp.solver)
    backend = make_backend(bundle, exp.solver)
    seq = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    got = verify.verify_run(seq, backend, exp.phi, exp.psi, exp.gen, p)

    sols = [seq.solutions[e] for e in exp.solver.eps_schedule]
    assert len(sols) == 4
    final = sols[-1]
    tol = default_tolerance(bundle)
    eta = final.paths(bundle)["Y"][:, -1]
    want = battery(final, backend, exp.phi, exp.psi, exp.gen, p)
    want.append(ito_report_from_solution(final, bundle, p, verify.ITO_DELTA, tol))
    for a, b in zip(sols, sols[1:]):
        want.append(check_contraction(a, b, bundle, min(p, 2.0), max(tol, 2.0 * (a.eps + b.eps))))
    want.append(check_apriori_bound(final, bundle, exp.gen, eta, p))
    want.append(check_energy_bound(final, bundle, exp.gen, eta))
    assert [r.as_dict() for r in got] == [r.as_dict() for r in want]
    assert [r.as_dict() for r in execute(exp).reports] == [r.as_dict() for r in want]
    assert [r.name for r in got[-6:]] == [
        f"ito-identity p={p:g} delta=0.1",
        "contraction eps 0.1 vs 0.05",
        "contraction eps 0.05 vs 0.025",
        "contraction eps 0.025 vs 0.0125",
        "apriori-bound",
        "energy-bound",
    ]
    # the coarsest pair is gated by the cross term 2 (eps + eps'), not by tol
    assert got[-5].tolerance == 2.0 * (0.1 + 0.05) > tol



def solved_run(config):
    """(experiment, backend, SequenceResult) of a config, solved as a run solves it."""
    exp = build_experiment(config)
    bundle = accumulate_weights(build_paths(exp.grid, exp.noise, exp.a_spec), exp.gen, exp.solver)
    backend = make_backend(bundle, exp.solver)
    seq = solve_sequence(backend, exp.phi, exp.psi, exp.gen, exp.terminal, exp.solver)
    return exp, backend, seq


def tree_config(steps, paths, **solver):
    return {
        "scenario": "two_barrier_driven",
        "grid": {"T": 1.0, "steps": steps},
        "noise": {"kind": "tree", "eval_paths": paths},
        "solver": solver,
    }


def mc_config(steps, paths, **solver):
    return {
        "scenario": "mc_martingale",
        "grid": {"T": 1.0, "steps": steps},
        "noise": {"kind": "mc", "paths": paths},
        "solver": solver,
    }


# the benchmark's three workloads, at their first seed
TREE_BARRIER = {**tree_config(256, 1024, eps_schedule=[0.1, 0.05, 0.025, 0.0125]), "seed": 2}
ORACLE_CASES = {
    **{name: {"scenario": name} for name in (
        "martingale", "mc_martingale", "linear", "reflection", "two_barrier",
        "two_barrier_driven", "clocked_decay",
    )},
    **{f"{name}-p{p}": {"scenario": name, "solver": {"p": p}}
       for name in ("two_barrier_driven", "mc_martingale") for p in (1.5, 2.5)},
    "tree_barrier": TREE_BARRIER,
    # 8 windows of 32 steps on the lattice at q < 2 and at p > 2
    **{f"tree_barrier-p{p}": {**TREE_BARRIER, "solver": {**TREE_BARRIER["solver"], "p": p}}
       for p in (1.5, 2.5)},
    "mc_regression": {**mc_config(128, 1000, ce="lsq", degree=3, eps_schedule=[0.1]), "seed": 2},
    "reflection_fine": {
        "scenario": "reflection", "grid": {"T": 1.0, "steps": 1000},
        "solver": {"eps_schedule": [0.1, 0.05, 0.025]}, "seed": 2,
    },
}


def _reports_match_the_oracle(exp, backend, seq):
    args = (seq, backend, exp.phi, exp.psi, exp.gen, exp.solver.p)
    got = [r.as_dict() for r in verify.verify_run(*args)]
    assert got == [r.as_dict() for r in verify_run_oracle(*args)]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_verify_run_matches_the_full_array_oracle(case):
    _reports_match_the_oracle(*solved_run(ORACLE_CASES[case]))


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("scenario", ["martingale", "two_barrier", "two_barrier_driven"])
def test_exact_tree_means_match_the_mean_over_every_path(scenario, p):
    # at most ENUMERATION_LIMIT steps, the evaluation paths are all 2^n
    # walks, so the path means that the exact node expectations replace
    # are the same expectations summed another way
    steps = pathsmod.ENUMERATION_LIMIT
    exp, backend, seq = solved_run({"scenario": scenario, "grid": {"steps": steps}, "solver": {"p": p}})
    assert backend.bundle.n_paths == 2**steps
    args = (seq, backend, exp.phi, exp.psi, exp.gen, p)
    got = [r.as_dict() for r in verify.verify_run(*args)]
    want = [r.as_dict() for r in verify_run_oracle(*args, exact=False)]
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        assert g["passed"] == w["passed"] and g["tolerance"] == w["tolerance"]
        for key in ("worst_violation", *w["monitors"]):
            x, y = (r[key] if key == "worst_violation" else r["monitors"][key] for r in (g, w))
            # 1e-12 relative, on the scale of the report or 1
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (g["name"], key, x, y)


def test_tree_smoothed_process_rebuilds_its_lattice_M_on_every_path():
    exp, backend, seq = solved_run(
        {"scenario": "two_barrier_driven", "grid": {"steps": pathsmod.ENUMERATION_LIMIT}}
    )
    bundle = backend.bundle
    sol = seq.solutions[exp.solver.eps_schedule[-1]]
    tp = smoothed_midpoint_process(sol, backend)
    n = bundle.grid.steps
    m_levels = tp.M(0, n + 1)
    n_steps, r_steps = (bundle.on_paths(x, 0, n) for x in tp.steps(0, n))
    # M_0 = gamma, M_{i+1} = M_i - N_i dQ_i + R_i dB_i along every one of the 2^n paths
    rebuilt = tp.gamma + np.cumsum(-n_steps * bundle.dq + r_steps * bundle.increments(0, n), axis=1)
    lattice = bundle.on_paths(m_levels)
    assert lattice[0, 0] == tp.gamma and bundle.n_paths == 2**n
    assert np.max(np.abs(rebuilt - lattice[:, 1:])) <= 1e-13 * np.max(np.abs(m_levels))
    # the drift is on from the kernel's eps and M moves there
    assert np.any(tp.steps(0, n)[0] != 0.0)
    # off a tree the smoothed M is summed along the paths, as before
    for config in ({"scenario": "linear"}, {"scenario": "martingale", "solver": {"ce": "lsq"}}):
        exp, backend, seq = solved_run(config)
        assert smoothed_midpoint_process(seq.solutions[exp.solver.eps_schedule[-1]], backend).M is None


def _inside(sol):
    y = sol.Y.copy()
    y[: sol.offsets[-2]] += 0.3
    return dataclasses.replace(sol, Y=y)


def _terminal(sol):
    y = sol.Y.copy()
    y[sol.offsets[-2]:] += 0.1
    return dataclasses.replace(sol, Y=y)


# field faults, each applied to every eps solution unless named "finest"
FIELD_FAULTS = {
    "terminal+0.1": _terminal,
    "inside+0.3": _inside,
    "Y*1.5": lambda s: dataclasses.replace(s, Y=1.5 * s.Y),
    "Z=0": lambda s: dataclasses.replace(s, Z=np.zeros_like(s.Z)),
    "Y+noise": lambda s: dataclasses.replace(
        s, Y=s.Y + 0.05 * np.random.default_rng(0).standard_normal(s.Y.shape)
    ),
    "U=0": lambda s: dataclasses.replace(s, U=np.zeros_like(s.U)),
    "H+0.5": lambda s: dataclasses.replace(s, H=s.H + 0.5),
    "inside+0.3/finest": _inside,
}
FAULT_CONFIGS = {
    **{name: {"scenario": name} for name in ("martingale", "two_barrier", "two_barrier_driven")},
    "two_barrier_driven/F=2-t": {
        "scenario": "two_barrier_driven",
        "generator": {"F": "2 - t"},
        "a_process": {"kind": "ramp", "start": 0.25, "rate": 4.0},
        "solver": {"eps_schedule": [0.5, 0.1]},
    },
    "tree_barrier": TREE_BARRIER,
}
# the faults that verify_run caught on each config while the battery,
# the contraction and z_gap read sampled paths; U = 0 moves nothing on
# martingale, which has no potentials, and escapes on two_barrier
CAUGHT = {
    "martingale": set(FIELD_FAULTS) - {"U=0"},
    "two_barrier": set(FIELD_FAULTS) - {"terminal+0.1", "U=0"},
    "two_barrier_driven": set(FIELD_FAULTS) - {"terminal+0.1"},
    "two_barrier_driven/F=2-t": set(FIELD_FAULTS) - {"terminal+0.1"},
    "tree_barrier": set(FIELD_FAULTS),
}


@pytest.mark.parametrize("config", sorted(FAULT_CONFIGS))
def test_tree_field_faults_caught_on_sampled_paths_still_fail(config):
    exp, backend, seq = solved_run(FAULT_CONFIGS[config])
    args = (backend, exp.phi, exp.psi, exp.gen, exp.solver.p)
    assert all(r.passed for r in verify.verify_run(seq, *args))
    finest = exp.solver.eps_schedule[-1]
    failing = {}
    for name, fault in FIELD_FAULTS.items():
        solutions = {
            eps: fault(sol) if eps == finest or not name.endswith("/finest") else sol
            for eps, sol in seq.solutions.items()
        }
        reports = verify.verify_run(dataclasses.replace(seq, solutions=solutions), *args)
        failing[name] = {r.name for r in reports if not r.passed}
    assert {name for name, names in failing.items() if names} >= CAUGHT[config]
    if "terminal+0.1" not in CAUGHT[config]:
        # still escapes: no check reads Y_N against the terminal condition
        assert not failing["terminal+0.1"]
    if config == "two_barrier_driven/F=2-t":
        # the kill the exact node expectations add
        assert "variational[smoothed] q=2" in failing["Y*1.5"]


# (config, windows) under WINDOW_CELLS = 64 and WINDOW_MIN_STEPS = 2
WINDOW_LAYOUTS = {
    "merged-one-step-remainder": (tree_config(9, 16), [(0, 4), (4, 10)]),
    "merged-one-step-remainder-p1.5": (tree_config(9, 16, p=1.5), [(0, 4), (4, 10)]),
    "two-step-remainder": (tree_config(10, 16), [(0, 4), (4, 8), (8, 11)]),
    "two-step-windows": (
        tree_config(7, 64, eps_schedule=[0.1, 0.05, 0.025]), [(0, 2), (2, 4), (4, 8)]
    ),
    "mc": (mc_config(11, 300, eps_schedule=[0.1, 0.05]), [(0, 2), (2, 4), (4, 6), (6, 8), (8, 12)]),
    "tree-over-8192-paths": (tree_config(5, 9000), [(0, 2), (2, 6)]),
    "mc-over-8192-paths-p1.5": (mc_config(5, 9000, p=1.5), [(0, 2), (2, 6)]),
}


@pytest.mark.parametrize("case", sorted(WINDOW_LAYOUTS))
def test_windowed_reads_match_whole_arrays_bit_for_bit(monkeypatch, case):
    config, windows = WINDOW_LAYOUTS[case]
    monkeypatch.setattr(pathsmod, "WINDOW_CELLS", 64)
    monkeypatch.setattr(pathsmod, "WINDOW_MIN_STEPS", 2)
    exp, backend, seq = solved_run(config)
    bundle = backend.bundle
    assert bundle.windows() == windows
    _reports_match_the_oracle(exp, backend, seq)
    sols = list(seq.solutions.values())
    for gap, a, b in zip(seq.gaps, sols, sols[1:]):
        assert gap["z_gap"] == z_gap_oracle(a, b, bundle)


# (config, WINDOW_CELLS) with WINDOW_MIN_STEPS = 2: windows of 6 and 7
# steps whose last one is shorter or longer, and on deterministic noise
# one path, so 7 cells make 7 steps
SMOOTHED_WINDOW_CASES = {
    "mc-lsq": ({"scenario": "mc_martingale", "noise": {"paths": 300}}, 2100),
    "tree-lsq": ({"scenario": "martingale", "solver": {"ce": "lsq"}}, 3072),
    "deterministic-lsq": ({"scenario": "linear", "solver": {"ce": "lsq"}}, 7),
    "tree": ({"scenario": "two_barrier_driven", "noise": {"eval_paths": 512}}, 3072),
}


@pytest.mark.parametrize("case", sorted(SMOOTHED_WINDOW_CASES))
def test_smoothed_process_windows_match_the_smoothing_oracle(monkeypatch, case):
    config, cells = SMOOTHED_WINDOW_CASES[case]
    monkeypatch.setattr(pathsmod, "WINDOW_CELLS", cells)
    monkeypatch.setattr(pathsmod, "WINDOW_MIN_STEPS", 2)
    exp, backend, seq = solved_run(config)
    bundle, n = backend.bundle, exp.grid.steps
    windows = bundle.windows()
    widths = {b - a for a, b in windows[:-1]}
    assert len(widths) == 1 and windows[-1][1] - windows[-1][0] not in widths
    sol = seq.solutions[exp.solver.eps_schedule[-1]]
    tp = smoothed_midpoint_process(sol, backend)
    horizon = bundle.grid.horizon
    smooth_eps = min(max(4.0 * float(np.max(bundle.dt)), 0.05 * horizon), horizon)
    want = smoothing_operator_oracle(
        bundle, backend, [sol.level("Y", i) for i in range(n + 1)], smooth_eps
    )
    assert 0 < want.i_eps < n and tp.gamma == want.gamma
    for a, b in windows:
        e = min(b, n)
        for got, levels in zip(tp.steps(a, e), (want.N_levels, want.R_levels)):
            assert got.tobytes() == np.concatenate(levels[a:e]).tobytes()


@pytest.mark.parametrize("case", ["mc-lsq", "tree", "deterministic"])
def test_the_battery_reads_each_test_process_once_per_window(monkeypatch, case):
    config, cells = {**SMOOTHED_WINDOW_CASES, "deterministic": ({"scenario": "linear"}, 7)}[case]
    monkeypatch.setattr(pathsmod, "WINDOW_CELLS", cells)
    monkeypatch.setattr(pathsmod, "WINDOW_MIN_STEPS", 2)
    exp, backend, seq = solved_run(config)
    reads = Counter()

    def counted(make):
        def made(*args):
            tp = make(*args)

            def steps(a, e):
                reads[tp.label] += 1
                return tp.steps(a, e)

            return dataclasses.replace(tp, steps=steps)

        return made

    for name in ("zero_process", "reconstruction_process", "smoothed_midpoint_process"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    sol = seq.solutions[exp.solver.eps_schedule[-1]]
    battery(sol, backend, exp.phi, exp.psi, exp.gen, exp.solver.p)
    windows = len(backend.bundle.windows())
    assert windows > 1
    assert reads == {"zero": windows, "reconstruction": windows, "smoothed": windows}


def _verify_run_peak(config):
    # the solve stays outside the traced span; tracemalloc counts numpy's
    # buffers, so the figures do not depend on the machine
    exp, backend, seq = solved_run(config)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reports = verify.verify_run(seq, backend, exp.phi, exp.psi, exp.gen, exp.solver.p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 10 - 3 * (len(exp.solver.eps_schedule) == 1)
    return held - start, peak - start


def test_verify_run_memory_is_bounded():
    held, peak = _verify_run_peak(TREE_BARRIER)
    # one window of path arrays and two whole (paths, nodes) arrays, not
    # the run's (paths, nodes) fields: the peak is 3.27e6 bytes (5.06e6
    # with 256 KiB windows), gated 10% above it
    assert peak <= 3.59e6
    assert held <= 1e6


def test_verify_run_memory_on_regression_is_bounded():
    held, peak = _verify_run_peak(ORACLE_CASES["mc_regression"])
    # one window of 1000 x 16 path arrays; the smoothed process keeps its
    # per-date fits, not N and R levels of 1000 x 128.  The peak is
    # 2.03e6 bytes, gated 10% above it; N and R held whole with 256 KiB
    # windows read 6.32e6
    assert peak <= 2.23e6
    assert held <= 1e6


def _apriori_report(rate):
    res = execute(build_experiment({
        "scenario": "linear",
        "grid": {"T": 2, "steps": 8},
        "a_process": {"kind": "linear", "rate": rate},
    }))
    return next(r for r in res.reports if r.name == "apriori-bound")


@pytest.mark.parametrize("rate", [1.0, 6.0, 10.0, 1e20])
def test_apriori_bound_holds_while_the_clock_is_slow(rate):
    assert _apriori_report(rate).passed
