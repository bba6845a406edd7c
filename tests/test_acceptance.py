"""End-to-end acceptance battery.

Each test covers one advertised guarantee of the package and prints a
single verdict line (visible even under output capture), so a full run
reads as a scoreboard.  Tolerances here are the published ones, not the
tighter internal margins used by the unit suites.
"""

import json

import numpy as np

from bsvilab.cli import execute, main
from bsvilab.convex import (
    ConvexSpec,
    envelope,
    potential_value,
    resolvent,
    yosida_gradient,
)
from bsvilab.generators import GeneratorSpec
from bsvilab.paths import (
    IncreasingProcessSpec,
    NoiseModel,
    TimeGrid,
    accumulate_weights,
    build_paths,
)
from bsvilab.scenarios import SCENARIOS, build_experiment
from bsvilab.smoothing import smoothing_operator
from bsvilab.solver import (
    SolverConfig,
    make_backend,
    solve_sequence,
)
from bsvilab.verify import (
    check_contraction,
    default_tolerance,
    ito_report_from_solution,
)

from oracles import (
    abs_potential,
    indicator_potential,
    prox_oracle,
    quadratic_potential,
    reflection_oracle,
)

ZERO = ConvexSpec.zero()
ZERO_GEN = GeneratorSpec.from_expressions("0", "0")
ZERO_A = IncreasingProcessSpec.zero()

def _verdict(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    assert ok, detail or f"acceptance {num:02d} {label}"


def _weighted(bundle, gen=ZERO_GEN, cfg=SolverConfig()):
    return accumulate_weights(bundle, gen, cfg)


def _solve_scenario(overrides):
    exp = build_experiment(overrides)
    bundle = build_paths(exp.grid, exp.noise, exp.a_spec)
    bundle = _weighted(bundle, exp.gen, exp.solver)
    seq = solve_sequence(make_backend(bundle, exp.solver), exp.phi, exp.psi,
                         exp.gen, exp.terminal, exp.solver)
    return exp, bundle, seq


def test_acceptance_01_convex_kernels_match_grid_oracle(capsys):
    rng = np.random.default_rng(11)
    cases = [
        (ConvexSpec.quadratic(1.5), quadratic_potential(1.5), (-4.0, 4.0)),
        (ConvexSpec.abs_value(), abs_potential(), (-4.0, 4.0)),
        (ConvexSpec.interval(-1.0, 1.5), indicator_potential(-1.0, 1.5),
         (-1.0, 1.5)),
    ]
    worst_oracle = 0.0
    for spec, pot, _ in cases:
        ys = rng.uniform(-4.0, 4.0, 1000)
        es = rng.uniform(0.1, 2.0, 1000)
        got_j = np.array([float(resolvent(spec, e, np.array([y]))[0])
                          for y, e in zip(ys, es)])
        got_env = np.array([float(envelope(spec, e, np.array([y]))[0])
                            for y, e in zip(ys, es)])
        got_grad = np.array([float(yosida_gradient(spec, e, np.array([y]))[0])
                             for y, e in zip(ys, es)])
        ref = [prox_oracle(pot, e, y) for y, e in zip(ys, es)]
        ref_j = np.array([r[0] for r in ref])
        ref_env = np.array([r[1] for r in ref])
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(got_j - ref_j))),
            float(np.max(np.abs(got_env - ref_env))),
            float(np.max(np.abs(got_grad - (ys - ref_j) / es))),
        )

    # closed-form structural properties at the tighter gate
    worst_prop = 0.0
    for spec, _, dom in cases:
        x = rng.uniform(-4.0, 4.0, 1000)
        y = rng.uniform(-4.0, 4.0, 1000)
        e = rng.uniform(0.1, 2.0, 1000)
        d = rng.uniform(0.1, 2.0, 1000)
        for ee in (0.1, 0.7, 2.0):
            jx, jy = resolvent(spec, ee, x), resolvent(spec, ee, y)
            gx, gy = yosida_gradient(spec, ee, x), yosida_gradient(spec, ee, y)
            worst_prop = max(
                worst_prop,
                float(np.max(np.abs(jx - jy) - np.abs(x - y))),
                float(np.max(np.abs(gx - gy) - np.abs(x - y) / ee)),
                float(np.max(np.abs(
                    envelope(spec, ee, x)
                    - (np.square(x - jx) / (2 * ee) + potential_value(spec, jx))
                ))),
            )
        u = rng.uniform(dom[0], dom[1], 1000)
        for ee in (0.1, 0.7, 2.0):
            ju = resolvent(spec, ee, u)
            vals = (potential_value(spec, np.zeros(1))[0],
                    potential_value(spec, ju),
                    envelope(spec, ee, u),
                    potential_value(spec, u))
            worst_prop = max(
                worst_prop,
                abs(float(vals[0])),
                float(np.max(vals[1] - vals[2])),
                float(np.max(vals[2] - vals[3])),
            )
        # cross-eps monotone coupling of the gradients
        ge = np.array([float(yosida_gradient(spec, ee, np.array([uu]))[0])
                       for uu, ee in zip(x, e)])
        gd = np.array([float(yosida_gradient(spec, dd, np.array([vv]))[0])
                       for vv, dd in zip(y, d)])
        lhs = -(x - y) * (ge - gd)
        rhs = 0.5 * (e + d) * (ge ** 2 + gd ** 2)
        worst_prop = max(worst_prop, float(np.max(lhs - rhs)))

    ok = worst_oracle <= 1e-6 and worst_prop <= 1e-10
    _verdict(capsys, 1, "convex kernel vs grid oracle and closed-form laws",
             ok, f"oracle gap {worst_oracle:.3g}, property gap {worst_prop:.3g}")


def test_acceptance_02_indicator_gradient_formula_is_exact(capsys):
    y = np.linspace(-4.0, 4.0, 1000)
    ok = True
    for a, b in ((-1.0, 1.0), (-0.25, 2.0)):
        spec = ConvexSpec.interval(a, b)
        for e in (0.1, 0.5, 1.3):
            lhs = yosida_gradient(spec, e, y)
            rhs = (np.maximum(y - b, 0.0) - np.maximum(a - y, 0.0)) / e
            ok = ok and bool(np.array_equal(lhs, rhs))
    _verdict(capsys, 2, "two-sided barrier gradient formula exact on grid", ok)


def test_acceptance_03_martingale_is_reproduced_to_machine_precision(capsys):
    exp, bundle, seq = _solve_scenario({"scenario": "martingale"})
    sol = seq.solutions[0.1]
    worst_y = max(float(np.max(np.abs(sol.level("Y", i) - bundle.cell_values[a:b])))
                  for i, (a, b) in enumerate(zip(bundle.offsets, bundle.offsets[1:])))
    worst_z = float(np.max(np.abs(sol.Z - 1.0)))
    ito = ito_report_from_solution(sol, bundle, 2.0, 0.1,
                                   default_tolerance(bundle))
    ok = worst_y <= 1e-13 and worst_z <= 1e-13 and ito.worst_violation <= 1e-13
    _verdict(capsys, 3, "Brownian terminal recovered exactly on the tree", ok,
             f"dY {worst_y:.3g}, dZ {worst_z:.3g}, ito {ito.worst_violation:.3g}")


def test_acceptance_04_linear_generator_converges_first_order(capsys):
    errs = []
    for n in (50, 100, 200):
        _, _, seq = _solve_scenario(
            {"scenario": "linear", "grid": {"T": 1.0, "steps": n}})
        errs.append(abs(seq.solutions[0.1].y0 - np.exp(-1.0)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
    _verdict(capsys, 4, "linear driver error halves with the step", ok,
             f"ratios {r1:.3f}, {r2:.3f}")


def test_acceptance_05_reflection_error_scales_linearly_in_eps(capsys):
    exp, bundle, seq = _solve_scenario({"scenario": "reflection"})
    target = reflection_oracle(bundle.grid.nodes, -0.5, 1.0, 1.0)
    errs = []
    for e in exp.solver.eps_schedule:
        y = seq.solutions[e].paths(bundle)["Y"][0]
        errs.append(float(np.max(np.abs(y - target))))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    _verdict(capsys, 5, "penalized reflection error linear in eps", ok,
             f"sup errors {errs}, ratios {r1:.3f}, {r2:.3f}")


def test_acceptance_06_eps_gaps_are_nonincreasing_under_crn(capsys):
    ok = True
    detail = []
    for name in ("two_barrier", "two_barrier_driven"):
        exp, _, seq = _solve_scenario({"scenario": name})
        assert list(exp.solver.eps_schedule) == [0.1, 0.05, 0.025, 0.0125]
        gaps = [g["y_gap"] for g in seq.gaps]
        ok = ok and all(g1 >= g2 - 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
        detail.append(f"{name}: {gaps}")
    _verdict(capsys, 6, "eps-halving gaps nonincreasing (no fresh noise)", ok,
             "; ".join(detail))


def test_acceptance_07_variational_battery_passes_everywhere(capsys):
    failures = []
    for name in sorted(SCENARIOS):
        for p in (1.5, 2.5):
            res = execute(build_experiment({"scenario": name,
                                            "solver": {"p": p}}))
            batt = [r for r in res.reports
                    if r.name.startswith(("variational",
                                          "reconstruction-collapse"))]
            names = [r.name for r in batt]
            # one q = 2 report per process, whose Gamma shift is 0 at
            # every delta, and every delta at q = min(p, 2) < 2
            labels = ("zero", "reconstruction", "smoothed")
            assert [n for n in names if " q=2" in n] == [
                f"variational[{label}] q=2" for label in labels
            ]
            if p < 2.0:
                for label in labels:
                    for d in (1.0, 0.1, 0.01):
                        assert f"variational[{label}] q={p:g} delta={d:g}" in names
            failures.extend(f"{name} p={p} {r.name}" for r in batt
                            if not r.passed)
    _verdict(capsys, 7, "comparison-inequality battery on all scenarios",
             not failures, "; ".join(failures[:4]))


def test_acceptance_08_contraction_mirror_and_terminal_shift(capsys):
    _, bundle, seq_a = _solve_scenario({"scenario": "linear"})
    _, _, seq_b = _solve_scenario({"scenario": "linear"})
    same = check_contraction(seq_a.solutions[0.1], seq_b.solutions[0.1],
                             bundle, 2.0, tol=default_tolerance(bundle))

    grid = TimeGrid.uniform(1.0, 64)
    tree = _weighted(build_paths(grid, NoiseModel.binomial_tree(seed=1),
                                 ZERO_A))
    cfg = SolverConfig(eps_schedule=(0.1,))
    backend = make_backend(tree, cfg)
    base = solve_sequence(backend, ZERO, ZERO, ZERO_GEN, lambda b, a: b, cfg)
    worst_shift = 0.0
    for h in (1e-3, 1e-2):
        bumped = solve_sequence(backend, ZERO, ZERO, ZERO_GEN,
                                lambda b, a: b + h, cfg)
        gap = abs(bumped.solutions[0.1].y0 - base.solutions[0.1].y0)
        worst_shift = max(worst_shift, abs(gap - h))
    ok = same.passed and worst_shift <= 1e-15
    _verdict(capsys, 8, "uniqueness mirror and exact terminal shift", ok,
             f"identical pair worst {same.worst_violation:.3g}, "
             f"shift defect {worst_shift:.3g}")


def test_acceptance_09_smoothing_operator_bounds(capsys):
    tree = _weighted(build_paths(TimeGrid.uniform(1.0, 8),
                                 NoiseModel.binomial_tree(seed=0), ZERO_A))
    backend = make_backend(tree, SolverConfig())

    const = np.full(45, 3.0)  # levels of 1, ..., 9 nodes
    sm = smoothing_operator(backend, const, 0.2)
    fixed = float(np.max(np.abs(sm.M - 3.0)))

    rng = np.random.default_rng(23)
    sup_defect = -np.inf
    for _ in range(100):
        v = rng.uniform(-3.0, 3.0, 4)
        u = np.concatenate([np.full(i + 1, v[min(3, (4 * i) // 9)]) for i in range(9)])
        eps = float(rng.choice([0.05, 0.1, 0.3]))
        sm = smoothing_operator(backend, u, eps)
        sup_u = float(np.max(np.abs(u)))
        sup_m = float(np.max(np.abs(sm.M)))
        sup_defect = max(sup_defect, sup_m - sup_u)

    det = _weighted(build_paths(TimeGrid.uniform(1.0, 1000),
                                NoiseModel.deterministic(), ZERO_A))
    dbackend = make_backend(det, SolverConfig())
    t = det.grid.nodes
    sm = smoothing_operator(dbackend, t.copy(), 0.01)  # one node per level
    root = np.sqrt(sm.scale)
    modulus_bound = root * 1.0 + 2.0 * np.exp(1.0 - 1.0 / root) * 1.0
    modulus = max(float(np.max(np.abs(sm.level("M", i) - ti)))
                  for i, ti in enumerate(t))

    ok = fixed <= 1e-12 and sup_defect <= 1e-12 and modulus <= modulus_bound
    _verdict(capsys, 9, "smoothing fixed point, sup bound, modulus bound", ok,
             f"fixed {fixed:.3g}, sup defect {sup_defect:.3g}, "
             f"modulus {modulus:.3g} vs {modulus_bound:.3g}")


def test_acceptance_11_rerun_is_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "mc_martingale",
                               "noise": {"paths": 1000}, "seed": 9}))
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "results.csv").read_bytes())
    _verdict(capsys, 11, "same config and seed give byte-identical results",
             outs[0] == outs[1])
