"""Discrete verification of the variational inequality and its companions.

A candidate pair (Y, Z) with penalty density U is tested against smooth
test processes M_t = gamma - int N dQ + int R dB.  With
Gamma_r = sqrt(|M_r - Y_r|^2 + delta_q) the inequality checked on every
grid interval [t_i, t_j], path-averaged, is

    Gamma_i^q + q(q-1)/2 sum Gamma^{q-2} |R - Z|^2 dt
              + q sum Gamma^{q-2} Psi(r, Y) dQ
    <=  Gamma_j^q + q sum Gamma^{q-2} Psi(r, M) dQ
              + q sum Gamma^{q-2} <M - Y, N - H(r, Y, Z)> dQ
              - q sum Gamma^{q-2} <M - Y, (R - Z) dB>

for q = 2 and q = min(p, 2), delta in (0, 1].  For penalized solutions
the potential Psi is evaluated through its Moreau envelope at the
solver's eps: the penalized pair solves the smooth equation with that
envelope exactly, and the envelope increases to the true potential as
eps drops, so this is the finite-eps rendition of the same inequality.
Raw potentials are used when no penalization level is given.

Companion checks: the norm-power transformation identity along paths,
the weighted contraction between two solutions, and the a-priori bound
with a frozen fitted constant.  verify_run is the plan of a run: it
picks every check, exponent and gate, and names every report.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import rng as rngmod
from .convex import ConvexSpec, envelope, potential_value
from .errors import DomainError, GridMismatch, InfinitePotential
from .generators import GeneratorSpec, combined_driver, driver_f, driver_g
from .paths import PathBundle, gamma_shift
from .solver import SequenceResult, SmoothingConfig, SolutionField, smoothing_operator

# fitted once on the martingale reference scenarios (p in 1.5 .. 2.5,
# where the largest observed lhs/rhs ratios stay below 2.8 and 1.7),
# then frozen
APRIORI_C_FIT = 4.0
ENERGY_C_FIT = 4.0
# the gate of every interval check: C_DT * max(dt) + C_MC / sqrt(paths)
C_DT = 5.0
C_MC = 5.0
# the battery's Gamma shifts, and the shift of the Ito identity check
DELTAS = (1.0, 0.1, 0.01)
ITO_DELTA = 0.1


@dataclass(frozen=True)
class TestProcess:
    """Smooth comparison process given by (gamma, N, R) per step.

    M is defined by the exact reconstruction
    M_0 = gamma, M_{i+1} = M_i - N_i dQ_i + R_i dB_i.
    """

    gamma: float
    N: np.ndarray
    R: np.ndarray
    label: str = "test"

    def materialize(self, bundle: PathBundle) -> np.ndarray:
        n = bundle.grid.steps
        if self.N.shape != bundle.dB.shape or self.R.shape != bundle.dB.shape:
            raise GridMismatch("test process arrays do not match the bundle's paths")
        m = np.empty((bundle.n_paths, n + 1))
        m[:, 0] = self.gamma
        steps = -self.N * bundle.dq + self.R * bundle.dB
        m[:, 1:] = self.gamma + np.cumsum(steps, axis=1)
        return m


@dataclass
class VerificationReport:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    monitors: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "tolerance": float(self.tolerance),
            "monitors": {k: float(v) for k, v in self.monitors.items()},
        }


def default_tolerance(bundle: PathBundle) -> float:
    """C_DT * max(dt) + C_MC / sqrt(paths): discretization plus sampling."""
    return float(C_DT * np.max(bundle.dt) + C_MC / np.sqrt(bundle.n_paths))


def _pair_max(a: np.ndarray) -> float:
    """max over i < j of a_i - a_j along the last axis."""
    suffix_min = np.minimum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]
    return float(np.max(a[..., :-1] - suffix_min[..., 1:]))


def _pair_range(a: np.ndarray) -> float:
    """max over i < j of |a_i - a_j| along the last axis."""
    return float(np.max(np.max(a, axis=-1) - np.min(a, axis=-1)))


def _potential_on_paths(spec: ConvexSpec, x: np.ndarray, eps_pen: Optional[float]):
    if eps_pen is None:
        return potential_value(spec, x)
    return envelope(spec, eps_pen, x)


def _mixed_potential(phi, psi, alpha, x, eps_pen):
    """alpha phi(x) + (1 - alpha) psi(x) with 0 * inf treated as 0."""
    vp = _potential_on_paths(phi, x, eps_pen)
    vq = _potential_on_paths(psi, x, eps_pen)
    with np.errstate(invalid="ignore"):
        left = np.where(alpha > 0.0, alpha * vp, 0.0)
        right = np.where(alpha < 1.0, (1.0 - alpha) * vq, 0.0)
    return left + right


def candidate_terms(
    sol: SolutionField,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    bundle: PathBundle,
    penalization_eps: Optional[float] = None,
) -> tuple:
    """(H(t, Y, Z), Psi(t, Y)) on the bundle's paths, one column per step.

    These are the terms of the variational inequality that depend on the
    candidate alone, not on the test process.  The driver is evaluated
    step by step because F and G are only promised a scalar time.
    """
    pw = sol.paths(bundle)
    y, z = pw["Y"], pw["Z"]
    t = bundle.grid.nodes
    alpha = bundle.alpha
    h_fresh = np.empty_like(z)
    for r in range(bundle.grid.steps):
        h_fresh[:, r] = combined_driver(gen, alpha[r], t[r], y[:, r], z[:, r])
    psi_y = _mixed_potential(phi, psi, alpha, y[:, :-1], penalization_eps)
    return h_fresh, psi_y


def process_terms(
    sol: SolutionField,
    tp: TestProcess,
    phi: ConvexSpec,
    psi: ConvexSpec,
    bundle: PathBundle,
    penalization_eps: Optional[float] = None,
) -> tuple:
    """(M - Y, Psi(t, M), R - Z) on the bundle's paths for one test process.

    These are the terms of the variational inequality that depend on the
    test process but not on (q, delta).  A test process that leaves the
    domain of a raw potential makes the inequality vacuous and raises
    InfinitePotential here.
    """
    pw = sol.paths(bundle)
    m = tp.materialize(bundle)
    psi_m = _mixed_potential(phi, psi, bundle.alpha, m[:, :-1], penalization_eps)
    if penalization_eps is None and np.any(np.isinf(psi_m)):
        raise InfinitePotential(
            "test process leaves the domain of the potential, inequality is vacuous"
        )
    return m - pw["Y"], psi_m, tp.R - pw["Z"]


def _variational_name(tp: TestProcess, q: float, delta: float) -> str:
    return f"variational[{tp.label}] q={q:g} delta={delta:g}"


def check_variational_inequality(
    sol: SolutionField,
    tp: TestProcess,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    bundle: PathBundle,
    q: float,
    delta: float,
    tol: Optional[float] = None,
    penalization_eps: Optional[float] = None,
    *,
    terms: Optional[tuple] = None,
    process: Optional[tuple] = None,
) -> VerificationReport:
    """Worst interval residual of the variational inequality, path-averaged.

    terms is candidate_terms(...) and process is process_terms(...) at
    the same penalization_eps, for callers that check one candidate
    against many test processes and exponents; each is computed here
    when not given.
    """
    if not (1.0 < q <= 2.0):
        raise DomainError(f"q must lie in (1, 2], got {q}")
    dq_shift = gamma_shift(delta, q)
    tol = default_tolerance(bundle) if tol is None else float(tol)
    h_used = sol.paths(bundle)["H"]
    dqs = bundle.dq
    dts = bundle.dt

    if process is None:
        process = process_terms(sol, tp, phi, psi, bundle, penalization_eps)
    m_minus_y, psi_m, r_minus_z = process
    gamma = np.sqrt(m_minus_y ** 2 + dq_shift)
    g_nodes = gamma**q
    g_pow = gamma[:, :-1] ** (q - 2.0)

    if terms is None:
        terms = candidate_terms(sol, phi, psi, gen, bundle, penalization_eps)
    h_fresh, psi_y = terms

    diff = m_minus_y[:, :-1]
    incr = (
        0.5 * q * (q - 1.0) * g_pow * r_minus_z ** 2 * dts
        + q * g_pow * psi_y * dqs
        - q * g_pow * psi_m * dqs
        - q * g_pow * diff * (tp.N - h_fresh) * dqs
        + q * g_pow * diff * r_minus_z * bundle.dB
    )
    a = np.mean(g_nodes, axis=0).copy()
    a[1:] -= np.cumsum(np.mean(incr, axis=0))
    worst = _pair_max(a)

    monitors = {
        "gamma_floor_margin": float(np.min(gamma) - np.sqrt(dq_shift)),
        "terminal_gamma_sq_minus_shift": float(np.mean(gamma[:, -1] ** 2) - dq_shift),
        "driver_eval_gap": float(np.max(np.abs(h_used - h_fresh))),
    }
    return VerificationReport(
        name=_variational_name(tp, q, delta),
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=tol,
        monitors=monitors,
    )


def check_ito_identity(
    y_paths: np.ndarray,
    drift_incr: np.ndarray,
    r_paths: np.ndarray,
    bundle: PathBundle,
    p: float,
    delta: float,
    tol: float,
    pathwise: bool = False,
) -> VerificationReport:
    """Residual of the norm-power transformation identity.

    The semimartingale is Y_{i+1} = Y_i - D_i + R_i dB_i with drift
    increments D_i playing the role of F dr.  The squared-variation
    integral is realized as sum R^2 dt and the stochastic integral as
    sum <Y, R dB>; on the binomial lattice (dB)^2 = dt makes the p = 2,
    delta = 0 form an algebraic identity per path, so callers pass
    pathwise=True when they know the expectations were exact on a
    lattice.  Otherwise (Monte Carlo paths, where dB^2 fluctuates around
    dt, or regression values, which do not reconstruct exactly path by
    path) the identity holds only after averaging, and the residual is
    the worst interval gap of the path-averaged profile.
    """
    if p < 2.0 and delta <= 0.0:
        raise DomainError("delta > 0 is required for p < 2")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    n = bundle.grid.steps
    if y_paths.shape[1] != n + 1 or drift_incr.shape[1] != n or r_paths.shape[1] != n:
        raise GridMismatch("path arrays do not conform to the bundle's grid")
    yl = y_paths[:, :-1]
    base = yl * yl + delta
    v_nodes = (y_paths * y_paths + delta) ** (p / 2.0)
    if p == 2.0:
        quad = r_paths * r_paths * bundle.dt
        weight = np.ones_like(base)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = (
                0.5
                * p
                * np.where(
                    base > 0.0,
                    base ** ((p - 4.0) / 2.0)
                    * ((p - 1.0) * r_paths**2 * yl**2 + delta * r_paths**2),
                    0.0,
                )
                * bundle.dt
            )
            weight = np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)
    incr = quad - p * weight * yl * drift_incr + p * weight * yl * r_paths * bundle.dB
    a = v_nodes.copy()
    a[:, 1:] -= np.cumsum(incr, axis=1)
    if not pathwise:
        a = np.mean(a, axis=0, keepdims=True)
    worst = _pair_range(a)
    return VerificationReport(
        name=f"ito-identity p={p:g} delta={delta:g}",
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=float(tol),
        monitors={"mean_abs_residual": float(np.mean(np.abs(a - a[:, :1])))},
    )


def ito_report_from_solution(
    sol: SolutionField, bundle: PathBundle, p: float, delta: float, tol: float
) -> VerificationReport:
    pw = sol.paths(bundle)
    drift = (pw["H"] - pw["U"]) * bundle.dq
    return check_ito_identity(
        pw["Y"], drift, pw["Z"], bundle, p, delta, tol, pathwise=sol.lattice
    )


def check_contraction(
    sol_a: SolutionField,
    sol_b: SolutionField,
    bundle: PathBundle,
    q: float,
    tol: float,
) -> VerificationReport:
    """Backward submartingale test of the weighted gap.

    For two solutions of the same data the weighted gap
    mean[e^{qV_i} |Y^a_i - Y^b_i|^q] may not exceed its value at any
    later node by more than tol.  Identical inputs give gap 0; a pure
    terminal perturbation with zero drivers propagates unchanged.
    """
    if bundle.V is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    pa = sol_a.paths(bundle)["Y"]
    pb = sol_b.paths(bundle)["Y"]
    profile = np.mean(
        np.exp(q * bundle.V) * np.abs(pa - pb) ** q, axis=0
    )
    worst = _pair_max(profile)
    return VerificationReport(
        name=f"contraction eps {sol_a.eps:g} vs {sol_b.eps:g}",
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=float(tol),
        monitors={
            "initial_gap": float(np.abs(sol_a.y0 - sol_b.y0)),
            "terminal_gap": float(np.mean(np.abs(pa[:, -1] - pb[:, -1]))),
            # continuity diagnostic, reported but never gated
            "gap_ratio": float(
                np.abs(sol_a.y0 - sol_b.y0)
                / max(np.mean(np.abs(pa[:, -1] - pb[:, -1])), 1e-300)
            ),
        },
    )


def driver_at_zero(gen: GeneratorSpec, bundle: PathBundle) -> tuple:
    """(|F(t,0,0)|, |G(t,0)|) at the left node of every step, F and G checked.

    The a-priori and energy bounds share these source terms; callers
    that run both compute them once and hand them to each.
    """
    t = bundle.grid.nodes[:-1]
    f0 = np.array([np.abs(float(driver_f(gen, ti, 0.0, 0.0))) for ti in t])
    g0 = np.array([np.abs(float(driver_g(gen, ti, 0.0))) for ti in t])
    return f0, g0


def _driver_source(
    gen: GeneratorSpec, bundle: PathBundle, v: np.ndarray, power, at_zero: Optional[tuple]
) -> float:
    """(sum e^{v}(|F(t,0,0)| dt + |G(t,0)| dA))^power over the grid steps.

    at_zero is driver_at_zero(gen, bundle), computed here when None.
    """
    f0, g0 = driver_at_zero(gen, bundle) if at_zero is None else at_zero
    return float(np.sum(np.exp(v[:-1]) * (f0 * bundle.dt + g0 * bundle.dA)) ** power)


def check_apriori_bound(
    sol: SolutionField,
    bundle: PathBundle,
    gen: GeneratorSpec,
    terminal_values: np.ndarray,
    p: float,
    *,
    at_zero: Optional[tuple] = None,
) -> VerificationReport:
    """Path-averaged a-priori estimate with a frozen fitted constant.

    mean[max_i e^{pV_i}|Y_i|^p] + mean[(sum e^{2V}|Z|^2 dt)^{p/2}]
    <= APRIORI_C_FIT * ( mean[e^{pV_N}|eta|^p]
                         + mean[(sum e^{V}(|F(t,0,0)| dt + |G(t,0)| dA))^p] ).

    at_zero is driver_at_zero(gen, bundle), computed here when not given.
    """
    if bundle.V is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    pw = sol.paths(bundle)
    v = bundle.V
    lhs = float(
        np.mean(np.max(np.exp(p * v) * np.abs(pw["Y"]) ** p, axis=1))
        + np.mean(np.sum(np.exp(2.0 * v[:-1]) * pw["Z"] ** 2 * bundle.dt, axis=1) ** (p / 2.0))
    )
    source = _driver_source(gen, bundle, v, p, at_zero)
    rhs = float(np.mean(np.exp(p * v[-1]) * np.abs(terminal_values) ** p) + source)
    margin = APRIORI_C_FIT * rhs - lhs
    return VerificationReport(
        name="apriori-bound",
        passed=bool(lhs <= APRIORI_C_FIT * rhs * (1.0 + 1e-12) + 1e-12),
        worst_violation=float(lhs - APRIORI_C_FIT * rhs),
        tolerance=0.0,
        monitors={"lhs": lhs, "rhs": rhs, "c_fit": APRIORI_C_FIT, "margin": float(margin)},
    )


def check_energy_bound(
    sol: SolutionField,
    bundle: PathBundle,
    gen: GeneratorSpec,
    terminal_values: np.ndarray,
    *,
    at_zero: Optional[tuple] = None,
) -> VerificationReport:
    """Positive-part weighted energy estimate with a frozen fitted constant.

    mean[max_i e^{2Vplus_i}|Y_i|^2]
    <= ENERGY_C_FIT * ( mean[e^{2Vplus_N}|eta|^2]
                        + mean[(sum e^{Vplus}(|F(t,0,0)| dt + |G(t,0)| dA))^2] ).

    at_zero is driver_at_zero(gen, bundle), computed here when not given.
    """
    if bundle.Vplus is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    pw = sol.paths(bundle)
    v = bundle.Vplus
    lhs = float(np.mean(np.max(np.exp(2.0 * v) * pw["Y"] ** 2, axis=1)))
    source = _driver_source(gen, bundle, v, 2, at_zero)
    rhs = float(np.mean(np.exp(2.0 * v[-1]) * terminal_values**2) + source)
    return VerificationReport(
        name="energy-bound",
        passed=bool(lhs <= ENERGY_C_FIT * rhs * (1.0 + 1e-12) + 1e-12),
        worst_violation=float(lhs - ENERGY_C_FIT * rhs),
        tolerance=0.0,
        monitors={"lhs": lhs, "rhs": rhs, "c_fit": ENERGY_C_FIT},
    )


def penalty_monotonicity(
    sol_a: SolutionField, sol_b: SolutionField, bundle: PathBundle
) -> float:
    """sum_i mean <Y^a - Y^b, U^a - U^b> dQ_i, near-nonnegative for a
    monotone penalty pair (up to the eps + eps' cross term)."""
    pa, pb = sol_a.paths(bundle), sol_b.paths(bundle)
    dy = pa["Y"][:, :-1] - pb["Y"][:, :-1]
    du = pa["U"] - pb["U"]
    return float(np.sum(np.mean(dy * du, axis=0) * bundle.dq))


def zero_process(bundle: PathBundle) -> TestProcess:
    shape = bundle.dB.shape
    return TestProcess(0.0, np.zeros(shape), np.zeros(shape), label="zero")


def reconstruction_process(sol: SolutionField, bundle: PathBundle) -> TestProcess:
    """The solution's own (terminal, driver-minus-penalty) reconstruction."""
    pw = sol.paths(bundle)
    return TestProcess(
        float(pw["Y"][0, 0]), pw["H"] - pw["U"], pw["Z"], label="reconstruction"
    )


def smoothed_midpoint_process(sol: SolutionField, bundle: PathBundle, backend) -> TestProcess:
    """Exponential smoothing of the solution itself at scale
    max(4 max(dt), T/20), capped at T for grids of a few steps."""
    horizon = bundle.grid.horizon
    smooth_eps = min(max(4.0 * float(np.max(bundle.dt)), 0.05 * horizon), horizon)
    sm = smoothing_operator(bundle, backend, sol.Y_levels, SmoothingConfig(smooth_eps))
    return TestProcess(
        sm.gamma, sol.expand(bundle, sm.N_levels), sol.expand(bundle, sm.R_levels),
        label="smoothed",
    )


def random_step_process(
    bundle: PathBundle, seed: int, scale: float = 1.0, index: int = 0
) -> TestProcess:
    """Piecewise-constant (N, R) with Gaussian values on 8 blocks, for probing."""
    gen = rngmod.aux_stream(seed, 1000 + index)
    n = bundle.grid.steps
    edges = np.linspace(0, n, 9).astype(int)
    nn = np.zeros(n)
    rr = np.zeros(n)
    for k in range(8):
        nn[edges[k]:edges[k + 1]] = scale * gen.standard_normal()
        rr[edges[k]:edges[k + 1]] = scale * gen.standard_normal()
    gamma = float(scale * gen.standard_normal())
    shape = bundle.dB.shape
    return TestProcess(
        gamma,
        np.broadcast_to(nn, shape).copy(),
        np.broadcast_to(rr, shape).copy(),
        label=f"random-step-{index}",
    )


def battery(
    sol: SolutionField,
    bundle: PathBundle,
    backend,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    p: float,
) -> list:
    """Three-way test-process battery at q = 2 and q = min(p, 2).

    Processes: the zero process, the solution's own reconstruction, and
    the smoothing of the solution's midpoints, each at every delta of
    DELTAS, gated at default_tolerance(bundle).  Potentials are taken at
    the solution's penalization level; the candidate's own terms H and
    Psi(Y) are evaluated once and shared by every check, and each test
    process's terms once and shared by its checks.  Each (process, q,
    Gamma shift) is evaluated once: at q = 2 the shift is 0 for every
    delta, so the later deltas get renamed copies of the first report.
    Also reports the collapse of the reconstruction Gamma to the delta_q
    floor (the strong solution seen through the inequality).
    """
    tol = default_tolerance(bundle)
    recon = reconstruction_process(sol, bundle)
    processes = [
        zero_process(bundle),
        recon,
        smoothed_midpoint_process(sol, bundle, backend),
    ]
    q_values = sorted({2.0, min(float(p), 2.0)})
    terms = candidate_terms(sol, phi, psi, gen, bundle, sol.eps)
    reports = []
    for tp in processes:
        process = process_terms(sol, tp, phi, psi, bundle, sol.eps)
        for q in q_values:
            # a report depends on delta only through gamma_shift and its name
            by_shift = {}
            for delta in DELTAS:
                shift = gamma_shift(delta, q)
                first = by_shift.get(shift)
                if first is None:
                    rep = by_shift[shift] = check_variational_inequality(
                        sol, tp, phi, psi, gen, bundle, q, delta,
                        tol=tol, penalization_eps=sol.eps, terms=terms, process=process,
                    )
                else:
                    rep = replace(
                        first,
                        name=_variational_name(tp, q, delta),
                        monitors=dict(first.monitors),
                    )
                reports.append(rep)
        if tp is recon:
            collapse = float(np.max(np.mean(process[0] ** 2, axis=0)))
        del process  # one process's path arrays at a time
    reports.append(
        VerificationReport(
            name="reconstruction-collapse",
            passed=bool(collapse <= tol),
            worst_violation=collapse,
            tolerance=tol,
            monitors={},
        )
    )
    return reports


def verify_run(seq: SequenceResult, backend, phi, psi, gen: GeneratorSpec, p: float) -> list:
    """Every check of one solved run, in the order verify.json lists them.

    The battery and the Ito identity at ITO_DELTA on the finest eps; the
    contraction of each adjacent eps pair at q = min(p, 2), which lies in
    (1, 2] for every p > 1, gated at max(tol, 2 (eps + eps')) for the
    penalization cross term; then the a-priori and energy bounds on the
    finest solution's terminal values, sharing one driver_at_zero.  tol
    is default_tolerance(backend.bundle).
    """
    bundle = backend.bundle
    tol = default_tolerance(bundle)
    sols = list(seq.solutions.values())
    final = sols[-1]
    reports = battery(final, bundle, backend, phi, psi, gen, p)
    reports.append(ito_report_from_solution(final, bundle, p, ITO_DELTA, tol))
    q = min(p, 2.0)
    for coarse, fine in zip(sols, sols[1:]):
        gate = max(tol, 2.0 * (coarse.eps + fine.eps))
        reports.append(check_contraction(coarse, fine, bundle, q, gate))
    terminal_values = final.paths(bundle)["Y"][:, -1]
    at_zero = driver_at_zero(gen, bundle)
    reports.append(check_apriori_bound(final, bundle, gen, terminal_values, p, at_zero=at_zero))
    reports.append(check_energy_bound(final, bundle, gen, terminal_values, at_zero=at_zero))
    return reports
