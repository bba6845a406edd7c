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

Every check reads the evaluation paths one window of steps at a time
(PathBundle.windows) and keeps across windows only what its report
needs: per-node and per-step path means, running per-path extremes, and
the carry of a running sum.  Two reductions run along whole paths and
keep one (paths, nodes) array each: the time sum of the a-priori bound
and the pathwise mean residual of the Ito identity.  A check called on
whole arrays is the one-window case of the same code.
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
    N and R are (paths, steps) arrays, or callables (a, e) -> their
    columns on the steps [a, e), for processes read from levels one
    window at a time.
    """

    gamma: float
    N: object
    R: object
    label: str = "test"

    def check_shape(self, bundle: PathBundle) -> None:
        if any(not callable(x) and np.shape(x) != bundle.dB.shape for x in (self.N, self.R)):
            raise GridMismatch("test process arrays do not match the bundle's paths")

    def steps(self, a: int, e: int) -> tuple:
        """(N, R) on the steps [a, e)."""
        return tuple(x(a, e) if callable(x) else x[:, a:e] for x in (self.N, self.R))


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


def _running_sum(x: np.ndarray, carry: Optional[np.ndarray], nodes: int) -> tuple:
    """Sums of the step columns x through the step before each node of a window.

    carry is the last column of the sums of the windows before, None in
    the first window.  Returns (sums, carry): sums belong to the last
    columns of the window's nodes, all of them after the first window,
    all but node 0 in it.  Prepending the carry column repeats the whole
    array's sequential cumsum bit for bit; adding the carry to a fresh
    cumsum would not.
    """
    if carry is not None:
        x = np.concatenate([carry, x], axis=1)
    sums = np.cumsum(x, axis=1)
    return sums[:, : nodes - (carry is None)], sums[:, -1:].copy()


def _level_gaps(x_levels: list, y_levels: list, a: int, b: int) -> list:
    """x - y on the levels a, ..., b - 1 that exist.  Elementwise arithmetic
    commutes with gathering onto paths, so one gather of the gaps gives
    the bytes of two gathers and a subtraction on the paths."""
    return [x - y for x, y in zip(x_levels[a:b], y_levels[a:b])]


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


@dataclass
class _Profile:
    """What one variational check keeps of the windows: path means per
    node of Gamma^q and per step of the increment, and its monitors."""

    node_means: list = field(default_factory=list)
    step_means: list = field(default_factory=list)
    gamma_min: float = np.inf
    terminal_sq: float = np.nan  # mean Gamma_N^2
    driver_gap: float = -np.inf  # max |H used - H(t, Y, Z)|


def _variational_profiles(
    sol: SolutionField,
    processes: list,
    shifts: list,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    bundle: PathBundle,
    penalization_eps: Optional[float],
    collapse: Optional[int] = None,
) -> tuple:
    """The profiles of every check (process, q, Gamma shift), in one pass
    over the windows.

    Per window, the candidate's own terms H(t, Y, Z) and Psi(t, Y) are
    evaluated once and shared by every check, and each test process's
    terms M - Y, Psi(t, M) and R - Z once and shared by its checks.  The
    driver is evaluated step by step because F and G are only promised a
    scalar time.  A test process that leaves the domain of a raw
    potential makes the inequality vacuous and raises InfinitePotential.
    Returns ({(k, q, shift): _Profile} for processes[k] and every
    (q, shift) of shifts, the largest per-node path mean of |M - Y|^2 of
    processes[collapse] or None).
    """
    for tp in processes:
        tp.check_shape(bundle)
    n = bundle.grid.steps
    t, alpha, dq, dt, dB = bundle.grid.nodes, bundle.alpha, bundle.dq, bundle.dt, bundle.dB
    profiles = {(k, q, s): _Profile() for k in range(len(processes)) for q, s in shifts}
    carries = [None] * len(processes)
    driver_gap = -np.inf
    collapse_means = []
    for a, b in bundle.windows():
        e = min(b, n)
        pw = sol.paths(bundle, (a, b), "YZH")
        y, z = pw["Y"], pw["Z"]
        h_fresh = np.empty_like(z)
        for r in range(a, e):
            h_fresh[:, r - a] = combined_driver(gen, alpha[r], t[r], y[:, r - a], z[:, r - a])
        psi_y = _mixed_potential(phi, psi, alpha[a:e], y[:, : e - a], penalization_eps)
        driver_gap = np.maximum(driver_gap, np.max(np.abs(pw["H"] - h_fresh)))
        for k, tp in enumerate(processes):
            n_steps, r_steps = tp.steps(a, e)
            sums, carries[k] = _running_sum(
                -n_steps * dq[a:e] + r_steps * dB[:, a:e], carries[k], b - a
            )
            m = np.empty_like(y)
            m[:, 0] = tp.gamma
            m[:, b - a - sums.shape[1]:] = tp.gamma + sums
            psi_m = _mixed_potential(phi, psi, alpha[a:e], m[:, : e - a], penalization_eps)
            if penalization_eps is None and np.any(np.isinf(psi_m)):
                raise InfinitePotential(
                    "test process leaves the domain of the potential, inequality is vacuous"
                )
            m_minus_y, r_minus_z = m - y, r_steps - z
            diff = m_minus_y[:, : e - a]
            for q, shift in shifts:
                gamma = np.sqrt(m_minus_y ** 2 + shift)
                g_pow = gamma[:, : e - a] ** (q - 2.0)
                incr = (
                    0.5 * q * (q - 1.0) * g_pow * r_minus_z ** 2 * dt[a:e]
                    + q * g_pow * psi_y * dq[a:e]
                    - q * g_pow * psi_m * dq[a:e]
                    - q * g_pow * diff * (n_steps - h_fresh) * dq[a:e]
                    + q * g_pow * diff * r_minus_z * dB[:, a:e]
                )
                prof = profiles[k, q, shift]
                prof.node_means.append(np.mean(gamma**q, axis=0))
                prof.step_means.append(np.mean(incr, axis=0))
                prof.gamma_min = np.minimum(prof.gamma_min, np.min(gamma))
                if b == n + 1:
                    prof.terminal_sq = np.mean(gamma[:, -1] ** 2)
            if k == collapse:
                collapse_means.append(np.mean(m_minus_y ** 2, axis=0))
    for prof in profiles.values():
        prof.driver_gap = driver_gap
    worst_collapse = float(np.max(np.concatenate(collapse_means))) if collapse_means else None
    return profiles, worst_collapse


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
    profile: Optional[_Profile] = None,
) -> VerificationReport:
    """Worst interval residual of the variational inequality, path-averaged.

    profile is this check's entry of _variational_profiles(...) at the
    same penalization_eps, for callers that check one candidate against
    many test processes and exponents in one pass over the windows; it
    is gathered here when not given.
    """
    if not (1.0 < q <= 2.0):
        raise DomainError(f"q must lie in (1, 2], got {q}")
    dq_shift = gamma_shift(delta, q)
    tol = default_tolerance(bundle) if tol is None else float(tol)
    if profile is None:
        profiles, _ = _variational_profiles(
            sol, [tp], [(q, dq_shift)], phi, psi, gen, bundle, penalization_eps
        )
        profile = profiles[0, q, dq_shift]
    a = np.concatenate(profile.node_means)
    a[1:] -= np.cumsum(np.concatenate(profile.step_means))
    worst = _pair_max(a)

    monitors = {
        "gamma_floor_margin": float(profile.gamma_min - np.sqrt(dq_shift)),
        "terminal_gamma_sq_minus_shift": float(profile.terminal_sq - dq_shift),
        "driver_eval_gap": float(profile.driver_gap),
    }
    return VerificationReport(
        name=_variational_name(tp, q, delta),
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=tol,
        monitors=monitors,
    )


def _ito_report(
    windows, bundle: PathBundle, p: float, delta: float, tol: float, pathwise: bool
) -> VerificationReport:
    """The Ito identity's report from windows ((a, b), Y, D, R) in grid order."""
    if p < 2.0 and delta <= 0.0:
        raise DomainError("delta > 0 is required for p < 2")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    n = bundle.grid.steps
    dt, dB = bundle.dt, bundle.dB
    carry = None
    means = []  # per-node path means, when averaged
    high, low = -np.inf, np.inf  # per-path extremes, when pathwise
    residual = np.empty((bundle.n_paths, n + 1)) if pathwise else None
    for (a, b), y_paths, drift_incr, r_paths in windows:
        e = min(b, n)
        yl = y_paths[:, : e - a]
        base = yl * yl + delta
        acc = (y_paths * y_paths + delta) ** (p / 2.0)
        if p == 2.0:
            quad = r_paths * r_paths * dt[a:e]
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
                    * dt[a:e]
                )
                weight = np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)
        incr = quad - p * weight * yl * drift_incr + p * weight * yl * r_paths * dB[:, a:e]
        sums, carry = _running_sum(incr, carry, b - a)
        acc[:, b - a - sums.shape[1]:] -= sums
        if pathwise:
            if a == 0:
                start = acc[:, :1].copy()
            high = np.maximum(high, acc.max(axis=1))
            low = np.minimum(low, acc.min(axis=1))
            residual[:, a:b] = np.abs(acc - start)
        else:
            means.append(np.mean(acc, axis=0))
    if pathwise:
        worst = float(np.max(high - low))
    else:
        averaged = np.concatenate(means)[None]
        worst = _pair_range(averaged)
        residual = np.abs(averaged - averaged[:, :1])
    return VerificationReport(
        name=f"ito-identity p={p:g} delta={delta:g}",
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=float(tol),
        monitors={"mean_abs_residual": float(np.mean(residual))},
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
    the worst interval gap of the path-averaged profile.  The arrays
    here are one window that spans the grid.
    """
    n = bundle.grid.steps

    def whole():
        if y_paths.shape[1] != n + 1 or drift_incr.shape[1] != n or r_paths.shape[1] != n:
            raise GridMismatch("path arrays do not conform to the bundle's grid")
        yield (0, n + 1), y_paths, drift_incr, r_paths

    return _ito_report(whole(), bundle, p, delta, tol, pathwise)


def ito_report_from_solution(
    sol: SolutionField, bundle: PathBundle, p: float, delta: float, tol: float
) -> VerificationReport:
    """check_ito_identity on the solution's (Y, (H - U) dQ, Z), a window at a time."""
    dq = bundle.dq

    def windows():
        for a, b in bundle.windows():
            pw = sol.paths(bundle, (a, b), "YZ")
            drift = sol.expand(bundle, _level_gaps(sol.H_levels, sol.U_levels, a, b), a)
            yield (a, b), pw["Y"], drift * dq[a:b], pw["Z"]

    return _ito_report(windows(), bundle, p, delta, tol, pathwise=sol.lattice)


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
    terminal perturbation with zero drivers propagates unchanged.  Both
    solutions come from backends of one kind, so their levels subtract.
    """
    if bundle.V is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    if sol_a.backend_kind != sol_b.backend_kind:
        raise GridMismatch("the two solutions hold their levels in different formats")
    weight = np.exp(q * bundle.V)
    means = []
    for a, b in bundle.windows():
        gap = sol_a.expand(bundle, _level_gaps(sol_a.Y_levels, sol_b.Y_levels, a, b), a)
        means.append(np.mean(weight[a:b] * np.abs(gap) ** q, axis=0))
    worst = _pair_max(np.concatenate(means))
    terminal_gap = np.mean(np.abs(gap[:, -1]))
    return VerificationReport(
        name=f"contraction eps {sol_a.eps:g} vs {sol_b.eps:g}",
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=float(tol),
        monitors={
            "initial_gap": float(np.abs(sol_a.y0 - sol_b.y0)),
            "terminal_gap": float(terminal_gap),
            # continuity diagnostic, reported but never gated
            "gap_ratio": float(np.abs(sol_a.y0 - sol_b.y0) / max(terminal_gap, 1e-300)),
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
    v = bundle.V
    y_weight, z_weight, dt = np.exp(p * v), np.exp(2.0 * v[:-1]), bundle.dt
    y_max = -np.inf
    # the time sum runs along whole paths, so its terms are kept whole
    z_terms = np.empty(bundle.dB.shape)
    for a, b in bundle.windows():
        pw = sol.paths(bundle, (a, b), "YZ")
        y_max = np.maximum(y_max, np.max(y_weight[a:b] * np.abs(pw["Y"]) ** p, axis=1))
        z_terms[:, a:b] = z_weight[a:b] * pw["Z"] ** 2 * dt[a:b]
    lhs = float(np.mean(y_max) + np.mean(np.sum(z_terms, axis=1) ** (p / 2.0)))
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
    v = bundle.Vplus
    weight = np.exp(2.0 * v)
    y_max = -np.inf
    for a, b in bundle.windows():
        y = sol.paths(bundle, (a, b), "Y")["Y"]
        y_max = np.maximum(y_max, np.max(weight[a:b] * y ** 2, axis=1))
    lhs = float(np.mean(y_max))
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
    means = []
    for a, b in bundle.windows():
        e = min(b, bundle.grid.steps)
        dy = sol_a.expand(bundle, _level_gaps(sol_a.Y_levels, sol_b.Y_levels, a, e), a)
        du = sol_a.expand(bundle, _level_gaps(sol_a.U_levels, sol_b.U_levels, a, e), a)
        means.append(np.mean(dy * du, axis=0))
    return float(np.sum(np.concatenate(means) * bundle.dq))


def zero_process(bundle: PathBundle) -> TestProcess:
    zeros = np.broadcast_to(0.0, bundle.dB.shape)
    return TestProcess(0.0, zeros, zeros, label="zero")


def reconstruction_process(sol: SolutionField, bundle: PathBundle) -> TestProcess:
    """The solution's own (terminal, driver-minus-penalty) reconstruction."""

    def drift(a, e):
        return sol.expand(bundle, _level_gaps(sol.H_levels, sol.U_levels, a, e), a)

    def loading(a, e):
        return sol.expand(bundle, sol.Z_levels[a:e], a)

    # Y_0 on path 0: lattice node 0, or path 0's own entry
    return TestProcess(float(sol.Y_levels[0][0]), drift, loading, label="reconstruction")


def smoothed_midpoint_process(sol: SolutionField, bundle: PathBundle, backend) -> TestProcess:
    """Exponential smoothing of the solution itself at scale
    max(4 max(dt), T/20), capped at T for grids of a few steps."""
    horizon = bundle.grid.horizon
    smooth_eps = min(max(4.0 * float(np.max(bundle.dt)), 0.05 * horizon), horizon)
    sm = smoothing_operator(bundle, backend, sol.Y_levels, SmoothingConfig(smooth_eps))
    # the process keeps the N and R levels, not M
    n_levels, r_levels = sm.N_levels, sm.R_levels
    return TestProcess(
        sm.gamma,
        lambda a, e: sol.expand(bundle, n_levels[a:e], a),
        lambda a, e: sol.expand(bundle, r_levels[a:e], a),
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
    the solution's penalization level.  One pass over the windows
    gathers every check's profile (_variational_profiles), and each check
    forms its report from its profile.  Each (process, q,
    Gamma shift) is evaluated once: at q = 2 the shift is 0 for every
    delta, so the later deltas get renamed copies of the first report.
    Also reports the collapse of the reconstruction Gamma to the delta_q
    floor (the strong solution seen through the inequality).
    """
    tol = default_tolerance(bundle)
    processes = [
        zero_process(bundle),
        reconstruction_process(sol, bundle),
        smoothed_midpoint_process(sol, bundle, backend),
    ]
    q_values = sorted({2.0, min(float(p), 2.0)})
    # a report depends on delta only through gamma_shift and its name
    shifts = list(dict.fromkeys((q, gamma_shift(delta, q)) for q in q_values for delta in DELTAS))
    profiles, collapse = _variational_profiles(
        sol, processes, shifts, phi, psi, gen, bundle, sol.eps, collapse=1
    )
    reports = []
    for k, tp in enumerate(processes):
        for q in q_values:
            by_shift = {}
            for delta in DELTAS:
                shift = gamma_shift(delta, q)
                first = by_shift.get(shift)
                if first is None:
                    rep = by_shift[shift] = check_variational_inequality(
                        sol, tp, phi, psi, gen, bundle, q, delta,
                        tol=tol, penalization_eps=sol.eps, profile=profiles[k, q, shift],
                    )
                else:
                    rep = replace(
                        first,
                        name=_variational_name(tp, q, delta),
                        monitors=dict(first.monitors),
                    )
                reports.append(rep)
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
    n = bundle.grid.steps
    terminal_values = final.paths(bundle, (n, n + 1), "Y")["Y"][:, 0]
    at_zero = driver_at_zero(gen, bundle)
    reports.append(check_apriori_bound(final, bundle, gen, terminal_values, p, at_zero=at_zero))
    reports.append(check_energy_bound(final, bundle, gen, terminal_values, at_zero=at_zero))
    return reports
