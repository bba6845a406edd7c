"""Discrete verification of the variational inequality and its companions.

A candidate pair (Y, Z) with penalty density U is tested against smooth
test processes M_t = gamma - int N dQ + int R dB.  With
Gamma_r = sqrt(|M_r - Y_r|^2 + delta_q) the inequality checked on every
grid interval [t_i, t_j], averaged, is

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

Every check reads the levels a window of steps at a time
(PathBundle.windows), keeping across windows per-node and per-step
means, running per-path extremes and the carry of a running sum.
Terms elementwise in level values are formed on the levels, per-level
scalars laid over the cells (level_cells), and averaged by NodeMeans:
exact node expectations on a tree, where a step's dB term drops, and
elsewhere means over the evaluation paths, reached by
SolutionField.expand.  On a tree the battery's lattice processes, the
contraction and the solver's z_gap are thus exact, and four things
stay on the paths: the reconstruction process, whose path-summed M
leaves Y where a candidate breaks the step identity; the pathwise Ito
identity; the a-priori and energy bounds, which take E[max_i ...]; and
the collapse report.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .convex import ConvexSpec, combined_potential
from .errors import DomainError, GridMismatch, InfinitePotential
from .generators import GeneratorSpec, combined_driver, driver_f, driver_g
from .paths import NodeMeans, PathBundle, exact_means, gamma_shift
from .smoothing import smoothing_operator
from .solver import SequenceResult, SolutionField, level_cells

# fitted once on the martingale reference scenarios (p in 1.5 .. 2.5,
# where the largest observed lhs/rhs ratios stay below 2.8 and 1.7),
# then frozen
APRIORI_C_FIT = 4.0
ENERGY_C_FIT = 4.0
# the gate of every interval check: C_DT * max(dt) + C_MC / sqrt(paths)
C_DT = 5.0
C_MC = 5.0
# the battery's deltas at q < 2, and the delta of the Ito identity check
DELTAS = (1.0, 0.1, 0.01)
ITO_DELTA = 0.1


@dataclass(frozen=True)
class TestProcess:
    """Smooth comparison process given by (gamma, N, R) per step.

    M is defined by the reconstruction
    M_0 = gamma, M_{i+1} = M_i - N_i dQ_i + R_i dB_i.
    steps is the level reader of N and R in the layout of the candidate
    they are checked against: (a, e) -> (N, R) on the levels of the
    steps [a, e), laid end to end as SolutionField.levels lays a field,
    so a check reads a process once per window.  M is summed along the
    evaluation paths, unless the process gives it as a level callable
    (a, b) -> its values on the nodes [a, b), as the zero process and
    the smoothed process on a tree do; its terms then stay on the
    levels, averaged exactly on a tree.  Such an M must equal the
    reconstruction in exact arithmetic: a lattice function.
    """

    gamma: float
    steps: Callable
    label: str = "test"
    M: Optional[Callable] = None


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
    columns of the window's nodes, all but node 0 in the first window.
    Summing with the carry column in front repeats the whole array's
    cumsum bit for bit; adding the carry to a fresh cumsum would not.
    """
    if carry is not None:
        x = np.concatenate([carry, x], axis=1)
    sums = np.cumsum(x, axis=1)
    return sums[:, : nodes - (carry is None)], sums[:, -1:].copy()


class _Window:
    """One window of the evaluation paths seen from the levels of sol's
    layout: the nodes [a, b) and the steps [a, e), e = min(b, N).

    read(sol, name) is a field on the window's step levels, or with
    nodes=True its node levels; levels(values) shapes any such values
    alike, and steps slices the steps out of node levels.  cells(x)
    lays per-node scalars x over the step (or node) levels: repeated
    over each level's cells on a lattice (level_cells), a column of a
    (levels, paths) block on a per-path layout.  paths(values) takes
    values on the step or node levels to the paths by sol.expand, the
    gathers of the steps sharing one index, and those of the nodes one;
    means(values) is their per-level means by the pass's node_means.
    """

    def __init__(self, sol, bundle: PathBundle, a: int, b: int, node_means=None):
        self.sol, self.bundle, self.a, self.b, self._means = sol, bundle, a, b, node_means
        self.e = e = min(b, bundle.grid.steps)
        off = sol.offsets
        self._node_cells = off[b] - off[a]
        self._index = {}  # stop -> bundle.walk_index(a, stop), built on first use
        self.steps = slice(0, off[e] - off[a] if sol.lattice else e - a)

    def levels(self, values: np.ndarray) -> np.ndarray:
        return values if self.sol.lattice else values.reshape(-1, self.bundle.n_paths)

    def read(self, sol: SolutionField, name: str, nodes: bool = False) -> np.ndarray:
        return self.levels(sol.levels(name, self.a, self.b if nodes else self.e))

    def cells(self, x: np.ndarray, nodes: bool = False) -> np.ndarray:
        stop = self.b if nodes else self.e
        if not self.sol.lattice:
            return x[self.a:stop, None]
        if self._node_cells == self.b - self.a:
            return x[self.a:stop]  # one cell per level: the scalars are the cells
        return level_cells(self.sol.offsets, x, self.a, stop)

    def paths(self, values: np.ndarray, mean: bool = False) -> np.ndarray:
        stop = self.b if np.size(values) == self._node_cells else self.e
        index = None
        if self.sol.lattice and not (mean and self._means.exact):
            if stop not in self._index:
                self._index[stop] = self.bundle.walk_index(self.a, stop)
            index = self._index[stop]
        if mean:
            return self._means(values, self.a, stop, index)
        return self.sol.expand(self.bundle, values, self.a, stop, index)

    def means(self, values: np.ndarray) -> np.ndarray:
        return self.paths(values, mean=True)


def _same(x):
    return x


@dataclass
class _Profile:
    """What one variational check keeps of the windows: means per node
    of Gamma^q and per step of the increment, and its monitors."""

    node_means: list = field(default_factory=list)
    step_means: list = field(default_factory=list)
    gamma_min: float = np.inf
    terminal_sq: float = np.nan  # mean Gamma_N^2
    driver_gap: float = -np.inf  # max |H used - H(t, Y, Z)|


def _head(q, g_pow, r_minus_z, psi_y, dt, dq):
    """The first two terms of a check's step increment."""
    return 0.5 * q * (q - 1.0) * g_pow * r_minus_z ** 2 * dt + q * g_pow * psi_y * dq


def _increment(q, g_pow, head, diff, psi_m, n_minus_h, r_minus_z, dq) -> tuple:
    """(L, K) of one check on one window: its step increment is L + K dB.

    The arrays are all levels or all paths, dq laid over them.  The
    terms are formed in the inequality's order, each product left to
    right, so either gives the same bits; in place, each being fresh.
    """
    qg = q * g_pow
    qgd = qg * diff
    drift = qg * psi_m
    drift *= dq
    np.subtract(head, drift, out=drift)
    n_term = qgd * n_minus_h
    n_term *= dq
    drift -= n_term
    return drift, np.multiply(qgd, r_minus_z, out=qgd)


def _summed_m(w: _Window, gamma: float, n_steps, r_steps, dq, dB, carry) -> tuple:
    """(M on the window's nodes along the paths, the carry of its sum),
    M_0 = gamma and M_{i+1} = M_i - N_i dQ_i + R_i dB_i summed from
    carry, None in the first window; dB is the window's increments."""
    x = w.paths(r_steps)
    x *= dB
    # + is commutative, so this is -N dQ + R dB bit for bit
    x += w.paths(-n_steps * dq)
    sums, carry = _running_sum(x, carry, w.b - w.a)
    m = np.empty((w.bundle.n_paths, w.b - w.a))
    m[:, 0] = gamma
    np.add(sums, gamma, out=m[:, w.b - w.a - sums.shape[1]:])
    return m, carry


def _variational_profiles(
    sol: SolutionField,
    processes: list,
    checks: list,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    bundle: PathBundle,
    penalization_eps: Optional[float],
    collapse: Optional[int] = None,
) -> tuple:
    """The profiles of every check (process, q, delta), in one pass over
    the windows.

    Per window, the candidate's terms H(t, Y, Z) and Psi(t, Y) and its
    driver gap are formed once on the levels for every check, and each
    process's terms once for its checks.  A process that gives M on the
    levels is checked there, and what its checks average is gathered
    (land), or on a tree averaged exactly (NodeMeans).  Otherwise M is
    summed along the paths (_summed_m), the level terms go to the paths
    first (lift), and the checks run there.  A process that leaves the
    domain of a raw potential makes the inequality vacuous and raises
    InfinitePotential.  Returns ({(k, q, delta): _Profile} for
    processes[k] and every (q, delta) of checks, the largest per-node
    path mean of |M - Y|^2 of processes[collapse] or None).
    """
    low_q = any(q < 2.0 for q, _ in checks)
    profiles = {(k, q, d): _Profile() for k in range(len(processes)) for q, d in checks}
    carries = [None] * len(processes)
    driver_gap = -np.inf
    collapse_means = []
    node_means = NodeMeans(sol, bundle)
    n = bundle.grid.steps
    for a, b in bundle.windows():
        w = _Window(sol, bundle, a, b, node_means)
        e = w.e
        dB = bundle.increments(a, e)
        y_lv, z = w.read(sol, "Y", nodes=True), w.read(sol, "Z")
        alpha_c, dt_c, dq_c = w.cells(bundle.alpha), w.cells(bundle.dt), w.cells(bundle.dq)
        h_fresh = combined_driver(gen, alpha_c, w.cells(bundle.grid.nodes), y_lv[w.steps], z)
        psi_y_lv = combined_potential(phi, psi, alpha_c, penalization_eps, y_lv[w.steps])
        driver_gap = np.maximum(driver_gap, np.max(w.paths(np.abs(w.read(sol, "H") - h_fresh))))
        on_paths = None  # Y, and Psi(t, Y) at q < 2, on the paths, gathered once
        for k, tp in enumerate(processes):
            n_steps, r_steps = (w.levels(x) for x in tp.steps(a, e))
            r_minus_z = r_steps - z
            # a lattice M on a tree: exact means
            exact = tp.M is not None and node_means.exact
            # a lone column sums pairwise
            mean, last_sq = lambda x: np.mean(x, axis=0), lambda g: np.mean(g[:, -1] ** 2)
            if tp.M is None:
                # M is summed along the paths, and its terms stay there
                m, carries[k] = _summed_m(w, tp.gamma, n_steps, r_steps, dq_c, dB, carries[k])
                lift, land = w.paths, _same
                if on_paths is None:
                    on_paths = w.paths(y_lv), w.paths(psi_y_lv) if low_q else None
                y, psi_y = on_paths
                steps = np.s_[:, : e - a]
                alpha, dt, dq = bundle.alpha[a:e], bundle.dt[a:e], bundle.dq[a:e]
            else:
                lift, land = _same, _same if exact else w.paths
                if exact:
                    mean, last_sq = w.means, lambda g: w.means(g ** 2)[-1]
                m = w.levels(tp.M(a, b))
                y, psi_y = y_lv, psi_y_lv
                steps = w.steps
                alpha, dt, dq = alpha_c, dt_c, dq_c
            psi_m = combined_potential(phi, psi, alpha, penalization_eps, m[steps])
            if penalization_eps is None and np.any(np.isinf(psi_m)):
                raise InfinitePotential(
                    "test process leaves the domain of the potential, inequality is vacuous"
                )
            m_minus_y = m - y
            sq = m_minus_y ** 2
            diff, n_minus_h, rz = m_minus_y[steps], lift(n_steps - h_fresh), lift(r_minus_z)
            # what the checks do not read goes before they make their arrays
            del m, n_steps, r_steps
            for q, delta in checks:
                gamma = sq + gamma_shift(delta, q)
                np.sqrt(gamma, out=gamma)
                if q == 2.0:
                    # gamma ** 0 is 1 and a product by 1.0 is exact, so the
                    # first two terms are functions of the levels
                    g_pow = 1.0
                    head = lift(_head(q, g_pow, r_minus_z, psi_y_lv, dt_c, dq_c))
                else:
                    g_pow = gamma[steps] ** (q - 2.0)
                    head = _head(q, g_pow, rz, psi_y, dt, dq)
                drift, loading = _increment(q, g_pow, head, diff, psi_m, n_minus_h, rz, dq)
                if exact:
                    incr = drift  # E[loading dB | node] = 0
                else:
                    # + is commutative, so this is drift + loading dB bit for bit
                    incr = land(loading)
                    incr *= dB
                    incr += land(drift)
                gamma_q, gamma = land(gamma ** q), land(gamma)
                prof = profiles[k, q, delta]
                prof.node_means.append(mean(gamma_q))
                prof.step_means.append(mean(incr))
                # on a tree, over every node
                prof.gamma_min = np.minimum(prof.gamma_min, np.min(gamma))
                if b == n + 1:
                    prof.terminal_sq = last_sq(gamma)
                # a check's arrays go before the next check makes its own
                del gamma, g_pow, head, drift, loading, incr, gamma_q
            if k == collapse:
                collapse_means.append(np.mean(land(sq), axis=0))
            # and a process's arrays before the next process makes its own
            del psi_m, m_minus_y, sq, diff, n_minus_h, rz, r_minus_z
    for prof in profiles.values():
        prof.driver_gap = driver_gap
    worst_collapse = float(np.max(np.concatenate(collapse_means))) if collapse_means else None
    return profiles, worst_collapse


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
    same penalization_eps, for callers that check many processes and
    exponents in one pass; it is gathered here when not given.  At q = 2
    the Gamma shift is 0, so the report is the same for every delta and
    its name carries none.
    """
    if not (1.0 < q <= 2.0):
        raise DomainError(f"q must lie in (1, 2], got {q}")
    dq_shift = gamma_shift(delta, q)
    tol = default_tolerance(bundle) if tol is None else float(tol)
    if profile is None:
        profiles, _ = _variational_profiles(
            sol, [tp], [(q, delta)], phi, psi, gen, bundle, penalization_eps
        )
        profile = profiles[0, q, delta]
    a = np.concatenate(profile.node_means)
    a[1:] -= np.cumsum(np.concatenate(profile.step_means))
    worst = _pair_max(a)

    monitors = {
        "gamma_floor_margin": float(profile.gamma_min - np.sqrt(dq_shift)),
        "terminal_gamma_sq_minus_shift": float(profile.terminal_sq - dq_shift),
        "driver_eval_gap": float(profile.driver_gap),
    }
    return VerificationReport(
        name=f"variational[{tp.label}] q={q:g}" + (f" delta={delta:g}" if q < 2.0 else ""),
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=tol,
        monitors=monitors,
    )


def ito_report_from_solution(
    sol: SolutionField, bundle: PathBundle, p: float, delta: float, tol: float
) -> VerificationReport:
    """Residual of the norm-power transformation identity along the solution.

    The semimartingale is Y_{i+1} = Y_i - D_i + Z_i dB_i, with drift
    increments D_i = (H_i - U_i) dQ_i as F dr, sum Z^2 dt as the
    squared variation and sum <Y, Z dB> as the stochastic integral.  On
    a lattice (dB)^2 = dt makes the p = 2, delta = 0 form an algebraic
    identity per path, so the residual is taken path by path when the
    levels are lattice values (sol.lattice).  Otherwise (Monte Carlo
    paths, where dB^2 fluctuates around dt, or regression values, which
    do not reconstruct path by path) it is the worst interval gap of the
    path-averaged profile.
    """
    if p < 2.0 and delta <= 0.0:
        raise DomainError("delta > 0 is required for p < 2")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    pathwise = sol.lattice
    n = bundle.grid.steps
    dt, dq = bundle.dt, bundle.dq
    carry = None
    means = []  # per-node path means, when averaged
    values = np.empty((bundle.n_paths, n + 1)) if pathwise else None
    for a, b in bundle.windows():
        w = _Window(sol, bundle, a, b)
        e = w.e
        y, r = w.read(sol, "Y", nodes=True), w.read(sol, "Z")
        dt_c = w.cells(dt)
        drift_incr = (w.read(sol, "H") - w.read(sol, "U")) * w.cells(dq)
        yl = y[w.steps]
        base = yl * yl + delta
        acc = w.paths((y * y + delta) ** (p / 2.0))
        if p == 2.0:
            quad = r * r * dt_c
            weight = 1.0  # a product by 1.0 is exact
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                quad = (
                    0.5
                    * p
                    * np.where(
                        base > 0.0,
                        base ** ((p - 4.0) / 2.0)
                        * ((p - 1.0) * r**2 * yl**2 + delta * r**2),
                        0.0,
                    )
                    * dt_c
                )
                weight = np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)
        slope = p * weight * yl
        # + is commutative, so this is quad - slope D + slope Z dB bit for bit
        incr = w.paths(slope * r)
        incr *= bundle.increments(a, e)
        incr += w.paths(quad - slope * drift_incr)
        sums, carry = _running_sum(incr, carry, b - a)
        acc[:, b - a - sums.shape[1]:] -= sums
        if pathwise:
            values[:, a:b] = acc
        else:
            means.append(np.mean(acc, axis=0))
    if not pathwise:
        values = np.concatenate(means)[None]
    worst = _pair_range(values)
    # the residual against node 0, in place of the values; a view of
    # node 0 would make numpy copy the whole array
    residual = np.abs(np.subtract(values, values[:, :1].copy(), out=values), out=values)
    return VerificationReport(
        name=f"ito-identity p={p:g} delta={delta:g}",
        passed=bool(worst <= tol),
        worst_violation=worst,
        tolerance=float(tol),
        monitors={"mean_abs_residual": float(np.mean(residual))},
    )


def _contraction_profiles(sols: list, bundle: PathBundle, q: float) -> list:
    """(node means of e^{qV} |Y^a - Y^b|^q, mean |Y^a_N - Y^b_N|) of each
    adjacent pair of sols, all of one backend kind."""
    if bundle.V is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    if len({sol.backend_kind for sol in sols}) > 1:
        raise GridMismatch("the two solutions hold their levels in different formats")
    weight = np.exp(q * bundle.V)
    node_means, n = NodeMeans(sols[0], bundle), bundle.grid.steps
    means = [[] for _ in sols[1:]]
    for a, b in bundle.windows():
        w = _Window(sols[0], bundle, a, b, node_means)
        ys = [w.read(sol, "Y", nodes=True) for sol in sols]
        for out, y_a, y_b in zip(means, ys, ys[1:]):
            out.append(w.means(w.cells(weight, nodes=True) * np.abs(y_a - y_b) ** q))
    ys = [sol.level("Y", n) for sol in sols]
    return [
        (np.concatenate(out), node_means(np.abs(y_a - y_b), n, n + 1)[0])
        for out, y_a, y_b in zip(means, ys, ys[1:])
    ]


def check_contraction(
    sol_a: SolutionField, sol_b: SolutionField, bundle: PathBundle, q: float, tol: float,
    *, profile: Optional[tuple] = None,
) -> VerificationReport:
    """Backward submartingale test of the weighted gap.

    For two solutions of the same data the weighted gap
    mean[e^{qV_i} |Y^a_i - Y^b_i|^q] may not exceed its value at any
    later node by more than tol.  Identical inputs give gap 0; a pure
    terminal perturbation with zero drivers propagates unchanged.  The
    gap is averaged by NodeMeans; profile is the pair's entry of
    _contraction_profiles.
    """
    means, terminal_gap = profile or _contraction_profiles([sol_a, sol_b], bundle, q)[0]
    worst = _pair_max(means)
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


def _driver_source(gen: GeneratorSpec, bundle: PathBundle, v: np.ndarray, power) -> float:
    """(sum e^{v}(|F(t,0,0)| dt + |G(t,0)| dA))^power over the grid steps,
    F and G checked, each called once on the left nodes of the steps."""
    t = bundle.grid.nodes[:-1]
    f0 = np.abs(driver_f(gen, t, 0.0, 0.0))
    g0 = np.abs(driver_g(gen, t, 0.0))
    return float(np.sum(np.exp(v[:-1]) * (f0 * bundle.dt + g0 * bundle.dA)) ** power)


def check_apriori_bound(
    sol: SolutionField,
    bundle: PathBundle,
    gen: GeneratorSpec,
    terminal_values: np.ndarray,
    p: float,
) -> VerificationReport:
    """Path-averaged a-priori estimate with a frozen fitted constant.

    mean[max_i e^{pV_i}|Y_i|^p] + mean[(sum e^{2V}|Z|^2 dt)^{p/2}]
    <= APRIORI_C_FIT * ( mean[e^{pV_N}|eta|^p]
                         + mean[(sum e^{V}(|F(t,0,0)| dt + |G(t,0)| dA))^p] ).
    """
    if bundle.V is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    v = bundle.V
    y_weight, z_weight, dt = np.exp(p * v), np.exp(2.0 * v[:-1]), bundle.dt
    y_max = -np.inf
    # the time sum runs along whole paths, so its terms are kept whole
    z_terms = np.empty((bundle.n_paths, bundle.grid.steps))
    for a, b in bundle.windows():
        w = _Window(sol, bundle, a, b)
        y_terms = w.cells(y_weight, nodes=True) * np.abs(w.read(sol, "Y", nodes=True)) ** p
        y_max = np.maximum(y_max, np.max(w.paths(y_terms), axis=1))
        z_terms[:, a:w.e] = w.paths(w.cells(z_weight) * w.read(sol, "Z") ** 2 * w.cells(dt))
    lhs = float(np.mean(y_max) + np.mean(np.sum(z_terms, axis=1) ** (p / 2.0)))
    source = _driver_source(gen, bundle, v, p)
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
) -> VerificationReport:
    """Positive-part weighted energy estimate with a frozen fitted constant.

    mean[max_i e^{2Vplus_i}|Y_i|^2]
    <= ENERGY_C_FIT * ( mean[e^{2Vplus_N}|eta|^2]
                        + mean[(sum e^{Vplus}(|F(t,0,0)| dt + |G(t,0)| dA))^2] ).
    """
    if bundle.Vplus is None:
        raise GridMismatch("bundle has no accumulated weights, call accumulate_weights")
    v = bundle.Vplus
    weight = np.exp(2.0 * v)
    y_max = -np.inf
    for a, b in bundle.windows():
        w = _Window(sol, bundle, a, b)
        y_terms = w.cells(weight, nodes=True) * w.read(sol, "Y", nodes=True) ** 2
        y_max = np.maximum(y_max, np.max(w.paths(y_terms), axis=1))
    lhs = float(np.mean(y_max))
    source = _driver_source(gen, bundle, v, 2)
    rhs = float(np.mean(np.exp(2.0 * v[-1]) * terminal_values**2) + source)
    return VerificationReport(
        name="energy-bound",
        passed=bool(lhs <= ENERGY_C_FIT * rhs * (1.0 + 1e-12) + 1e-12),
        worst_violation=float(lhs - ENERGY_C_FIT * rhs),
        tolerance=0.0,
        monitors={"lhs": lhs, "rhs": rhs, "c_fit": ENERGY_C_FIT},
    )


def zero_process(offsets: np.ndarray) -> TestProcess:
    """N = R = 0 in the layout offsets, so M is +0.0 on every path: a
    lattice function, given as such."""

    def zeros(a, b):
        return np.broadcast_to(0.0, (offsets[b] - offsets[a],))

    return TestProcess(0.0, lambda a, e: (zeros(a, e),) * 2, label="zero", M=zeros)


def reconstruction_process(sol: SolutionField) -> TestProcess:
    """The solution's own (terminal, driver-minus-penalty) reconstruction."""

    def steps(a, e):
        return sol.levels("H", a, e) - sol.levels("U", a, e), sol.levels("Z", a, e)

    # Y_0 on path 0: lattice node 0, or path 0's own entry
    return TestProcess(float(sol.level("Y", 0)[0]), steps, label="reconstruction")


def smoothed_midpoint_process(sol: SolutionField, backend) -> TestProcess:
    """Exponential smoothing of the solution itself at scale
    max(4 max(dt), T/20), capped at T for grids of a few steps.

    A window's N and R are read together (SmoothedProcess.steps): on the
    lsq backend they are evaluated from the pass's per-date fits on the
    window's levels, one basis per level for both."""
    bundle = backend.bundle
    horizon = bundle.grid.horizon
    smooth_eps = min(max(4.0 * float(np.max(bundle.dt)), 0.05 * horizon), horizon)
    sm = smoothing_operator(backend, sol.Y, smooth_eps)
    # on a tree M is the lattice function sm.M; elsewhere the process
    # holds only the reader of N and R, and M goes with sm
    m = (lambda a, b: sm.levels("M", a, b)) if exact_means(sol, bundle) else None
    return TestProcess(sm.gamma, sm.steps, label="smoothed", M=m)


def battery(
    sol: SolutionField,
    backend,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    p: float,
) -> list:
    """Three-way test-process battery at q = min(p, 2) and q = 2.

    Processes: the zero process, the solution's own reconstruction, and
    the smoothing of the solution's midpoints, each at every delta of
    DELTAS when q < 2 and once at q = 2, where the Gamma shift is 0 for
    every delta; gated at default_tolerance(bundle), with potentials at
    the solution's penalization level.  One pass over the windows
    gathers every check's profile (_variational_profiles).  Also reports
    the collapse of the reconstruction Gamma to the delta_q floor (the
    strong solution seen through the inequality), on backend.bundle.
    """
    bundle = backend.bundle
    tol = default_tolerance(bundle)
    processes = [
        zero_process(sol.offsets),
        reconstruction_process(sol),
        smoothed_midpoint_process(sol, backend),
    ]
    checks = [
        (q, delta)
        for q in sorted({2.0, min(float(p), 2.0)})
        for delta in (DELTAS if q < 2.0 else DELTAS[:1])
    ]
    profiles, collapse = _variational_profiles(
        sol, processes, checks, phi, psi, gen, bundle, sol.eps, collapse=1
    )
    reports = [
        check_variational_inequality(
            sol, tp, phi, psi, gen, bundle, q, delta,
            tol=tol, penalization_eps=sol.eps, profile=profiles[k, q, delta],
        )
        for k, tp in enumerate(processes)
        for q, delta in checks
    ]
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
    contraction of each adjacent eps pair at q = min(p, 2), in (1, 2]
    for every p > 1, gated at max(tol, 2 (eps + eps')) for the
    penalization cross term, in one pass; then the a-priori
    and energy bounds on the finest solution's terminal values.  tol is
    default_tolerance(backend.bundle).
    """
    bundle = backend.bundle
    tol = default_tolerance(bundle)
    sols = list(seq.solutions.values())
    final = sols[-1]
    reports = battery(final, backend, phi, psi, gen, p)
    reports.append(ito_report_from_solution(final, bundle, p, ITO_DELTA, tol))
    q = min(p, 2.0)
    profiles = _contraction_profiles(sols, bundle, q) if len(sols) > 1 else []
    for coarse, fine, profile in zip(sols, sols[1:], profiles):
        gate = max(tol, 2.0 * (coarse.eps + fine.eps))
        reports.append(check_contraction(coarse, fine, bundle, q, gate, profile=profile))
    n = bundle.grid.steps
    terminal_values = final.paths(bundle, (n, n + 1), "Y")["Y"][:, 0]
    reports.append(check_apriori_bound(final, bundle, gen, terminal_values, p))
    reports.append(check_energy_bound(final, bundle, gen, terminal_values))
    return reports
