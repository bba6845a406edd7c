"""Backward time-stepping for the penalized equation.

One backward Euler sweep in the clock Q per step, splitting the driver
(explicit, one predictor evaluation) from the penalty gradient
(implicit):

    Z_i    = CE_i[Y_{i+1} dB_i] / dt_i
    y_hat  = CE_i[Y_{i+1}] + H_eps(t_i, CE_i[Y_{i+1}], Z_i) dQ_i
    Y_i    + dQ_i D Psi_eps(t_i, Y_i) = y_hat          (semi-implicit)
    U_i    = (y_hat - Y_i) / dQ_i

where Psi_eps(t, y) = alpha_t phi_eps(y) + (1 - alpha_t) psi_eps(y) and
H_eps = alpha F + (1 - alpha) G, optionally mollified.  Both the driver
and the penalty gradient are switched off once the increasing process
exceeds the budget 1/eps.  Conditional expectations CE_i come from a
pluggable backend: exact averaging on the recombining binomial lattice,
or least-squares regression on monomials of the driver value.

The whole eps schedule is solved in one sweep on the shared bundle:
every level holds Y, Z, U and H with one row per eps, so conditional
expectations, the driver and the penalty update run once per step for
all rows, and each row carries its own budget 1/eps.

The implicit step is solved exactly: every potential is closed form,
so the map v -> v + dQ D Psi_eps(v) is piecewise linear and strictly
increasing.  The inverse depends only on (alpha, eps, dQ), so a sweep
tabulates it once per distinct (alpha_i, dQ_i) for all rows and reuses
it.
"""

import dataclasses
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import convex
from .convex import ConvexSpec
from .errors import ConfigError, DomainError
from .generators import (
    GeneratorSpec,
    MollifierConfig,
    combined_driver,
    mollify_driver,
    mollify_driver_g,
)
from .paths import PathBundle


@dataclass(frozen=True)
class SolverConfig:
    p: float = 2.0
    lam: float = 0.5
    eps_schedule: tuple = (0.1,)
    ce: str = "tree"  # or "lsq"
    degree: int = 3
    mollify: bool = False

    def __post_init__(self):
        if not (_real(self.p) and np.isfinite(self.p) and self.p > 1.0):
            raise ConfigError(f"solver.p must be a number > 1, got {self.p!r}")
        if not (_real(self.lam) and 0.0 < self.lam < 1.0):
            raise ConfigError(f"solver.lambda must be a number in (0, 1), got {self.lam!r}")
        if not isinstance(self.eps_schedule, Iterable):
            raise ConfigError(f"solver.eps_schedule must be a list, got {self.eps_schedule!r}")
        sched = tuple(self.eps_schedule)
        if not sched or not all(_real(e) and np.isfinite(e) and e > 0.0 for e in sched):
            raise ConfigError("solver.eps_schedule must be non-empty, finite and positive numbers")
        sched = tuple(float(e) for e in sched)
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("solver.eps_schedule must be strictly decreasing")
        if self.ce not in ("tree", "lsq"):
            raise ConfigError(f"solver.ce unknown: {self.ce!r}")
        if not (isinstance(self.degree, numbers.Integral) and _real(self.degree) and self.degree >= 1):
            raise ConfigError(f"solver.degree must be an integer >= 1, got {self.degree!r}")
        if not isinstance(self.mollify, bool):
            raise ConfigError(f"solver.mollify must be true or false, got {self.mollify!r}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "eps_schedule", sched)


def _real(x) -> bool:
    # a bool would pass as 0 or 1, a numeric string through float()
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class TreeBackend:
    """Exact conditional expectations on the recombining lattice.

    Lattice nodes lie on the last axis; leading axes (one row per eps)
    are carried along.
    """

    kind = "tree"

    def __init__(self, bundle: PathBundle):
        if bundle.levels is None:
            raise ConfigError("solver.ce 'tree' needs tree or deterministic noise")
        self.bundle = bundle
        self.sqdt = float(np.sqrt(bundle.dt[0])) if bundle.kind == "tree" else 0.0
        self.degenerate = bundle.kind == "deterministic"

    def terminal_driver(self) -> np.ndarray:
        return self.bundle.levels[-1]

    def ce(self, i: int, v_next: np.ndarray) -> np.ndarray:
        if self.degenerate:
            return v_next.copy()
        return 0.5 * (v_next[..., :-1] + v_next[..., 1:])

    def z(self, i: int, v_next: np.ndarray) -> np.ndarray:
        if self.degenerate:
            return np.zeros_like(v_next)
        return (v_next[..., 1:] - v_next[..., :-1]) / (2.0 * self.sqdt)


class RegressionBackend:
    """Least-squares projection onto monomials {1, B, ..., B^degree}.

    Values hold one entry per path on the last axis; a 2-D array is
    fitted row by row.  At date 0 every path has B = 0 and the fit is
    the sample mean.

    The basis x = vander(B_i) changes only with the date, so it is
    factored once per date: a thin SVD x = U S V^T, keeping the columns
    u of U whose singular value exceeds finfo.eps * max(P, degree + 1)
    * s_max.  That is lstsq's rank rule with rcond=None, so every fit
    u (u^T target) is lstsq's minimum-norm fit, also where the basis is
    rank deficient (a tree's early dates, deterministic noise).  One
    slot holds the last date's factor, so callers keep a date's fits
    together; a cache across dates would hold P x (degree + 1) floats
    per date.
    """

    kind = "lsq"

    def __init__(self, bundle: PathBundle, degree: int):
        self.bundle = bundle
        self.degree = int(degree)
        self.B = bundle.driver_paths()
        self._slot = (None, None)  # (date, u)

    def terminal_driver(self) -> np.ndarray:
        return self.B[:, -1]

    def _basis(self, i: int) -> np.ndarray:
        if self._slot[0] != i:
            x = np.vander(self.B[:, i], self.degree + 1, increasing=True)
            u, s, _ = np.linalg.svd(x, full_matrices=False)
            rank = np.count_nonzero(s > np.finfo(float).eps * max(x.shape) * s[0])
            self._slot = (i, u[:, :rank])
        return self._slot[1]

    def _fit(self, i: int, target: np.ndarray) -> np.ndarray:
        if target.ndim == 2:
            # one fit per eps row: stacked right-hand sides change the bits
            out = np.empty_like(target)
            for r, row in enumerate(target):
                out[r] = self._fit(i, row)
            return out
        if i == 0:
            return np.full_like(target, float(np.mean(target)))
        u = self._basis(i)
        return u @ (target @ u)

    def ce(self, i: int, v_next: np.ndarray) -> np.ndarray:
        return self._fit(i, v_next)

    def z(self, i: int, v_next: np.ndarray) -> np.ndarray:
        # centering by the fitted mean leaves the projection unchanged
        # (dB is conditionally centered) but shrinks the target variance
        # from O(|v|^2/dt) to O(var(v increment)/dt)
        resid = v_next - self._fit(i, v_next)
        return self._fit(i, resid * self.bundle.dB[:, i] / self.bundle.dt[i])


def make_backend(bundle: PathBundle, cfg: SolverConfig):
    if cfg.ce == "tree":
        return TreeBackend(bundle)
    return RegressionBackend(bundle, cfg.degree)


def implicit_step(phi: ConvexSpec, psi: ConvexSpec, alpha: float, schedule, dq: float) -> Callable:
    """The map (y_hat, rows) -> v solving v + dq D Psi_eps(v) = y_hat, one row per eps.

    Here D Psi_eps = alpha D phi_eps + (1 - alpha) D psi_eps.  The left
    side is strictly increasing and piecewise linear, so the root is
    unique.  y_hat holds one row for each eps of the schedule's slice
    ``rows`` (all of it by default).  The breakpoints, values and slopes
    depend only on (alpha, eps, dq), so they are tabulated here once per
    eps and every call inverts all rows by one gather.  On segment s
    with base point x, knot value g and slope d the inverse is
    x - (g - y) / d.  That is x + (y - g) / d bit for bit wherever
    y != g, and keeps its signed zero on the lower outer segment, the
    one segment where y == g can occur.
    """
    schedule = [float(eps) for eps in schedule]

    def forward(v, eps):
        return v + dq * convex.combined_gradient(phi, psi, alpha, eps, v)

    kinks = [
        np.unique(np.asarray(
            convex.gradient_breakpoints(phi, eps) + convex.gradient_breakpoints(psi, eps),
            dtype=float,
        ))
        for eps in schedule
    ]

    # whether a kind has kinks does not depend on eps
    if kinks[0].size == 0:
        # the map is linear, v -> slope v: forward(0) is +0.0 for every
        # kink-free potential, and y - (+0.0) is y bit for bit (-0.0
        # included), so the inverse is one division, y / slope
        slopes = np.array([float(forward(np.asarray(1.0), eps)) for eps in schedule])[:, None]

        def linear(y_hat, rows=slice(None)):
            y = np.asarray(y_hat, dtype=float)
            return (y.reshape(len(y), -1) / slopes[rows]).reshape(y.shape)

        return linear

    # the kinks of two potentials coincide at some eps only; such rows
    # are padded with knots at +inf, which no finite y_hat passes
    width = max(xs.size for xs in kinks)
    knots = np.full((len(schedule), width), np.inf)
    table = np.empty((len(schedule), width + 1, 3))  # base, knot value, slope
    for r, (eps, xs) in enumerate(zip(schedule, kinks)):
        g_at = forward(xs, eps)
        lo_slope = float((g_at[0] - forward(xs[0] - 1.0, eps)))
        hi_slope = float((forward(xs[-1] + 1.0, eps) - g_at[-1]))
        slopes = (g_at[1:] - g_at[:-1]) / (xs[1:] - xs[:-1])
        m = xs.size
        knots[r, :m] = g_at
        table[r, : m + 1, 0] = np.concatenate([xs[:1], xs])
        table[r, : m + 1, 1] = np.concatenate([g_at[:1], g_at])
        table[r, : m + 1, 2] = np.concatenate([[lo_slope], slopes, [hi_slope]])
        table[r, m + 1 :] = table[r, m]
    row_index = np.arange(len(schedule))[:, None]

    def closed_form(y_hat, rows=slice(None)):
        y = np.asarray(y_hat, dtype=float)
        flat = y.reshape(len(y), -1)
        # segment = number of knots below y_hat, as searchsorted(side="left")
        seg = (flat[:, :, None] > knots[rows][:, None, :]).sum(axis=2)
        picked = table[rows][row_index[: len(flat)], seg]
        v = picked[..., 0] - (picked[..., 1] - flat) / picked[..., 2]
        return v.reshape(y.shape)

    return closed_form


def resolve_implicit(
    phi: ConvexSpec,
    psi: ConvexSpec,
    alpha: float,
    eps: float,
    dq: float,
    y_hat: np.ndarray,
) -> np.ndarray:
    """Solve v + dq [alpha D phi_eps(v) + (1 - alpha) D psi_eps(v)] = y_hat once."""
    step = implicit_step(phi, psi, alpha, (eps,), dq)
    return step(np.asarray(y_hat, dtype=float)[None])[0]


@dataclass
class SolutionField:
    """Backward solution on the grid, stored level by level.

    The level format follows backend_kind, the kind of the backend that
    built the levels: tree levels hold one value per lattice node,
    regression levels one value per evaluation path, even on a tree
    bundle.  H_levels records the driver value the predictor actually
    used, so Y, Z, U, H satisfy the step identity
    Y_{i+1} = Y_i - (H_i - U_i) dQ_i + Z_i dB_i exactly on lattices.
    max_stiffness is the largest dQ_i / eps over the steps inside the
    budget (0 if none).
    """

    eps: float
    backend_kind: str
    Y_levels: list
    Z_levels: list
    U_levels: list
    H_levels: list
    dq: np.ndarray
    max_stiffness: float

    @property
    def y0(self) -> float:
        return float(np.mean(self.Y_levels[0]))

    @property
    def active_fraction(self) -> float:
        """Share of the level entries before the horizon where U != 0."""
        u = np.concatenate(self.U_levels)
        return np.count_nonzero(u) / u.size

    @property
    def kinc_levels(self) -> list:
        return [u * q for u, q in zip(self.U_levels, self.dq)]

    @property
    def lattice(self) -> bool:
        """Levels hold lattice node values from exact expectations."""
        return self.backend_kind == "tree"

    def expand(self, bundle: PathBundle, levels: list, start: int = 0) -> np.ndarray:
        """Levels start, start + 1, ... built by this solution's backend, as
        a (paths, len(levels)) array.

        This is the only route from levels to paths: lattice levels are
        gathered along the bundle's walks, per-path levels are stacked.
        """
        if self.lattice:
            return bundle.on_paths(levels, start)
        return np.stack(levels, axis=1)

    def paths(
        self, bundle: PathBundle, window: Optional[tuple] = None, names: str = "YZUH"
    ) -> dict:
        """The fields named in names on the bundle's evaluation paths.

        window is a node range [a, b), such as one of bundle.windows(),
        and the whole grid by default: Y holds the nodes [a, b), Z, U and
        H the steps [a, min(b, N)).  Every call gathers fresh arrays.
        """
        n = bundle.grid.steps
        a, b = (0, n + 1) if window is None else window
        levels = {"Y": self.Y_levels, "Z": self.Z_levels, "U": self.U_levels, "H": self.H_levels}
        return {
            name: self.expand(bundle, levels[name][a:b if name == "Y" else min(b, n)], a)
            for name in names
        }


@dataclass
class Sweep:
    """One backward sweep over an eps schedule.

    Y_levels and U_levels hold one row per eps at every level;
    solutions has one SolutionField per eps, whose levels are views of
    those rows.
    """

    Y_levels: list
    U_levels: list
    solutions: list


def backward_sweep(
    backend,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    cfg: SolverConfig,
) -> Sweep:
    """One backward sweep on backend.bundle over cfg.eps_schedule.

    Every level holds one row per eps.  Row r is active at step i while
    A_i <= 1 / eps_r; a finer eps has the larger budget, so the active
    rows of a step are the last ones.  Only those reach the driver and
    the implicit step; the others keep Y = CE with H = U = 0.  Work that
    is elementwise runs once per step for all rows; the mollified driver
    depends on eps and runs row by row.  SolverConfig has checked that
    the schedule is finite, positive and strictly decreasing.
    """
    schedule = cfg.eps_schedule
    bundle = backend.bundle
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    alpha = bundle.alpha
    n_eps = len(schedule)
    # budget indicator at the left node, one row per eps
    active = np.array([bundle.A[:-1] <= 1.0 / eps for eps in schedule])
    first_active = n_eps - np.count_nonzero(active, axis=0)

    molls = [MollifierConfig(eps=eps) for eps in schedule] if cfg.mollify else None

    def driver(i, rows, y, z):
        if molls is None:
            return combined_driver(gen, alpha[i], t[i], y, z)
        return np.stack([
            alpha[i] * mollify_driver(gen, moll, t[i], y_r, z_r)
            + (1.0 - alpha[i]) * mollify_driver_g(gen, moll, t[i], y_r)
            for moll, y_r, z_r in zip(molls[rows], y, z)
        ])

    stiffness = [float(np.max(dq[act] / eps, initial=0.0)) for eps, act in zip(schedule, active)]
    steps = {}  # one implicit_step for all rows per distinct (alpha_i, dQ_i)

    y_levels = [None] * (n + 1)
    z_levels = [None] * n
    u_levels = [None] * n
    h_levels = [None] * n
    y_n = np.asarray(terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float)
    if not np.all(np.isfinite(y_n)):
        raise DomainError("terminal condition evaluated to non-finite values")
    y_levels[n] = np.repeat(y_n[None], n_eps, axis=0)

    def penalized_step(i, rows, ce, z):
        """(Y, H, U) of the active rows, given their CE and Z."""
        h = driver(i, rows, ce, z)
        y_hat = ce + h * dq[i]
        key = (alpha[i], dq[i])
        if key not in steps:
            steps[key] = implicit_step(phi, psi, alpha[i], schedule, dq[i])
        y = steps[key](y_hat, rows)
        return y, h, (y_hat - y) / dq[i]

    for i in reversed(range(n)):
        ce = backend.ce(i, y_levels[i + 1])
        z = backend.z(i, y_levels[i + 1])
        rows = slice(first_active[i], n_eps)
        if rows.start == 0:
            y, h, u = penalized_step(i, rows, ce, z)
        else:
            # rows outside the budget keep Y = CE (a fresh array) with H = U = 0
            y, h, u = ce, np.zeros_like(ce), np.zeros_like(ce)
            if rows.start < n_eps:
                y[rows], h[rows], u[rows] = penalized_step(i, rows, ce[rows], z[rows])
        y_levels[i], z_levels[i], u_levels[i], h_levels[i] = y, z, u, h

    solutions = [
        SolutionField(
            eps=float(eps),
            backend_kind=backend.kind,
            Y_levels=[lv[r] for lv in y_levels],
            Z_levels=[lv[r] for lv in z_levels],
            U_levels=[lv[r] for lv in u_levels],
            H_levels=[lv[r] for lv in h_levels],
            dq=dq,
            max_stiffness=stiffness[r],
        )
        for r, eps in enumerate(schedule)
    ]
    return Sweep(Y_levels=y_levels, U_levels=u_levels, solutions=solutions)


def solve_penalized(
    bundle: PathBundle,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    eps: float,
    cfg: SolverConfig,
) -> SolutionField:
    """One backward solve at a fixed penalization level eps, on its own backend."""
    one = dataclasses.replace(cfg, eps_schedule=(eps,))
    sweep = backward_sweep(make_backend(bundle, one), phi, psi, gen, terminal, one)
    return sweep.solutions[0]


@dataclass
class SequenceResult:
    solutions: dict
    gaps: list
    penalty_energy: dict


def solve_sequence(
    backend,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    cfg: SolverConfig,
) -> SequenceResult:
    """Solve along the decreasing eps schedule on common random numbers.

    The caller builds the backend once; one sweep on backend.bundle
    serves every eps, so gaps measure the penalization error alone.
    Reported per adjacent pair: the sup gap of Y over all nodes and the
    L2-in-time gap of Z along evaluation paths, read a window of steps at
    a time.
    Also logs the penalty energy eps * sum_i mean |U_i|^2 dQ_i, which
    stays bounded along the schedule when penalization converges.
    """
    schedule = cfg.eps_schedule
    bundle = backend.bundle
    sweep = backward_sweep(backend, phi, psi, gen, terminal, cfg)
    solutions = dict(zip(schedule, sweep.solutions))
    # per level: mean |U|^2 of every row, and max |Y^a - Y^b| of every adjacent pair
    # (np.mean's sum and division, less its wrapper: one call per level)
    u2 = np.array([np.add.reduce(u * u, axis=-1) / u.shape[-1] for u in sweep.U_levels]).T
    energy = {eps: float(eps * np.sum(u2_r * bundle.dq)) for eps, u2_r in zip(schedule, u2)}
    y_gaps = np.max([np.abs(y[:-1] - y[1:]).max(axis=-1) for y in sweep.Y_levels], axis=0)
    steps = [(a, min(b, bundle.grid.steps)) for a, b in bundle.windows()]
    gaps = []
    for r, (e_coarse, e_fine) in enumerate(zip(schedule, schedule[1:])):
        coarse, fine = solutions[e_coarse], solutions[e_fine]
        # per-step path means of |Z - Z'|^2, squared on the levels and
        # gathered one window of steps at a time
        means = []
        for a, e in steps:
            levels = zip(coarse.Z_levels[a:e], fine.Z_levels[a:e])
            sq = coarse.expand(bundle, [(za - zb) ** 2 for za, zb in levels], a)
            means.append(np.mean(sq, axis=0))
        z_gap = float(np.sqrt(np.sum(np.concatenate(means) * bundle.dt)))
        gaps.append(
            {
                "eps_coarse": float(e_coarse),
                "eps_fine": float(e_fine),
                "y_gap": float(y_gaps[r]),
                "z_gap": z_gap,
            }
        )
    return SequenceResult(
        solutions=solutions,
        gaps=gaps,
        penalty_energy=energy,
    )


@dataclass(frozen=True)
class SmoothingConfig:
    """Exponential kernel smoothing scale, given as the time point eps.

    The kernel scale in clock units is Q at the first grid node with
    t >= eps; values beyond the horizon are extended by holding the last
    node value, which gives the kernel tail a closed form.
    """

    eps: float

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise DomainError(f"smoothing eps must be > 0, got {self.eps}")


@dataclass
class SmoothedProcess:
    """Discrete exponential smoothing M of a per-node process U.

    M_i averages U over the clock window starting at max(t_i, eps) with
    weights proportional to exp(-(Q_j - Q_start)/scale) dQ_j plus the
    held tail, renormalized to total mass one; below eps it extends as a
    martingale.  N is the compensating drift (U_i - M_i)/scale switched
    on from eps onward, R the per-step martingale loading, so that
    (gamma, N, R) reconstructs M through
    M_{i+1} = M_i - N_i dQ_i + R_i dB_i up to conditional-expectation
    discretization.
    """

    gamma: float
    M_levels: list
    N_levels: list
    R_levels: list
    i_eps: int
    scale: float


def smoothing_operator(
    bundle: PathBundle, backend, u_levels: list, cfg: SmoothingConfig
) -> SmoothedProcess:
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    # the first node with t >= eps; eps > 0 = t_0, so i_eps >= 1
    i_eps = int(np.searchsorted(t, cfg.eps))
    if i_eps >= n + 1:
        raise DomainError("smoothing eps lies beyond the horizon")
    scale = float(bundle.Q[i_eps])

    # one backward pass; each date takes its expectation and its loading
    # together.  From i_eps on, M is the kernel sum over its deterministic
    # mass; below i_eps it extends as a martingale.
    g_acc = np.asarray(u_levels[n], dtype=float).copy()
    w_acc = 1.0  # closed-form tail on the held terminal value
    m_levels = [None] * (n + 1)
    n_levels = [None] * n
    r_levels = [None] * n
    m_levels[n] = g_acc / w_acc
    for i in reversed(range(n)):
        if i >= i_eps:
            decay = float(np.exp(-dq[i] / scale))
            w_i = dq[i] / scale
            u_i = np.asarray(u_levels[i], dtype=float)
            g_acc = w_i * u_i + decay * backend.ce(i, g_acc)
            w_acc = w_i + decay * w_acc
            m_levels[i] = g_acc / w_acc
            n_levels[i] = (u_i - m_levels[i]) / scale
        else:
            m_levels[i] = backend.ce(i, m_levels[i + 1])
            n_levels[i] = np.zeros_like(m_levels[i])
        r_levels[i] = backend.z(i, m_levels[i + 1])

    return SmoothedProcess(
        gamma=float(np.mean(m_levels[0])),
        M_levels=m_levels,
        N_levels=n_levels,
        R_levels=r_levels,
        i_eps=i_eps,
        scale=scale,
    )
