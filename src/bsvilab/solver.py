"""Backward time-stepping for the penalized equation.

One backward Euler sweep in the clock Q per step, splitting the driver
(explicit, one predictor evaluation) from the penalty gradient
(implicit by default):

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

The implicit step is solved exactly for closed-form potentials (the map
v -> v + dQ D Psi_eps(v) is piecewise linear and strictly increasing)
and by bisection otherwise; both paths are exposed so they can be
cross-checked.  The inverse depends only on (alpha, eps, dQ), so a solve
builds it once per distinct (alpha_i, dQ_i) and reuses it.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import convex
from .convex import ConvexSpec, potential_value
from .errors import (
    ConfigError,
    DomainError,
    PenalizationSolveFailure,
    StiffnessWarning,
)
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
    mode: str = "semi_implicit"  # or "explicit"
    ce: str = "tree"  # or "lsq"
    degree: int = 3
    ridge: float = 0.0
    mollify: bool = False
    mollifier_nq: int = 401
    sweeps: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 1.0):
            raise ConfigError(f"solver.p must be > 1, got {self.p}")
        if not (0.0 < self.lam < 1.0):
            raise ConfigError(f"solver.lambda must lie in (0, 1), got {self.lam}")
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched or any(e <= 0.0 for e in sched):
            raise ConfigError("solver.eps_schedule must be non-empty and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("solver.eps_schedule must be strictly decreasing")
        if self.mode not in ("semi_implicit", "explicit"):
            raise ConfigError(f"solver.mode unknown: {self.mode!r}")
        if self.ce not in ("tree", "lsq"):
            raise ConfigError(f"solver.ce unknown: {self.ce!r}")
        if self.degree < 1:
            raise ConfigError(f"solver.degree must be >= 1, got {self.degree}")
        if self.ridge < 0.0:
            raise ConfigError(f"solver.ridge must be >= 0, got {self.ridge}")
        if self.sweeps < 1:
            raise ConfigError(f"solver.sweeps must be >= 1, got {self.sweeps}")
        object.__setattr__(self, "eps_schedule", sched)


class TreeBackend:
    """Exact conditional expectations on the recombining lattice."""

    def __init__(self, bundle: PathBundle):
        if bundle.levels is None:
            raise ConfigError("tree backend requires a lattice bundle")
        self.bundle = bundle
        self.sqdt = float(np.sqrt(bundle.dt[0])) if bundle.kind == "tree" else 0.0
        self.degenerate = bundle.kind == "deterministic"

    def terminal_driver(self) -> np.ndarray:
        return self.bundle.levels[-1]

    def ce(self, i: int, v_next: np.ndarray) -> np.ndarray:
        if self.degenerate:
            return v_next.copy()
        return 0.5 * (v_next[:-1] + v_next[1:])

    def z(self, i: int, v_next: np.ndarray) -> np.ndarray:
        if self.degenerate:
            return np.zeros_like(v_next)
        return (v_next[1:] - v_next[:-1]) / (2.0 * self.sqdt)


class RegressionBackend:
    """Least-squares projection onto monomials {1, B, ..., B^degree}."""

    def __init__(self, bundle: PathBundle, degree: int, ridge: float):
        self.bundle = bundle
        self.degree = int(degree)
        self.ridge = float(ridge)
        self.B = bundle.driver_paths()

    def terminal_driver(self) -> np.ndarray:
        return self.B[:, -1]

    def _fit(self, i: int, target: np.ndarray) -> np.ndarray:
        if i == 0:
            return np.full_like(target, float(np.mean(target)))
        x = np.vander(self.B[:, i], self.degree + 1, increasing=True)
        if self.ridge > 0.0:
            gram = x.T @ x + self.ridge * np.eye(self.degree + 1)
            beta = np.linalg.solve(gram, x.T @ target)
        else:
            beta = np.linalg.lstsq(x, target, rcond=None)[0]
        return x @ beta

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
        if bundle.kind not in ("tree", "deterministic"):
            raise ConfigError("solver.ce 'tree' needs tree or deterministic noise")
        return TreeBackend(bundle)
    return RegressionBackend(bundle, cfg.degree, cfg.ridge)


def implicit_method(phi: ConvexSpec, psi: ConvexSpec, eps: float) -> str:
    """'closed_form' when both Yosida gradients are piecewise linear, else 'bisect'."""
    exact = (
        convex.gradient_breakpoints(phi, eps) is not None
        and convex.gradient_breakpoints(psi, eps) is not None
    )
    return "closed_form" if exact else "bisect"


def implicit_step(
    phi: ConvexSpec,
    psi: ConvexSpec,
    alpha: float,
    eps: float,
    dq: float,
    method: str = "auto",
) -> Callable:
    """The map y_hat -> v solving v + dq D Psi_eps(v) = y_hat.

    Here D Psi_eps = alpha D phi_eps + (1 - alpha) D psi_eps.  The left
    side is strictly increasing with value 0 at 0, so the root is unique
    and lies between 0 and y_hat.  Closed-form kinds make the map
    piecewise linear; its breakpoints, values and slopes depend only on
    (alpha, eps, dq), so they are computed here once and every call
    inverts segment by segment.  Otherwise each call bisects.
    """

    def forward(v):
        return v + dq * convex.combined_gradient(phi, psi, alpha, eps, v)

    if method == "auto":
        method = implicit_method(phi, psi, eps)
    if method == "closed_form":
        breaks_phi = convex.gradient_breakpoints(phi, eps)
        breaks_psi = convex.gradient_breakpoints(psi, eps)
        if breaks_phi is None or breaks_psi is None:
            raise PenalizationSolveFailure(
                "closed-form implicit step needs piecewise-linear gradients"
            )
        xs = np.unique(np.asarray(breaks_phi + breaks_psi, dtype=float))
        if xs.size == 0:
            slope = float(forward(np.asarray(1.0)))  # forward(0) = 0, map is linear
            return lambda y_hat: np.asarray(y_hat, dtype=float) / slope
        g_at = forward(xs)
        lo_slope = float((g_at[0] - forward(xs[0] - 1.0)))
        hi_slope = float((forward(xs[-1] + 1.0) - g_at[-1]))
        slopes = (g_at[1:] - g_at[:-1]) / (xs[1:] - xs[:-1])

        def closed_form(y_hat):
            y_hat = np.asarray(y_hat, dtype=float)
            idx = np.searchsorted(g_at, y_hat)
            v = np.empty_like(y_hat)
            for seg in range(xs.size + 1):
                mask = idx == seg
                if not np.any(mask):
                    continue
                if seg == 0:
                    v[mask] = xs[0] - (g_at[0] - y_hat[mask]) / lo_slope
                elif seg == xs.size:
                    v[mask] = xs[-1] + (y_hat[mask] - g_at[-1]) / hi_slope
                else:
                    v[mask] = xs[seg - 1] + (y_hat[mask] - g_at[seg - 1]) / slopes[seg - 1]
            return v

        return closed_form
    if method != "bisect":
        raise ConfigError(f"unknown implicit-solve method {method!r}")

    def bisect(y_hat):
        y_hat = np.asarray(y_hat, dtype=float)
        lo = np.minimum(y_hat, 0.0)
        hi = np.maximum(y_hat, 0.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_big = forward(mid) > y_hat
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        v = 0.5 * (lo + hi)
        if np.max(np.abs(forward(v) - y_hat)) > 1e-9 * (1.0 + np.max(np.abs(y_hat))):
            raise PenalizationSolveFailure("bisection did not close the implicit step")
        return v

    return bisect


def resolve_implicit(
    phi: ConvexSpec,
    psi: ConvexSpec,
    alpha: float,
    eps: float,
    dq: float,
    y_hat: np.ndarray,
    method: str = "auto",
) -> np.ndarray:
    """Solve v + dq [alpha D phi_eps(v) + (1 - alpha) D psi_eps(v)] = y_hat once."""
    return implicit_step(phi, psi, alpha, eps, dq, method)(y_hat)


@dataclass
class SolutionField:
    """Backward solution on the grid, stored level by level.

    The level format follows the backend that built the levels, not the
    noise: tree levels hold one value per lattice node, regression levels
    one value per evaluation path, even on a tree bundle.  H_levels
    records the driver value the predictor actually used, so Y, Z, U, H
    satisfy the step identity Y_{i+1} = Y_i - (H_i - U_i) dQ_i + Z_i dB_i
    exactly on lattices.  implicit_method names how the penalty step
    was solved: 'closed_form', 'bisect' or 'explicit'.
    """

    eps: float
    mode: str
    backend_kind: str
    Y_levels: list
    Z_levels: list
    U_levels: list
    H_levels: list
    dq: np.ndarray
    implicit_method: str
    _expanded: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def y0(self) -> float:
        return float(np.mean(self.Y_levels[0]))

    @property
    def kinc_levels(self) -> list:
        return [u * q for u, q in zip(self.U_levels, self.dq)]

    @property
    def lattice(self) -> bool:
        """Levels hold lattice node values from exact expectations."""
        return self.backend_kind == "tree"

    def expand(self, bundle: PathBundle, levels: list) -> np.ndarray:
        """Levels built by this solution's backend as a (paths, nodes) array.

        This is the only route from levels to paths: lattice levels are
        gathered along the bundle's walks, per-path levels are stacked.
        """
        if self.lattice:
            return bundle.on_paths(levels)
        return np.stack(levels, axis=1)

    def paths(self, bundle: PathBundle) -> dict:
        """Y, Z, U, H on the bundle's evaluation paths.

        Expanded once per bundle object; later calls return the same
        read-only arrays.
        """
        if self._expanded is None or self._expanded[0] is not bundle:
            arrays = {
                "Y": self.expand(bundle, self.Y_levels),
                "Z": self.expand(bundle, self.Z_levels),
                "U": self.expand(bundle, self.U_levels),
                "H": self.expand(bundle, self.H_levels),
            }
            for arr in arrays.values():
                arr.flags.writeable = False
            self._expanded = (bundle, arrays)
        return dict(self._expanded[1])


def solve_penalized(
    bundle: PathBundle,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    eps: float,
    cfg: SolverConfig,
) -> SolutionField:
    """One backward solve at a fixed penalization level eps."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    for label, pot in (("phi", phi), ("psi", psi)):
        at0 = float(np.asarray(potential_value(pot, np.zeros(1))).ravel()[0])
        if not np.isfinite(at0):
            raise DomainError(
                f"{label} is infinite at 0; recenter the potential first"
            )
    backend = make_backend(bundle, cfg)
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    alpha = bundle.alpha
    active = bundle.A[:-1] <= 1.0 / eps  # budget indicator at the left node

    moll = MollifierConfig(eps=eps, n_q=cfg.mollifier_nq) if cfg.mollify else None

    def driver(i, y, z):
        if moll is None:
            return combined_driver(gen, alpha[i], t[i], y, z)
        f = mollify_driver(gen, moll, t[i], y, z)
        g = mollify_driver_g(gen, moll, t[i], y)
        return alpha[i] * f + (1.0 - alpha[i]) * g

    if cfg.mode == "explicit" and np.any(dq[active] / eps > 1.0):
        warnings.warn(
            f"explicit penalty step with max dQ/eps = {np.max(dq[active]) / eps:.3g} > 1",
            StiffnessWarning,
        )
    method = "explicit" if cfg.mode == "explicit" else implicit_method(phi, psi, eps)
    steps = {}  # one implicit_step per distinct (alpha_i, dQ_i)

    y_levels = [None] * (n + 1)
    z_levels = [None] * n
    u_levels = [None] * n
    h_levels = [None] * n
    y_levels[n] = np.asarray(
        terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float
    )
    if not np.all(np.isfinite(y_levels[n])):
        raise DomainError("terminal condition evaluated to non-finite values")

    for i in reversed(range(n)):
        ce = backend.ce(i, y_levels[i + 1])
        z = backend.z(i, y_levels[i + 1])
        if active[i]:
            y_hat = ce
            h = np.zeros_like(ce)
            for _ in range(cfg.sweeps):
                h = driver(i, y_hat, z)
                y_hat = ce + h * dq[i]
            if method == "explicit":
                u = convex.combined_gradient(phi, psi, alpha[i], eps, y_hat)
                y = y_hat - dq[i] * u
            else:
                key = (alpha[i], dq[i])
                if key not in steps:
                    steps[key] = implicit_step(phi, psi, alpha[i], eps, dq[i], method)
                y = steps[key](y_hat)
                u = (y_hat - y) / dq[i]
        else:
            y, h = ce, np.zeros_like(ce)
            u = np.zeros_like(ce)
        y_levels[i], z_levels[i], u_levels[i], h_levels[i] = y, z, u, h

    return SolutionField(
        eps=float(eps),
        mode=cfg.mode,
        backend_kind=cfg.ce,
        Y_levels=y_levels,
        Z_levels=z_levels,
        U_levels=u_levels,
        H_levels=h_levels,
        dq=dq,
        implicit_method=method,
    )


@dataclass
class SequenceResult:
    eps_list: list
    solutions: dict
    gaps: list
    penalty_energy: dict


def solve_sequence(
    bundle: PathBundle,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    cfg: SolverConfig,
) -> SequenceResult:
    """Solve along the decreasing eps schedule on common random numbers.

    The bundle is shared by every solve, so successive gaps measure the
    penalization error alone.  Reported per adjacent pair: the sup gap of
    Y over all nodes and the L2-in-time gap of Z along evaluation paths.
    Also logs the penalty energy eps * sum_i mean |U_i|^2 dQ_i, which
    stays bounded along the schedule when penalization converges.
    """
    solutions = {}
    energy = {}
    dt = bundle.dt
    dq = bundle.dq
    for eps in cfg.eps_schedule:
        sol = solve_penalized(bundle, phi, psi, gen, terminal, eps, cfg)
        solutions[eps] = sol
        u2 = np.array([float(np.mean(u * u)) for u in sol.U_levels])
        energy[eps] = float(eps * np.sum(u2 * dq))
    gaps = []
    for e_coarse, e_fine in zip(cfg.eps_schedule, cfg.eps_schedule[1:]):
        a, b = solutions[e_coarse], solutions[e_fine]
        y_gap = max(
            float(np.max(np.abs(ya - yb)))
            for ya, yb in zip(a.Y_levels, b.Y_levels)
        )
        # Z alone: caching full fields of every eps here would hold them
        # all through verification
        za = a.expand(bundle, a.Z_levels)
        zb = b.expand(bundle, b.Z_levels)
        z_gap = float(np.sqrt(np.sum(np.mean((za - zb) ** 2, axis=0) * dt)))
        gaps.append(
            {
                "eps_coarse": float(e_coarse),
                "eps_fine": float(e_fine),
                "y_gap": y_gap,
                "z_gap": z_gap,
            }
        )
    return SequenceResult(
        eps_list=list(cfg.eps_schedule),
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
    i_eps = int(np.searchsorted(t, cfg.eps))
    if i_eps >= n + 1:
        raise DomainError("smoothing eps lies beyond the horizon")
    if i_eps == 0:
        i_eps = 1  # eps > 0 and t_0 = 0, so the window never starts at 0
    scale = float(bundle.Q[i_eps])

    # backward accumulation of the kernel sum and its deterministic mass
    g_acc = np.asarray(u_levels[n], dtype=float).copy()
    w_acc = 1.0  # closed-form tail on the held terminal value
    m_levels = [None] * (n + 1)
    m_levels[n] = g_acc / w_acc
    for i in reversed(range(n)):
        decay = float(np.exp(-dq[i] / scale))
        w_i = dq[i] / scale
        g_acc = w_i * np.asarray(u_levels[i], dtype=float) + decay * backend.ce(i, g_acc)
        w_acc = w_i + decay * w_acc
        m_levels[i] = g_acc / w_acc
    for i in range(i_eps - 1, -1, -1):
        m_levels[i] = backend.ce(i, m_levels[i + 1])

    n_levels = []
    r_levels = []
    for i in range(n):
        if t[i] >= cfg.eps:
            n_levels.append((np.asarray(u_levels[i], dtype=float) - m_levels[i]) / scale)
        else:
            n_levels.append(np.zeros_like(m_levels[i]))
        r_levels.append(backend.z(i, m_levels[i + 1]))

    return SmoothedProcess(
        gamma=float(np.mean(m_levels[0])),
        M_levels=m_levels,
        N_levels=n_levels,
        R_levels=r_levels,
        i_eps=i_eps,
        scale=scale,
    )
