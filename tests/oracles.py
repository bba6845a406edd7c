"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's own code paths: proximal points
come from staged grid minimization of the defining objective, and
mollified drivers from a high-resolution quadrature with its own
normalization.  The results.csv writer is the plain per-row csv.writer
rendering, and the eps schedule is solved by one backward sweep per eps
with a per-segment implicit inverse.  Regression fits rebuild the
Vandermonde basis and call lstsq on every fit, and the smoothing
operator runs its kernel sum over every date before a second pass.
Slow and simple on purpose.
"""

import csv

import numpy as np

from bsvilab import convex
from bsvilab.errors import DomainError
from bsvilab.generators import (
    MollifierConfig,
    combined_driver,
    mollify_driver,
    mollify_driver_g,
)
from bsvilab.solver import SmoothedProcess, make_backend


def prox_oracle(potential, eps, y, half_width=None):
    """Three-stage grid minimization of v -> (y - v)^2/(2 eps) + phi(v).

    Returns (argmin, min value).  Stages refine from ~1e-2 to ~1e-8 grid
    spacing, so results are trustworthy to about 1e-7.
    """
    y = float(y)
    eps = float(eps)
    if half_width is None:
        half_width = abs(y) + 10.0 * eps + 1.0

    def objective(v):
        return (y - v) ** 2 / (2.0 * eps) + potential(v)

    center = y
    width = half_width
    for _ in range(3):
        grid = np.linspace(center - width, center + width, 2001)
        vals = objective(grid)
        k = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.nan)))
        center = float(grid[k])
        width = 2.0 * width / 2000.0
    return center, float(objective(np.asarray(center)))


def envelope_oracle(potential, eps, y):
    return prox_oracle(potential, eps, y)[1]


def gradient_oracle(potential, eps, y):
    j, _ = prox_oracle(potential, eps, y)
    return (float(y) - j) / float(eps)


def quadratic_potential(c):
    return lambda v: 0.5 * c * np.square(v)


def indicator_potential(a, b):
    def phi(v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= a) & (v <= b), 0.0, np.inf)

    return phi


def abs_potential():
    return lambda v: np.abs(v)


def mollify_oracle(F, eps, t, y, z, n_q=10_000):
    """High-resolution midpoint rendering of the mollified driver."""
    h = 2.0 / n_q
    u = -1.0 + (np.arange(n_q) + 0.5) * h
    raw = np.exp(-1.0 / (1.0 - u * u))
    w = raw / np.sum(raw)
    zc = z / max(1.0, eps * abs(z))
    yy = y - eps * u
    keep = (eps * np.abs(np.asarray(F(t, yy, np.zeros_like(yy)), dtype=float)) <= 1.0)
    fv = np.asarray(F(t, yy, np.full_like(yy, zc)), dtype=float)
    return float(np.sum(w * fv * keep))


def reflection_oracle(t_nodes, terminal, push, horizon):
    """Projection solution min(0, terminal + push * (T - t)) per node."""
    return np.minimum(0.0, terminal + push * (horizon - np.asarray(t_nodes)))


def results_csv_oracle(path, result):
    """results.csv of a run, one csv.writer row per node or path."""

    def fmt(x):
        return f"{float(x):.17g}"

    sol = result.seq.solutions[result.exp.solver.eps_schedule[-1]]
    bundle = result.bundle
    t = bundle.grid.nodes
    n = bundle.grid.steps
    kinc = sol.kinc_levels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "Q", "alpha", "node_or_path", "Y", "Z", "U", "Kinc"])
        for i in range(n + 1):
            y_level = np.atleast_1d(sol.Y_levels[i])
            last = i == n
            for j in range(y_level.size):
                writer.writerow(
                    [
                        i,
                        fmt(t[i]),
                        fmt(bundle.Q[i]),
                        "" if last else fmt(bundle.alpha[i]),
                        j,
                        fmt(y_level[j]),
                        "" if last else fmt(np.atleast_1d(sol.Z_levels[i])[j]),
                        "" if last else fmt(np.atleast_1d(sol.U_levels[i])[j]),
                        "" if last else fmt(np.atleast_1d(kinc[i])[j]),
                    ]
                )


def implicit_step_oracle(phi, psi, alpha, eps, dq, method):
    """y_hat -> v with v + dq D Psi_eps(v) = y_hat.

    method "closed_form" inverts segment by segment between the gradient
    breakpoints; "bisect" halves 200 times from the bracket |v| <= r,
    r = |y_hat - forward(0)|: forward(v) - forward(0) moves at least as
    fast as v, since the gradients are monotone.
    """

    def forward(v):
        return v + dq * convex.combined_gradient(phi, psi, alpha, eps, v)

    if method == "closed_form":
        breaks_phi = convex.gradient_breakpoints(phi, eps)
        breaks_psi = convex.gradient_breakpoints(psi, eps)
        xs = np.unique(np.asarray(breaks_phi + breaks_psi, dtype=float))
        if xs.size == 0:
            at0 = float(forward(np.asarray(0.0)))
            slope = float(forward(np.asarray(1.0))) - at0
            return lambda y_hat: (np.asarray(y_hat, dtype=float) - at0) / slope
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

    def bisect(y_hat):
        y_hat = np.asarray(y_hat, dtype=float)
        hi = np.abs(y_hat - forward(np.zeros_like(y_hat)))
        lo = -hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_big = forward(mid) > y_hat
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        v = 0.5 * (lo + hi)
        if np.max(np.abs(forward(v) - y_hat)) > 1e-9 * (1.0 + np.max(np.abs(y_hat))):
            raise AssertionError("bisection did not close the implicit step")
        return v

    return bisect


def local_sup_f(gen, rho, t):
    """Grid maximum of |F(t, ., 0)| over the ball |y| <= rho."""
    if not (np.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"rho must be finite and >= 0, got {rho}")
    grid = np.concatenate([np.linspace(-rho, rho, 1000), [-rho, rho]])
    return float(np.max(np.abs(gen.F(t, grid, np.zeros_like(grid)))))


def solve_penalized_oracle(bundle, phi, psi, gen, terminal, eps, cfg):
    """One backward sweep at a single eps; levels as a dict of lists."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    backend = make_backend(bundle, cfg)
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    alpha = bundle.alpha
    active = bundle.A[:-1] <= 1.0 / eps

    moll = MollifierConfig(eps=eps) if cfg.mollify else None

    def driver(i, y, z):
        if moll is None:
            return combined_driver(gen, alpha[i], t[i], y, z)
        f = mollify_driver(gen, moll, t[i], y, z)
        g = mollify_driver_g(gen, moll, t[i], y)
        return alpha[i] * f + (1.0 - alpha[i]) * g

    y_levels = [None] * (n + 1)
    z_levels = [None] * n
    u_levels = [None] * n
    h_levels = [None] * n
    y_levels[n] = np.asarray(terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float)
    if not np.all(np.isfinite(y_levels[n])):
        raise DomainError("terminal condition evaluated to non-finite values")

    for i in reversed(range(n)):
        ce = backend.ce(i, y_levels[i + 1])
        z = backend.z(i, y_levels[i + 1])
        if active[i]:
            h = driver(i, ce, z)
            y_hat = ce + h * dq[i]
            y = implicit_step_oracle(phi, psi, alpha[i], eps, dq[i], "closed_form")(y_hat)
            u = (y_hat - y) / dq[i]
        else:
            y, h = ce, np.zeros_like(ce)
            u = np.zeros_like(ce)
        y_levels[i], z_levels[i], u_levels[i], h_levels[i] = y, z, u, h

    return {
        "Y_levels": y_levels,
        "Z_levels": z_levels,
        "U_levels": u_levels,
        "H_levels": h_levels,
    }


def solve_sequence_oracle(bundle, phi, psi, gen, terminal, cfg):
    """The eps schedule solved one eps at a time, keyed by eps."""
    return {
        eps: solve_penalized_oracle(bundle, phi, psi, gen, terminal, eps, cfg)
        for eps in cfg.eps_schedule
    }


def regression_fit_oracle(b, degree, target):
    """Least-squares fit of target on {1, b, ..., b^degree}, one lstsq per row."""
    target = np.asarray(target, dtype=float)
    if target.ndim == 2:
        return np.stack([regression_fit_oracle(b, degree, row) for row in target])
    x = np.vander(b, degree + 1, increasing=True)
    beta = np.linalg.lstsq(x, target, rcond=None)[0]
    return x @ beta


def smoothing_operator_oracle(bundle, backend, u_levels, cfg):
    """The smoothing operator as two backward loops and a forward one."""
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    i_eps = int(np.searchsorted(t, cfg.eps))
    if i_eps >= n + 1:
        raise DomainError("smoothing eps lies beyond the horizon")
    scale = float(bundle.Q[i_eps])

    g_acc = np.asarray(u_levels[n], dtype=float).copy()
    w_acc = 1.0
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
