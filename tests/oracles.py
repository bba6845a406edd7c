"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's own code paths: proximal points
come from staged grid minimization of the defining objective, and
mollified drivers from a high-resolution quadrature with its own
normalization.  The results.csv writer is the plain per-row csv.writer
rendering.  Slow and simple on purpose.
"""

import csv

import numpy as np


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
