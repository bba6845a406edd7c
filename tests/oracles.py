"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's own code paths: proximal points
come from staged grid minimization of the defining objective.  The
results.csv writer is the plain per-row csv.writer rendering, and the
eps schedule is solved by one backward sweep per eps with a per-segment
implicit inverse, and its penalty energy and gaps are read level by
level.  Regression fits rebuild the
Vandermonde basis and call lstsq on every fit, and the smoothing
operator runs its kernel sum over every date before a second pass.
The verifier oracle runs every check on whole (paths, nodes) arrays,
each report on its own.  On a tree the path means of node functions
are exact expectations instead: every level's cells are weighted by
their binomial probabilities, built row by row by Pascal's rule, and
each level is summed on its own.  Slow and simple on purpose.
"""

import csv
from types import SimpleNamespace

import numpy as np

from bsvilab import convex, verify
from bsvilab import rng as rngmod
from bsvilab.errors import DomainError
from bsvilab.generators import combined_driver
from bsvilab.paths import gamma_shift
from bsvilab.smoothing import smoothing_operator
from bsvilab.solver import level_cells, make_backend


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "Q", "alpha", "node_or_path", "Y", "Z", "U", "Kinc"])
        for i in range(n + 1):
            y_level = sol.level("Y", i)
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
                        "" if last else fmt(sol.level("Z", i)[j]),
                        "" if last else fmt(sol.level("U", i)[j]),
                        "" if last else fmt(sol.level("U", i)[j] * bundle.dq[i]),
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


def solve_penalized_oracle(bundle, phi, psi, gen, terminal, eps, cfg):
    """One backward sweep at a single eps; levels as a dict of lists."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    backend = make_backend(bundle, cfg)
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    alpha = bundle.alpha

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
        h = combined_driver(gen, alpha[i], t[i], ce, z)
        y_hat = ce + h * dq[i]
        y = implicit_step_oracle(phi, psi, alpha[i], eps, dq[i], "closed_form")(y_hat)
        u = (y_hat - y) / dq[i]
        y_levels[i], z_levels[i], u_levels[i], h_levels[i] = y, z, u, h

    return {
        "Y_levels": y_levels,
        "Z_levels": z_levels,
        "U_levels": u_levels,
        "H_levels": h_levels,
    }


def pascal_rows_oracle(n):
    """The node probabilities C(i, k) 2^-i of levels 0, ..., n of a
    binomial tree, one array per level, by Pascal's rule with the
    halving at every level: p_{i+1, k} = (p_{i, k-1} + p_{i, k}) / 2."""
    rows = [np.ones(1)]
    for _ in range(n):
        r = rows[-1]
        nxt = np.empty(r.size + 1)
        nxt[0], nxt[-1] = 0.5 * r[0], 0.5 * r[-1]
        nxt[1:-1] = 0.5 * (r[:-1] + r[1:])
        rows.append(nxt)
    return rows


def level_mean_oracle(row, values):
    """sum_k p_k f_k of one level, the level summed on its own by
    np.add.reduceat as the verifier sums each level."""
    return np.add.reduceat(row * values, [0])[0]


def exact_oracle(sol, bundle):
    """Whether sol's path means are exact node expectations: lattice
    levels on a binomial tree."""
    return sol.lattice and bundle.kind == "tree"


def exact_means_oracle(levels):
    """The exact expectation of each level of a list of lattice levels
    0, 1, ...: per-level weighted sums, level by level."""
    rows = pascal_rows_oracle(len(levels) - 1)
    return np.array([level_mean_oracle(row, level) for row, level in zip(rows, levels)])


def z_gap_oracle(sol_a, sol_b, bundle):
    """sqrt(sum_i mean|Z^a_i - Z^b_i|^2 dt_i): exact node expectations on
    a tree, path means of whole (paths, steps) arrays elsewhere."""
    n = bundle.grid.steps
    sq = [(sol_a.level("Z", i) - sol_b.level("Z", i)) ** 2 for i in range(n)]
    if exact_oracle(sol_a, bundle):
        means = exact_means_oracle(sq)
    else:
        means = np.mean(_levels_on_paths(sol_a, bundle, sq), axis=0)
    return float(np.sqrt(np.sum(means * bundle.dt)))


def solve_sequence_oracle(bundle, phi, psi, gen, terminal, cfg):
    """The eps schedule solved one eps at a time: the levels keyed by
    eps, the penalty energy eps * sum_i mean(U_i^2) dQ_i one level at a
    time, and for each adjacent pair the sup gap of Y over every cell
    and the L2-in-time gap of Z from its per-step path means."""
    schedule = cfg.eps_schedule
    solutions = {
        eps: solve_penalized_oracle(bundle, phi, psi, gen, terminal, eps, cfg)
        for eps in schedule
    }
    energy = {}
    for eps, sol in solutions.items():
        means = np.array([np.mean(u**2) for u in sol["U_levels"]])
        energy[eps] = float(eps * np.sum(means * bundle.dq))
    lattice = cfg.ce == "tree"
    gaps = []
    for coarse, fine in zip(schedule, schedule[1:]):
        a, b = solutions[coarse], solutions[fine]
        y_gap = max(float(np.max(np.abs(ya - yb))) for ya, yb in zip(a["Y_levels"], b["Y_levels"]))
        sq = [(za - zb) ** 2 for za, zb in zip(a["Z_levels"], b["Z_levels"])]
        if lattice and bundle.kind == "tree":
            means = exact_means_oracle(sq)
        else:
            on_paths = _lattice_on_paths(bundle, sq) if lattice else np.stack(sq, axis=1)
            means = _row_by_row_mean(on_paths)
        z_gap = float(np.sqrt(np.sum(means * bundle.dt)))
        gaps.append({"eps_coarse": coarse, "eps_fine": fine, "y_gap": y_gap, "z_gap": z_gap})
    return SimpleNamespace(solutions=solutions, gaps=gaps, penalty_energy=energy)


def _row_by_row_mean(a):
    """Column means of a (paths, steps) array, each column summed one
    path after another in path order, as numpy sums the columns of a
    (paths, >= 2) block."""
    acc = a[0].copy()
    for row in a[1:]:
        acc += row
    return acc / len(a)


def regression_fit_oracle(b, degree, target):
    """Least-squares fit of target on {1, b, ..., b^degree}, one lstsq per row."""
    target = np.asarray(target, dtype=float)
    if target.ndim == 2:
        return np.stack([regression_fit_oracle(b, degree, row) for row in target])
    x = np.vander(b, degree + 1, increasing=True)
    beta = np.linalg.lstsq(x, target, rcond=None)[0]
    return x @ beta


def smoothing_operator_oracle(bundle, backend, u_levels, eps):
    """The smoothing operator as two backward loops and a forward one.
    On a tree the drift is (M_i - CE_i[M_{i+1}]) / dQ_i from eps on, so
    that (gamma, N, R) rebuilds M node by node; elsewhere it is
    (X_i - M_i) / scale."""
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    i_eps = int(np.searchsorted(t, eps))
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
    lattice = backend.kind == "tree" and bundle.kind == "tree"
    for i in range(n):
        if t[i] >= eps and lattice:
            n_levels.append((m_levels[i] - backend.ce(i, m_levels[i + 1])) / dq[i])
        elif t[i] >= eps:
            n_levels.append((np.asarray(u_levels[i], dtype=float) - m_levels[i]) / scale)
        else:
            n_levels.append(np.zeros_like(m_levels[i]))
        r_levels.append(backend.z(i, m_levels[i + 1]))

    return SimpleNamespace(
        gamma=float(np.mean(m_levels[0])),
        M_levels=m_levels,
        N_levels=n_levels,
        R_levels=r_levels,
        i_eps=i_eps,
        scale=scale,
    )


def _levels_on_paths(sol, bundle, levels):
    """Levels 0, 1, ... of a list on the evaluation paths, as a (paths,
    len(levels)) array; per-path levels are stacked."""
    if not sol.lattice:
        return np.stack(levels, axis=1)
    return _lattice_on_paths(bundle, levels)


def _lattice_on_paths(bundle, levels):
    """Lattice levels 0, 1, ... of a list on the evaluation paths.  A
    path's node at level i is its count of up moves before i, read off dB."""
    node = np.zeros((bundle.n_paths, len(levels)), dtype=np.int64)
    node[:, 1:] = np.cumsum(bundle.increments(0, len(levels) - 1) > 0.0, axis=1)
    return np.stack([level[node[:, i]] for i, level in enumerate(levels)], axis=1)


def _paths_oracle(sol, bundle):
    """Y, Z, U, H of a solution as whole (paths, nodes) arrays."""
    n = bundle.grid.steps
    return {
        name: _levels_on_paths(sol, bundle, [sol.level(name, i) for i in range(n + (name == "Y"))])
        for name in "YZUH"
    }


def _pair_max_oracle(a):
    suffix_min = np.minimum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]
    return float(np.max(a[..., :-1] - suffix_min[..., 1:]))


def _mixed_potential_oracle(phi, psi, alpha, x, eps_pen):
    vp = convex.envelope(phi, eps_pen, x)
    vq = convex.envelope(psi, eps_pen, x)
    with np.errstate(invalid="ignore"):
        left = np.where(alpha > 0.0, alpha * vp, 0.0)
        right = np.where(alpha < 1.0, (1.0 - alpha) * vq, 0.0)
    return left + right


def _variational_oracle(pw, h_fresh, psi_y, gamma0, n_steps, r_steps, name, phi, psi,
                        bundle, q, shift, tol, eps):
    n = bundle.grid.steps
    db = bundle.increments(0, n)
    m = np.empty((bundle.n_paths, n + 1))
    m[:, 0] = gamma0
    m[:, 1:] = gamma0 + np.cumsum(-n_steps * bundle.dq + r_steps * db, axis=1)
    psi_m = _mixed_potential_oracle(phi, psi, bundle.alpha, m[:, :-1], eps)
    m_minus_y, r_minus_z = m - pw["Y"], r_steps - pw["Z"]
    gamma = np.sqrt(m_minus_y ** 2 + shift)
    g_pow = gamma[:, :-1] ** (q - 2.0)
    diff = m_minus_y[:, :-1]
    incr = (
        0.5 * q * (q - 1.0) * g_pow * r_minus_z ** 2 * bundle.dt
        + q * g_pow * psi_y * bundle.dq
        - q * g_pow * psi_m * bundle.dq
        - q * g_pow * diff * (n_steps - h_fresh) * bundle.dq
        + q * g_pow * diff * r_minus_z * db
    )
    a = np.mean(gamma**q, axis=0).copy()
    a[1:] -= np.cumsum(np.mean(incr, axis=0))
    worst = _pair_max_oracle(a)
    monitors = {
        "gamma_floor_margin": float(np.min(gamma) - np.sqrt(shift)),
        "terminal_gamma_sq_minus_shift": float(np.mean(gamma[:, -1] ** 2) - shift),
        "driver_eval_gap": float(np.max(np.abs(pw["H"] - h_fresh))),
    }
    return verify.VerificationReport(name, bool(worst <= tol), worst, tol, monitors), m_minus_y


def _exact_variational_oracle(sol, bundle, phi, psi, gen, m_levels, n_levels, r_levels,
                              name, q, shift, tol, driver_gap):
    """One variational check of a process given by its lattice levels M,
    N and R on a tree, level by level: each node mean and each step mean
    is the level's exact expectation, and E[(R - Z) dB | node] = 0
    leaves the step's drift alone."""
    n = bundle.grid.steps
    rows = pascal_rows_oracle(n)
    t, alpha, dt, dq = bundle.grid.nodes, bundle.alpha, bundle.dt, bundle.dq
    node_means, step_means, gamma_min = [], [], np.inf
    for i in range(n + 1):
        y, m = sol.level("Y", i), m_levels[i]
        gamma = np.sqrt((m - y) ** 2 + shift)
        node_means.append(level_mean_oracle(rows[i], gamma ** q))
        gamma_min = min(gamma_min, float(np.min(gamma)))
        if i == n:
            break
        z = sol.level("Z", i)
        h_fresh = combined_driver(gen, alpha[i], t[i], y, z)
        psi_y = _mixed_potential_oracle(phi, psi, alpha[i], y, sol.eps)
        psi_m = _mixed_potential_oracle(phi, psi, alpha[i], m, sol.eps)
        g_pow = gamma ** (q - 2.0)
        rz, diff = r_levels[i] - z, m - y
        drift = (
            0.5 * q * (q - 1.0) * g_pow * rz ** 2 * dt[i]
            + q * g_pow * psi_y * dq[i]
            - q * g_pow * psi_m * dq[i]
            - q * g_pow * diff * (n_levels[i] - h_fresh) * dq[i]
        )
        step_means.append(level_mean_oracle(rows[i], drift))
    a = np.array(node_means)
    a[1:] -= np.cumsum(step_means)
    worst = _pair_max_oracle(a)
    monitors = {
        "gamma_floor_margin": float(gamma_min - np.sqrt(shift)),
        "terminal_gamma_sq_minus_shift": float(level_mean_oracle(rows[n], gamma ** 2) - shift),
        "driver_eval_gap": driver_gap,
    }
    return verify.VerificationReport(name, bool(worst <= tol), worst, tol, monitors)


def _candidate_oracle(sol, bundle, phi, psi, gen):
    """Y, Z, U and H of a solution on whole arrays, with H(t, Y, Z) taken
    step by step and Psi(t, Y) at the solution's eps."""
    pw = _paths_oracle(sol, bundle)
    t, alpha = bundle.grid.nodes, bundle.alpha
    h_fresh = np.empty_like(pw["Z"])
    for r in range(bundle.grid.steps):
        h_fresh[:, r] = combined_driver(gen, alpha[r], t[r], pw["Y"][:, r], pw["Z"][:, r])
    psi_y = _mixed_potential_oracle(phi, psi, alpha, pw["Y"][:, :-1], sol.eps)
    return pw, h_fresh, psi_y


def variational_oracle(sol, bundle, phi, psi, gen, process, name, q, delta, tol):
    """One variational check at the solution's eps on whole arrays, for
    a process given as (gamma, N, R) with (paths, steps) N and R."""
    pw, h_fresh, psi_y = _candidate_oracle(sol, bundle, phi, psi, gen)
    gamma0, n_steps, r_steps = process
    report, _ = _variational_oracle(
        pw, h_fresh, psi_y, gamma0, n_steps, r_steps, name, phi, psi,
        bundle, q, gamma_shift(delta, q), tol, sol.eps,
    )
    return report


def battery_oracle(sol, bundle, backend, phi, psi, gen, p, exact=None):
    """The battery on whole (paths, nodes) arrays, every report computed
    in full.  On a tree (exact, decided by exact_oracle unless given)
    the zero and smoothed processes, whose M are lattice functions, are
    checked level by level at exact node expectations."""
    exact = exact_oracle(sol, bundle) if exact is None else exact
    tol = verify.default_tolerance(bundle)
    pw, h_fresh, psi_y = _candidate_oracle(sol, bundle, phi, psi, gen)
    driver_gap = float(np.max(np.abs(pw["H"] - h_fresh)))
    n = bundle.grid.steps
    horizon = bundle.grid.horizon
    smooth_eps = min(max(4.0 * float(np.max(bundle.dt)), 0.05 * horizon), horizon)
    sm = smoothing_operator(backend, sol.Y, smooth_eps)
    sm_levels = [[sm.level(name, i) for i in range(n + (name == "M"))] for name in "MNR"]
    sm_n, sm_r = (_levels_on_paths(sol, bundle, levels) for levels in sm_levels[1:])
    zeros = np.zeros((bundle.n_paths, n))
    zero_levels = [np.zeros(sol.level("Y", i).size) for i in range(n + 1)]
    processes = [
        ("zero", 0.0, zeros, zeros, [zero_levels, zero_levels, zero_levels]),
        ("reconstruction", float(pw["Y"][0, 0]), pw["H"] - pw["U"], pw["Z"], None),
        ("smoothed", sm.gamma, sm_n, sm_r, sm_levels),
    ]
    reports = []
    for label, gamma0, n_steps, r_steps, lattice in processes:
        for q in sorted({2.0, min(float(p), 2.0)}):
            # Gamma's shift is 0 at q = 2, so one delta stands for all
            for delta in verify.DELTAS if q < 2.0 else verify.DELTAS[:1]:
                name = f"variational[{label}] q={q:g}" + (f" delta={delta:g}" if q < 2.0 else "")
                if exact and lattice is not None:
                    reports.append(_exact_variational_oracle(
                        sol, bundle, phi, psi, gen, *lattice, name, q, gamma_shift(delta, q),
                        tol, driver_gap,
                    ))
                    continue
                rep, m_minus_y = _variational_oracle(
                    pw, h_fresh, psi_y, gamma0, n_steps, r_steps, name, phi, psi,
                    bundle, q, gamma_shift(delta, q), tol, sol.eps,
                )
                reports.append(rep)
        if label == "reconstruction":
            collapse = float(np.max(np.mean(m_minus_y ** 2, axis=0)))
    reports.append(verify.VerificationReport(
        "reconstruction-collapse", bool(collapse <= tol), collapse, tol, {}
    ))
    return reports


def ito_oracle(sol, bundle, p, delta, tol, pathwise=None):
    """The norm-power identity on whole arrays, path by path on lattice
    solutions unless pathwise says otherwise."""
    pw = _paths_oracle(sol, bundle)
    y_paths, r_paths = pw["Y"], pw["Z"]
    drift_incr = (pw["H"] - pw["U"]) * bundle.dq
    yl = y_paths[:, :-1]
    base = yl * yl + delta
    v_nodes = (y_paths * y_paths + delta) ** (p / 2.0)
    if p == 2.0:
        quad = r_paths * r_paths * bundle.dt
        weight = np.ones_like(base)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = (
                0.5 * p
                * np.where(
                    base > 0.0,
                    base ** ((p - 4.0) / 2.0)
                    * ((p - 1.0) * r_paths**2 * yl**2 + delta * r_paths**2),
                    0.0,
                )
                * bundle.dt
            )
            weight = np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)
    db = bundle.increments(0, bundle.grid.steps)
    incr = quad - p * weight * yl * drift_incr + p * weight * yl * r_paths * db
    a = v_nodes.copy()
    a[:, 1:] -= np.cumsum(incr, axis=1)
    if not (sol.lattice if pathwise is None else pathwise):
        a = np.mean(a, axis=0, keepdims=True)
    worst = float(np.max(np.max(a, axis=-1) - np.min(a, axis=-1)))
    return verify.VerificationReport(
        f"ito-identity p={p:g} delta={delta:g}", bool(worst <= tol), worst, float(tol),
        {"mean_abs_residual": float(np.mean(np.abs(a - a[:, :1])))},
    )


def random_step_process(offsets, seed, scale=1.0, index=0):
    """Piecewise-constant (N, R) with Gaussian values on 8 blocks, a
    probe of the verifier, in the layout offsets; a window's levels lay
    the per-step values over their cells (level_cells).  Its draws come
    from the auxiliary stream AUX_NS + 1000 + index."""
    gen = rngmod.keyed_stream(seed, rngmod.AUX_NS + 1000 + index)
    widths = np.diff(np.linspace(0, len(offsets) - 2, 9).astype(int))
    # block k draws its N value, then its R value
    nn, rr = np.repeat(scale * gen.standard_normal((8, 2)), widths, axis=0).T
    gamma = float(scale * gen.standard_normal())

    def steps(a, e):
        return level_cells(offsets, nn, a, e), level_cells(offsets, rr, a, e)

    return verify.TestProcess(gamma, steps, label=f"random-step-{index}")


def random_step_process_oracle(bundle, seed, scale=1.0, index=0):
    """(gamma, N, R) of a random-step process, N and R as whole (paths,
    steps) arrays."""
    gen = rngmod.keyed_stream(seed, rngmod.AUX_NS + 1000 + index)
    n = bundle.grid.steps
    edges = np.linspace(0, n, 9).astype(int)
    nn, rr = np.zeros(n), np.zeros(n)
    for k in range(8):
        nn[edges[k]:edges[k + 1]] = scale * gen.standard_normal()
        rr[edges[k]:edges[k + 1]] = scale * gen.standard_normal()
    gamma = float(scale * gen.standard_normal())
    shape = (bundle.n_paths, n)
    return gamma, np.broadcast_to(nn, shape), np.broadcast_to(rr, shape)


def contraction_oracle(sol_a, sol_b, bundle, q, tol, exact=None):
    """The contraction on whole (paths, nodes) arrays, or on a tree level
    by level at exact node expectations."""
    if exact_oracle(sol_a, bundle) if exact is None else exact:
        n = bundle.grid.steps
        gaps = [np.abs(sol_a.level("Y", i) - sol_b.level("Y", i)) for i in range(n + 1)]
        weight = np.exp(q * bundle.V)
        worst = _pair_max_oracle(
            exact_means_oracle([w * gap ** q for w, gap in zip(weight, gaps)])
        )
        end_gap = level_mean_oracle(pascal_rows_oracle(n)[n], gaps[n])
    else:
        pa = _paths_oracle(sol_a, bundle)["Y"]
        pb = _paths_oracle(sol_b, bundle)["Y"]
        worst = _pair_max_oracle(np.mean(np.exp(q * bundle.V) * np.abs(pa - pb) ** q, axis=0))
        end_gap = np.mean(np.abs(pa[:, -1] - pb[:, -1]))
    return verify.VerificationReport(
        f"contraction eps {sol_a.eps:g} vs {sol_b.eps:g}", bool(worst <= tol), worst, float(tol),
        {
            "initial_gap": float(np.abs(sol_a.y0 - sol_b.y0)),
            "terminal_gap": float(end_gap),
            "gap_ratio": float(np.abs(sol_a.y0 - sol_b.y0) / max(end_gap, 1e-300)),
        },
    )


def bounds_oracle(sol, bundle, gen, terminal_values, p):
    """The a-priori and energy bounds on whole arrays."""
    y, z = (_paths_oracle(sol, bundle)[k] for k in "YZ")
    t = bundle.grid.nodes[:-1]
    f0 = np.array([np.abs(float(gen.F(ti, 0.0, 0.0))) for ti in t])
    g0 = np.array([np.abs(float(gen.G(ti, 0.0))) for ti in t])

    def source(v, power):
        return float(np.sum(np.exp(v[:-1]) * (f0 * bundle.dt + g0 * bundle.dA)) ** power)

    v = bundle.V
    lhs = float(
        np.mean(np.max(np.exp(p * v) * np.abs(y) ** p, axis=1))
        + np.mean(np.sum(np.exp(2.0 * v[:-1]) * z ** 2 * bundle.dt, axis=1) ** (p / 2.0))
    )
    rhs = float(np.mean(np.exp(p * v[-1]) * np.abs(terminal_values) ** p) + source(v, p))
    c = verify.APRIORI_C_FIT
    apriori = verify.VerificationReport(
        "apriori-bound", bool(lhs <= c * rhs * (1.0 + 1e-12) + 1e-12), float(lhs - c * rhs), 0.0,
        {"lhs": lhs, "rhs": rhs, "c_fit": c, "margin": float(c * rhs - lhs)},
    )
    v = bundle.Vplus
    lhs = float(np.mean(np.max(np.exp(2.0 * v) * y ** 2, axis=1)))
    rhs = float(np.mean(np.exp(2.0 * v[-1]) * terminal_values**2) + source(v, 2))
    c = verify.ENERGY_C_FIT
    energy = verify.VerificationReport(
        "energy-bound", bool(lhs <= c * rhs * (1.0 + 1e-12) + 1e-12), float(lhs - c * rhs), 0.0,
        {"lhs": lhs, "rhs": rhs, "c_fit": c},
    )
    return [apriori, energy]


def verify_run_oracle(seq, backend, phi, psi, gen, p, exact=None):
    """verify.verify_run with every check on whole (paths, nodes) arrays,
    and on a tree the battery's lattice processes and the contraction
    level by level at exact node expectations.  exact=False reads every
    path mean off the evaluation paths instead, which on a tree of at
    most ENUMERATION_LIMIT steps are all 2^n paths."""
    bundle = backend.bundle
    tol = verify.default_tolerance(bundle)
    sols = list(seq.solutions.values())
    final = sols[-1]
    reports = battery_oracle(final, bundle, backend, phi, psi, gen, p, exact)
    reports.append(ito_oracle(final, bundle, p, verify.ITO_DELTA, tol))
    for coarse, fine in zip(sols, sols[1:]):
        gate = max(tol, 2.0 * (coarse.eps + fine.eps))
        reports.append(contraction_oracle(coarse, fine, bundle, min(p, 2.0), gate, exact))
    terminal_values = _paths_oracle(final, bundle)["Y"][:, -1]
    return reports + bounds_oracle(final, bundle, gen, terminal_values, p)
