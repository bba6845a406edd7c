"""Backward time-stepping for the penalized equation.

One backward Euler sweep in the clock Q per step, splitting the driver
(explicit, evaluated at the predictor) from the penalty gradient
(implicit):

    Z_i    = CE_i[Y_{i+1} dB_i] / dt_i
    y_hat  = CE_i[Y_{i+1}] + H(t_i, CE_i[Y_{i+1}], Z_i) dQ_i
    Y_i    + dQ_i D Psi_eps(t_i, Y_i) = y_hat          (semi-implicit)
    U_i    = (y_hat - Y_i) / dQ_i

where Psi_eps(t, y) = alpha_t phi_eps(y) + (1 - alpha_t) psi_eps(y) and
H = alpha F + (1 - alpha) G.  Every step takes the driver and the
penalty, on the whole interval, whatever the size of A.  Conditional
expectations CE_i come from a pluggable backend: exact averaging on the
recombining binomial lattice, or least-squares regression on monomials
of the driver value.

The whole eps schedule is solved in one sweep on the shared bundle:
each of Y, Z, U and H is one array with a row per eps and the levels
laid end to end in the backend's layout, so conditional expectations,
the driver and the penalty update run once per step for all rows.  A
step does only the work that depends on Y_{i+1}: a driver that reads
neither y nor z (the compiled grammar records which variables occur)
is a known function of (t_i, alpha_i), evaluated for every step in one
call before the sweep, and what no later step reads (U, such an H) is
finished after it in one pass.

The implicit step is solved exactly: every potential is closed form,
so the map v -> v + dQ D Psi_eps(v) is piecewise linear and strictly
increasing.  The inverse depends only on (alpha, eps, dQ), so a sweep
tabulates it once, in one build, for every distinct (alpha_i, dQ_i) and
all rows, and each step looks up its key.

On deterministic noise each level is one cell, and the sweep (for a
state-free driver) recurses in Python floats instead of numpy calls on
one-element rows; it gives the same bits.
"""

import dataclasses
import numbers
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import convex
from .convex import ConvexSpec
from .errors import ConfigError, DomainError
from .generators import GeneratorSpec, combined_driver
from .paths import NodeMeans, PathBundle


@dataclass(frozen=True)
class SolverConfig:
    p: float = 2.0
    eps_schedule: tuple = (0.1,)
    ce: str = "tree"  # or "lsq"
    degree: int = 3

    def __post_init__(self):
        if not (_real(self.p) and np.isfinite(self.p) and self.p > 1.0):
            raise ConfigError(f"solver.p must be a number > 1, got {self.p!r}")
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
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "eps_schedule", sched)


def _real(x) -> bool:
    # a bool would pass as 0 or 1, a numeric string through float()
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class TreeBackend:
    """Exact conditional expectations on the recombining lattice.

    Lattice nodes lie on the last axis; leading axes (one row per eps)
    are carried along.  Fields take the lattice's layout, bundle.offsets.
    """

    kind = "tree"

    def __init__(self, bundle: PathBundle):
        if bundle.cell_values is None:
            raise ConfigError("solver.ce 'tree' needs tree or deterministic noise")
        self.bundle = bundle
        self.offsets = bundle.offsets
        self.sqdt = float(np.sqrt(bundle.dt[0])) if bundle.kind == "tree" else 0.0
        self.degenerate = bundle.kind == "deterministic"

    def terminal_driver(self) -> np.ndarray:
        return self.bundle.cell_values[self.offsets[-2]:]

    def ce(self, i: int, v_next: np.ndarray) -> np.ndarray:
        # without noise the expectation is the value itself: v_next, not
        # a copy, for callers that only read it
        if self.degenerate:
            return v_next
        return 0.5 * (v_next[..., :-1] + v_next[..., 1:])

    def z(self, i: int, v_next: np.ndarray, ce: Optional[np.ndarray] = None) -> np.ndarray:
        # the two-point Z does not read ce, CE_i[v_next].  Without noise
        # Z = 0
        if self.degenerate:
            return np.zeros(v_next.shape)
        return (v_next[..., 1:] - v_next[..., :-1]) / (2.0 * self.sqdt)


def monomial_basis(b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out, P x (degree + 1), with vander(b, degree + 1,
    increasing=True) bit for bit and return it: vander forms each power
    as the previous one times b, and so does this, one column at a time."""
    out[:, 0] = 1.0
    out[:, 1] = b
    for k in range(2, out.shape[1]):
        np.multiply(out[:, k - 1], b, out=out[:, k])
    return out


class RegressionBackend:
    """Least-squares projection onto monomials {1, B, ..., B^degree}.

    Values hold one entry per path on the last axis; a 2-D array is
    fitted row by row.  At date 0 every path has B = 0 and the fit is
    the sample mean.

    The basis x_i = vander(B_i) changes only with the date, so each date
    is factored once per backend: a thin SVD x_i = U S V^T, keeping the
    singular values above finfo.eps * max(P, degree + 1) * s_max.  That
    is lstsq's rank rule with rcond=None.  Only the right factor
    W_i = V_r diag(1 / s_r) is kept, (degree + 1) x r floats per date,
    and u_i = x_i W_i spans the same columns as the kept U_r, so every
    fit u_i (u_i^T target) is lstsq's minimum-norm fit, also where the
    basis is rank deficient (a tree's early dates, deterministic noise).
    One slot holds the last date's u_i, P x r floats, so callers keep a
    date's fits together.  u_i is x_i W_i whichever date the slot held
    before, so a fit's bits do not depend on the calls before it.  A
    fit is fitted(i, coefficients(i, target)), so a caller may keep its
    r coefficients in place of the P values.  Fields hold one cell per
    path at every level.
    """

    kind = "lsq"

    def __init__(self, bundle: PathBundle, degree: int):
        self.bundle = bundle
        self.offsets = np.arange(bundle.grid.steps + 2) * bundle.n_paths
        self.degree = int(degree)
        self.B = bundle.driver_paths()
        # columns contiguous: each power is one pass over the paths
        self._x = np.empty((bundle.n_paths, self.degree + 1), order="F")
        self._right = {}  # date -> W_i
        self._slot = (None, None)  # (date, u_i)

    def terminal_driver(self) -> np.ndarray:
        return self.B[:, -1]

    def _basis(self, i: int) -> np.ndarray:
        """u_i = x_i W_i: columns orthonormal to rounding, spanning the kept directions."""
        if self._slot[0] != i:
            x = monomial_basis(self.B[:, i], self._x)
            if i not in self._right:
                _, s, vt = np.linalg.svd(x, full_matrices=False)
                rank = np.count_nonzero(s > np.finfo(float).eps * max(x.shape) * s[0])
                self._right[i] = vt[:rank].T / s[:rank]
            self._slot = (i, x @ self._right[i])
        return self._slot[1]

    def coefficients(self, i: int, target: np.ndarray):
        """The fit of one row target at date i as its coefficients in
        u_i, target @ u_i (r floats), or at date 0 the sample mean."""
        if i == 0:
            return float(np.mean(target))
        return target @ self._basis(i)

    def fitted(self, i: int, c) -> np.ndarray:
        """The fit with coefficients(i, .) c on the paths."""
        if i == 0:
            return np.full(self.bundle.n_paths, c)
        return self._basis(i) @ c

    def _fit(self, i: int, target: np.ndarray) -> np.ndarray:
        if target.ndim == 2:
            # one fit per eps row: stacked right-hand sides change the bits
            out = np.empty_like(target)
            for r, row in enumerate(target):
                out[r] = self._fit(i, row)
            return out
        return self.fitted(i, self.coefficients(i, target))

    def ce(self, i: int, v_next: np.ndarray) -> np.ndarray:
        return self._fit(i, v_next)

    def z_target(self, i: int, v_next: np.ndarray, ce: Optional[np.ndarray] = None) -> np.ndarray:
        """(v_next - CE_i[v_next]) dB_i / dt_i, the target that Z_i fits;
        ce is CE_i[v_next] where the caller has just fitted it.
        Centering by the fitted mean leaves the projection unchanged (dB
        is conditionally centered) but shrinks the target variance from
        O(|v|^2/dt) to O(var(v increment)/dt)."""
        resid = v_next - (self._fit(i, v_next) if ce is None else ce)
        db = self.bundle.increments(i, i + 1)[:, 0]
        return resid * db / self.bundle.dt[i]

    def z(self, i: int, v_next: np.ndarray, ce: Optional[np.ndarray] = None) -> np.ndarray:
        return self._fit(i, self.z_target(i, v_next, ce))


def make_backend(bundle: PathBundle, cfg: SolverConfig):
    if cfg.ce == "tree":
        return TreeBackend(bundle)
    return RegressionBackend(bundle, cfg.degree)


def _distinct(values) -> np.ndarray:
    """np.unique of a float list: sorted, each value once.  np.unique
    itself imports numpy.ma on its first call in a process."""
    xs = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]


class ImplicitStep:
    """The map (y_hat, key) -> v solving v + dq_k D Psi_eps(v) = y_hat,
    one row per eps, tabulated by implicit_step.

    One table, two readers.  Calling the step inverts an array, one row
    per eps, at one key; row(r) hands eps row r's table to a recursion
    in Python floats, which inverts with the same operations in the same
    order, so both give the same bits.  On a kink-free map the table is
    slopes, (keys, rows), and the inverse is y / slope.  Otherwise knots
    is (keys, rows, width), +inf past a row's last knot, and base, value
    and slope are (keys, rows, width + 1): segment s, below knot s, has
    base point x, knot value g and slope d, and the inverse on it is
    x - (g - y) / d.  The segment of y is the number of knots below it,
    so a NaN takes segment 0.
    """

    def __init__(self, slopes, knots=None, base=None, value=None):
        self.slopes = slopes
        self.knots, self.base, self.value = knots, base, value
        if knots is not None:
            # row r of key k starts at r * (width + 1) in the flat views
            rows, segments = slopes.shape[1:]
            self._starts = (np.arange(rows) * segments)[:, None]

    def __call__(self, y_hat, key=0):
        y = np.asarray(y_hat, dtype=float)
        flat = y.reshape(len(y), -1)
        if self.knots is None:
            return (flat / self.slopes[key, :, None]).reshape(y.shape)
        knots = self.knots[key]
        # segment = number of knots below y_hat, one knot column at a
        # time; a row has at most four knots, so int8 counts them
        seg = np.greater(flat, knots[:, :1]).view(np.int8)
        for j in range(1, knots.shape[1]):
            seg += np.greater(flat, knots[:, j:j + 1]).view(np.int8)
        seg = seg + self._starts
        base = self.base[key].take(seg)
        v = base - (self.value[key].take(seg) - flat) / self.slopes[key].take(seg)
        return v.reshape(y.shape)

    def row(self, r: int) -> list:
        """Eps row r's table as floats, one entry per key: the slope on a
        kink-free map, else (knots, segments), the knots a sorted list
        for bisect_left and the segments (base, value, slope) tuples."""
        if self.knots is None:
            return self.slopes[:, r].tolist()
        parts = (self.base[:, r], self.value[:, r], self.slopes[:, r])
        return [
            (knots, list(zip(*segments)))
            for knots, *segments in zip(self.knots[:, r].tolist(), *(p.tolist() for p in parts))
        ]


def implicit_step(phi: ConvexSpec, psi: ConvexSpec, alpha, schedule, dq) -> ImplicitStep:
    """The map (y_hat, key) -> v solving v + dq_k D Psi_eps(v) = y_hat,
    one row per eps.

    Here D Psi_eps = alpha_k D phi_eps + (1 - alpha_k) D psi_eps, and
    alpha and dq list the keys k = 0, 1, ... (a scalar pair is one key).
    The left side is strictly increasing and piecewise linear, so the
    root is unique.  y_hat holds one row for each eps of the schedule,
    all inverted at key ``key`` (0 by default).  The breakpoints, values
    and slopes depend only on (alpha, eps, dq) and are elementwise in
    alpha and dq, so they are tabulated here once per eps for all keys
    in one broadcast; ImplicitStep reads them.  x - (g - y) / d is
    x + (y - g) / d bit for bit wherever y != g, and keeps its signed
    zero on the lower outer segment, the one segment where y == g can
    occur.
    """
    schedule = [float(eps) for eps in schedule]
    # one row per key, against the knots of an eps along the last axis
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))[:, None]
    dq = np.atleast_1d(np.asarray(dq, dtype=float))[:, None]

    def forward(v, eps):
        return v + dq * convex.combined_gradient(phi, psi, alpha, eps, v)

    kinks = [
        _distinct(convex.gradient_breakpoints(phi, eps) + convex.gradient_breakpoints(psi, eps))
        for eps in schedule
    ]

    # whether a kind has kinks does not depend on eps
    if kinks[0].size == 0:
        # the map is linear, v -> slope v: forward(0) is +0.0 for every
        # kink-free potential, and y - (+0.0) is y bit for bit (-0.0
        # included), so the inverse is one division, y / slope
        return ImplicitStep(np.concatenate([forward(1.0, eps) for eps in schedule], axis=1))

    # the kinks of two potentials coincide at some eps only; such rows
    # are padded with knots at +inf, which no finite y_hat passes.  The
    # knots are forward(xs) at sorted xs, and forward is nondecreasing
    # under rounding, so every row is sorted
    width = max(xs.size for xs in kinks)
    knots = np.full((len(dq), len(schedule), width), np.inf)
    base, value, slope = (np.empty((len(dq), len(schedule), width + 1)) for _ in range(3))
    for r, (eps, xs) in enumerate(zip(schedule, kinks)):
        g_at = forward(xs, eps)
        lo_slope = g_at[:, :1] - forward(xs[0] - 1.0, eps)
        hi_slope = forward(xs[-1] + 1.0, eps) - g_at[:, -1:]
        slopes = (g_at[:, 1:] - g_at[:, :-1]) / (xs[1:] - xs[:-1])
        m = xs.size
        knots[:, r, :m] = g_at
        base[:, r, : m + 1] = np.concatenate([xs[:1], xs])
        value[:, r, : m + 1] = np.concatenate([g_at[:, :1], g_at], axis=1)
        slope[:, r, : m + 1] = np.concatenate([lo_slope, slopes, hi_slope], axis=1)
        for part in (base, value, slope):
            part[:, r, m + 1 :] = part[:, r, m : m + 1]
    return ImplicitStep(slope, knots, base, value)


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


def level_cells(offsets: np.ndarray, values: np.ndarray, a: int, b: int) -> np.ndarray:
    """values[a:b], one per level, each repeated over its level's cells
    in the layout offsets: a per-level scalar (t, alpha, dQ, ...) as an
    array of levels a, ..., b - 1, one call on every layout."""
    return np.repeat(values[a:b], np.diff(offsets[a:b + 1]))


def _runs(offsets: np.ndarray, n: int) -> list:
    """(a, b, width) of each maximal run of levels a, ..., b - 1 among
    the first n that hold width cells each: one run on per-path and
    deterministic layouts, one per level on a lattice."""
    widths = np.diff(offsets[:n + 1])
    cuts = (np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()
    return [(a, b, int(widths[a])) for a, b in zip([0, *cuts], [*cuts, n])]


def _blocked(field: np.ndarray, offsets: np.ndarray, a: int, b: int, width: int) -> np.ndarray:
    """Levels a, ..., b - 1 of field, width cells each, as a (..., b - a,
    width) view, so a per-level value broadcasts over its cells."""
    return field[..., offsets[a]:offsets[b]].reshape(*field.shape[:-1], b - a, width)


class _Levels:
    """Fields laid out level after level, one 1-D array each (leading
    axes carried along): level i holds the cells [offsets[i],
    offsets[i + 1]), in the layout of the backend that built them."""

    def levels(self, name: str, a: int, b: int) -> np.ndarray:
        """Levels a, ..., b - 1 of the field name, end to end (a view)."""
        return getattr(self, name)[..., self.offsets[a]:self.offsets[b]]

    def level(self, name: str, i: int) -> np.ndarray:
        return self.levels(name, i, i + 1)


@dataclass
class SolutionField(_Levels):
    """Backward solution on the grid: Y over the N + 1 levels, Z, U and H
    over the first N, each one array in the layout of offsets.

    backend_kind is the kind of the backend that built the field: tree
    levels hold one value per lattice node, regression levels one value
    per evaluation path, even on a tree bundle.  H records the driver
    value the predictor actually used, so Y, Z, U, H satisfy the step
    identity Y_{i+1} = Y_i - (H_i - U_i) dQ_i + Z_i dB_i exactly on
    lattices.
    """

    eps: float
    backend_kind: str
    Y: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    H: np.ndarray
    offsets: np.ndarray

    @property
    def y0(self) -> float:
        return float(np.mean(self.level("Y", 0)))

    @property
    def active_fraction(self) -> float:
        """Share of the cells before the horizon where U != 0."""
        return np.count_nonzero(self.U) / self.U.size

    @property
    def lattice(self) -> bool:
        """Levels hold lattice node values from exact expectations."""
        return self.backend_kind == "tree"

    def expand(
        self,
        bundle: PathBundle,
        values: np.ndarray,
        a: int,
        b: int,
        index: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Levels a, ..., b - 1 laid end to end in values, such as
        levels(name, a, b) or an elementwise function of such slices, as
        a fresh (paths, b - a) array.  This is the only route from levels
        to paths: lattice cells are gathered along the bundle's walks in
        one take, per-path levels are transposed.  index, the lattice's
        bundle.walk_index(a, b), lets the gathers of one window share it.
        """
        if self.lattice:
            return bundle.on_paths(values, a, b, index)
        return values.reshape(b - a, bundle.n_paths).T.copy()

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
        stops = {name: b if name == "Y" else min(b, n) for name in names}
        return {name: self.expand(bundle, self.levels(name, a, e), a, e) for name, e in stops.items()}


@dataclass
class Sweep(_Levels):
    """Y and U with one row per eps, and one SolutionField per eps whose
    fields are views of those rows."""

    Y: np.ndarray
    U: np.ndarray
    offsets: np.ndarray
    solutions: list


def _one_cell(backend) -> bool:
    """Whether every level of backend holds one cell and CE is the level
    itself: the tree backend on deterministic noise, where Z = 0."""
    return isinstance(backend, TreeBackend) and backend.degenerate


def _one_cell_sweep(step: ImplicitStep, r: int, y, y_hat, h_dq: list, key_at: list):
    """Eps row r of the sweep on one-cell levels, in Python floats.

    Step i sets y_hat_i = Y_{i+1} + H_i dQ_i and Y_i to its inverse at
    key_at[i], read from step.row(r) with the operations, in their
    order, of the step's array reader.  y and y_hat are the row's own
    storage, 8 bytes per level; y holds Y_N on entry.
    """
    table = step.row(r)
    v = y[len(h_dq)]
    if step.knots is None:
        # kink-free: the inverse is y_hat / slope, which keeps -0.0
        for i in reversed(range(len(h_dq))):
            y_hat[i] = w = v + h_dq[i]
            y[i] = v = w / table[key_at[i]]
        return
    for i in reversed(range(len(h_dq))):
        y_hat[i] = w = v + h_dq[i]
        knots, segments = table[key_at[i]]
        base, value, slope = segments[bisect_left(knots, w)]
        y[i] = v = base - (value - w) / slope


def backward_sweep(
    backend,
    phi: ConvexSpec,
    psi: ConvexSpec,
    gen: GeneratorSpec,
    terminal: Callable,
    cfg: SolverConfig,
) -> Sweep:
    """One backward sweep on backend.bundle over cfg.eps_schedule.

    Every level holds one row per eps, and every row of every step takes
    the driver, the implicit step and the penalty.  The implicit tables
    of all steps are built once, before the sweep.  A driver that reads
    y or z runs once per step for all rows; one that reads neither
    (GeneratorSpec.reads_state) runs once, before the sweep, on every
    step, and each step adds its H_i dQ_i, a scalar, to CE.  Both give
    the same bits.

    The loop keeps only what the recursion reads: CE, Z, y_hat and the
    implicit step, with y_hat written into U's array.  U = (y_hat - Y)
    / dQ and a state-free H are finished after the loop, each one call
    over every cell with dQ_i and H_i laid over level i's cells
    (level_cells); elementwise ops give the same bits wherever they
    run.  SolverConfig has checked that the schedule is finite,
    positive and strictly decreasing.

    On deterministic noise with a state-free driver every level holds
    one cell, CE is the level itself and Z = 0, so each eps row is a
    scalar recursion: it runs in Python floats (_one_cell_sweep), from
    the same implicit table and with the same operations in the same
    order, and writes Y and y_hat straight into the row's storage.
    Lattices, per-path layouts and drivers that read y or z take the
    array loop, the reference the tests compare the float path with.
    """
    schedule = cfg.eps_schedule
    bundle = backend.bundle
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    alpha = bundle.alpha

    off = backend.offsets
    y = np.empty((len(schedule), off[n + 1]))
    z, u, h = (np.empty((len(schedule), off[n])) for _ in range(3))
    y_n = np.asarray(terminal(backend.terminal_driver(), bundle.A[-1]), dtype=float)
    if not np.all(np.isfinite(y_n)):
        raise DomainError("terminal condition evaluated to non-finite values")
    y[:, off[n]:] = y_n

    # what the steps share: one implicit table for every distinct
    # (alpha_i, dQ_i), key_at[i] indexing it, and H_i dQ_i where the
    # driver reads neither y nor z
    keys = {}
    key_at = [keys.setdefault(pair, len(keys)) for pair in zip(alpha.tolist(), dq.tolist())]
    alphas, dqs = np.array(list(keys)).T
    step = implicit_step(phi, psi, alphas, schedule, dqs)
    h_at = None if gen.reads_state else combined_driver(gen, alpha, t[:n], 0.0, 0.0)
    dq_at = dq.tolist()
    h_dq = None if h_at is None else (h_at * dq).tolist()

    # the loop keeps what the recursion reads; y_hat waits in U's array
    if h_dq is not None and _one_cell(backend):
        z[:] = 0.0
        for r in range(len(schedule)):
            _one_cell_sweep(step, r, memoryview(y[r]), memoryview(u[r]), h_dq, key_at)
    else:
        bounds = off.tolist()
        for i in reversed(range(n)):
            a, b, c = bounds[i:i + 3]
            y_next = y[:, b:c]
            ce = backend.ce(i, y_next)
            z[:, a:b] = z_i = backend.z(i, y_next, ce)
            if h_dq is None:
                h[:, a:b] = h_i = combined_driver(gen, alpha[i], t[i], ce, z_i)
                u[:, a:b] = y_hat = ce + h_i * dq_at[i]
            else:
                u[:, a:b] = y_hat = ce + h_dq[i]
            y[:, a:b] = step(y_hat, key_at[i])

    # U = (y_hat - Y) / dQ and a state-free H, finished on every cell
    # at once
    np.subtract(u, y[:, :off[n]], out=u)
    np.divide(u, level_cells(off, dq, 0, n), out=u)
    if h_at is not None:
        h[:] = level_cells(off, h_at, 0, n)

    solutions = [
        SolutionField(
            eps=float(eps), backend_kind=backend.kind, Y=y[r], Z=z[r], U=u[r], H=h[r], offsets=off
        )
        for r, eps in enumerate(schedule)
    ]
    return Sweep(Y=y, U=u, offsets=off, solutions=solutions)


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
    L2-in-time gap of Z, sqrt(sum_i mean |Z_i - Z'_i|^2 dt_i), its means
    taken by NodeMeans a window of steps at a time for every pair in one
    pass: exact node expectations on a tree, means over the evaluation
    paths elsewhere.
    Also logs the penalty energy eps * sum_i mean |U_i|^2 dQ_i, which
    stays bounded along the schedule when penalization converges; the
    per-level sums of |U|^2 take one reduction per run of equal-width
    levels, each level's cells summed in the order np.mean sums them.
    """
    schedule = cfg.eps_schedule
    bundle = backend.bundle
    sweep = backward_sweep(backend, phi, psi, gen, terminal, cfg)
    solutions = dict(zip(schedule, sweep.solutions))
    # per level, mean |U|^2 of every row (np.mean's sum and division, less
    # its wrapper), summed one run of equal-width levels at a time; max
    # |Y^a - Y^b| of every adjacent pair over all cells
    n, off = bundle.grid.steps, sweep.offsets
    sums = []
    for a, b, width in _runs(off, n):
        u_run = _blocked(sweep.U, off, a, b, width)
        sums.append(np.add.reduce(u_run * u_run, axis=-1))
    u2 = np.concatenate(sums, axis=-1) / np.diff(off[:n + 1])
    energy = {eps: float(eps * np.sum(u2_r * bundle.dq)) for eps, u2_r in zip(schedule, u2)}
    y_gaps = np.abs(sweep.Y[:-1] - sweep.Y[1:]).max(axis=-1)
    # per-step path means of |Z - Z'|^2 of every adjacent pair, squared
    # on the levels and read one window of steps at a time
    pairs = list(zip(sweep.solutions, sweep.solutions[1:]))
    node_means = NodeMeans(sweep.solutions[0], bundle)
    means = [[] for _ in pairs]
    for a, b in bundle.windows():
        e = min(b, n)
        for (coarse, fine), out in zip(pairs, means):
            out.append(node_means((coarse.levels("Z", a, e) - fine.levels("Z", a, e)) ** 2, a, e))
    gaps = [
        {
            "eps_coarse": float(e_coarse),
            "eps_fine": float(e_fine),
            "y_gap": float(y_gap),
            "z_gap": float(np.sqrt(np.sum(np.concatenate(out) * bundle.dt))),
        }
        for e_coarse, e_fine, y_gap, out in zip(schedule, schedule[1:], y_gaps, means)
    ]
    return SequenceResult(
        solutions=solutions,
        gaps=gaps,
        penalty_energy=energy,
    )
