"""Time grids, driving noise, and the clock Q = t + A.

A is a deterministic continuous increasing process with A_0 = 0.  The
clock increment dQ = dt + dA carries the density alpha = dt/dQ, so that
alpha dQ recovers dt and (1 - alpha) dQ recovers dA exactly on the grid.
Drift-weight accumulation V and its positive-part variant track the
exponential change of scale used by the verifier:

    V_i     = (mu + ell^2 / (2 n_p lambda)) t_i + nu A_i
    V_i^(+) = (mu + ell^2 / (2 n_p lambda))^+ t_i + nu^+ A_i

with n_p = min(1, p - 1).  lambda in (0, 1) splits the z-Lipschitz term
in the proof of the L^p estimates; it is a constant of the proof, not a
coefficient of the equation, so it is fixed at SPLIT = 1/2.
"""

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, DomainError, GridMismatch, ZeroStep
from .generators import GeneratorSpec

if TYPE_CHECKING:
    from .solver import SolutionField, SolverConfig

# trees with at most this many steps enumerate every path exactly
ENUMERATION_LIMIT = 12
DEFAULT_TREE_EVAL_PATHS = 512
# readers of the evaluation paths take a window of
# max(WINDOW_MIN_STEPS, WINDOW_CELLS // paths) steps at a time: a
# 128 KiB float64 block, and never fewer than 16 columns, so that runs
# of many paths do not pay each window's fixed cost on a few columns
WINDOW_CELLS = 16384
WINDOW_MIN_STEPS = 16
# lambda of the weights: any value in (0, 1) proves the estimates, but
# the verifier's bounds hold a frozen constant, under which a lambda near
# 0 would blow the weights up; 1/2 is the value every preset has used
SPLIT = 0.5
# the largest x with e^x a finite float
LOG_MAX = float(np.log(np.finfo(float).max))


def gamma_shift(delta: float, q: float) -> float:
    """The offset under the square root of Gamma: delta for q < 2, else 0."""
    delta = float(delta)
    q = float(q)
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    if not (1.0 <= q <= 2.0):
        raise DomainError(f"q must lie in [1, 2], got {q}")
    return delta if q < 2.0 else 0.0


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray
    dt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ConfigError("grid: need at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ConfigError("grid: nodes must be finite")
        if nodes[0] != 0.0:
            raise ConfigError("grid: first node must be 0")
        dt = np.diff(nodes)
        if np.any(dt <= 0.0):
            raise ZeroStep("grid: nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dt", dt)

    @staticmethod
    def uniform(horizon: float, steps: int) -> "TimeGrid":
        if not (np.isfinite(horizon) and horizon > 0.0):
            raise ConfigError(f"grid: horizon must be > 0, got {horizon}")
        if steps < 1:
            raise ConfigError(f"grid: steps must be >= 1, got {steps}")
        return TimeGrid(np.linspace(0.0, float(horizon), int(steps) + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> int:
        return self.nodes.size - 1


@dataclass(frozen=True)
class NoiseModel:
    """Driving noise: recombining binomial tree, Gaussian Monte Carlo
    paths, or the degenerate one-path tree with zero increments."""

    kind: str  # "tree" | "mc" | "deterministic"
    paths: int = 0
    seed: int = 0
    eval_paths: Optional[int] = None

    @staticmethod
    def binomial_tree(seed: int = 0, eval_paths: Optional[int] = None) -> "NoiseModel":
        if eval_paths is not None and eval_paths < 1:
            raise ConfigError(f"noise: eval_paths must be >= 1, got {eval_paths}")
        return NoiseModel(kind="tree", seed=seed, eval_paths=eval_paths)

    @staticmethod
    def gaussian_mc(paths: int, seed: int = 0) -> "NoiseModel":
        if paths < 1:
            raise ConfigError(f"noise: paths must be >= 1, got {paths}")
        return NoiseModel(kind="mc", paths=int(paths), seed=seed)

    @staticmethod
    def deterministic() -> "NoiseModel":
        return NoiseModel(kind="deterministic")


@dataclass(frozen=True)
class IncreasingProcessSpec:
    """Deterministic A: zero, linear kappa*t, or a delayed ramp
    kappa*(t - s0)^+, checked at construction."""

    kind: str  # "zero" | "linear" | "ramp"
    rate: float = 0.0
    start: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "ramp"):
            raise ConfigError(f"a_process: unknown kind {self.kind!r}")
        # a JSON config can carry NaN and Infinity
        for name in ("rate", "start"):
            x = getattr(self, name)
            if not (np.isfinite(x) and x >= 0.0):
                raise DomainError(f"a_process: {name} must be finite and >= 0, got {x}")

    @staticmethod
    def zero() -> "IncreasingProcessSpec":
        return IncreasingProcessSpec(kind="zero")

    @staticmethod
    def linear(rate: float) -> "IncreasingProcessSpec":
        return IncreasingProcessSpec(kind="linear", rate=float(rate))

    @staticmethod
    def ramp(start: float, rate: float) -> "IncreasingProcessSpec":
        return IncreasingProcessSpec(kind="ramp", rate=float(rate), start=float(start))

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "linear":
            return self.rate * t
        return self.rate * np.maximum(t - self.start, 0.0)


@dataclass(frozen=True)
class PathBundle:
    """Grid-aligned realization of the driving data.

    Per node (length N+1): A, Q, and after accumulation V, Vplus.
    Per step (length N): dt (the grid's), dq, dA, alpha, with
    dq_i = dt_i + dA_i and alpha_i * dq_i = dt_i.
    Evaluation paths: P paths of N steps, whose increments dB a reader
    takes a window of steps at a time by increments(a, e).  Monte Carlo
    and deterministic bundles store dB, (P, N) floats.  A tree stores
    what a step of a path carries, its up/down sign, as signs, (P, N)
    int8, and forms dB = (2 s - 1) sqrt(dt) per window.  On a lattice, a
    field laid out level after level holds level i in [offsets[i],
    offsets[i + 1]), cell_values is the driver value B at every cell in
    that layout, and cells[p, i] is the cell that path p visits at node
    i, int32 (int64 only where offsets[-1] does not fit in int32).
    """

    grid: TimeGrid
    kind: str
    A: np.ndarray
    Q: np.ndarray
    dq: np.ndarray
    dA: np.ndarray
    alpha: np.ndarray
    dB: Optional[np.ndarray] = None
    signs: Optional[np.ndarray] = None
    cell_values: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    cells: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    Vplus: Optional[np.ndarray] = None

    @property
    def n_paths(self) -> int:
        return (self.dB if self.signs is None else self.signs).shape[0]

    @property
    def dt(self) -> np.ndarray:
        return self.grid.dt

    def driver_paths(self) -> np.ndarray:
        """Driver values B along evaluation paths, shape (P, N+1)."""
        n = self.grid.steps
        out = np.zeros((self.n_paths, n + 1))
        np.cumsum(self.increments(0, n), axis=1, out=out[:, 1:])
        return out

    def increments(self, a: int, e: int) -> np.ndarray:
        """dB on the steps [a, e), shape (P, e - a): a view of the stored
        increments, or on a tree a fresh array of (2 s - 1) sqrt(dt),
        the bits build_paths once stored as dB."""
        if self.signs is None:
            return self.dB[:, a:e]
        x = self.signs[:, a:e] * 2.0
        x -= 1.0
        x *= float(np.sqrt(self.dt[0]))
        return x

    def windows(self) -> list:
        """The node ranges [a, b) that readers of the paths take in turn.

        Window k starts at step k * w, w = max(WINDOW_MIN_STEPS,
        WINDOW_CELLS // paths), and covers the steps [a, min(b, N)); the
        last window also holds node N.  A per-column path mean of a
        (paths, >= 2) block is summed row by row, as it is in the whole
        array, so the means do not depend on the windows.  A (paths, 1)
        block is summed pairwise instead, so a last window of one step
        joins the one before it.
        """
        n = self.grid.steps
        width = max(WINDOW_MIN_STEPS, WINDOW_CELLS // self.n_paths)
        starts = list(range(0, n, width))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        return list(zip(starts, starts[1:] + [n + 1]))

    def walk_index(self, start: int, stop: int) -> np.ndarray:
        """The cells the paths visit at the nodes start, ..., stop - 1,
        counted from the first cell of level start: a (paths, stop -
        start) index into those levels laid end to end.  The index is
        intp, numpy's own: a gather by an int32 index converts it first,
        which costs more than the gather."""
        return np.subtract(self.cells[:, start:stop], self.offsets[start], dtype=np.intp)

    def on_paths(
        self,
        values: np.ndarray,
        start: int = 0,
        stop: Optional[int] = None,
        index: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Lattice levels start, ..., stop - 1 (all by default), laid end to
        end in values, on the evaluation paths: one take along the walks.
        index is walk_index(start, stop), for callers that gather several
        arrays of the same levels."""
        if self.cells is None:
            raise ConfigError("on_paths requires a lattice bundle")
        stop = self.grid.steps + 1 if stop is None else stop
        if np.size(values) != self.offsets[stop] - self.offsets[start]:
            raise GridMismatch("values do not fill the lattice levels")
        return values[self.walk_index(start, stop) if index is None else index]


def binomial_weights(row: np.ndarray, levels: int, out: Optional[np.ndarray] = None) -> tuple:
    """The node probabilities of `levels` consecutive levels of a
    recombining binomial tree, from the row of the first: (the levels'
    probabilities laid end to end, the row of the level after them).

    Node k of level i has probability C(i, k) 2^-i, and each level comes
    from the one before by Pascal's rule, p_{i+1, k} = (p_{i, k-1} +
    p_{i, k}) / 2 with zeros past either end.  So a reader that walks
    the levels in order carries one row from span to span.  Both are
    views of out, when given, which must hold the levels and the row
    after them: a reader that hands the same out to every span allocates
    nothing per span.
    """
    first = row.size
    widths = np.arange(first, first + levels + 1)
    bounds = np.concatenate([[0], np.cumsum(widths)]).tolist()
    w = np.empty(bounds[-1]) if out is None else out[:bounds[-1]]
    w[:first] = row
    for lo, mid, hi in zip(bounds, bounds[1:-1], bounds[2:]):
        w[mid], w[hi - 1] = w[lo], w[mid - 1]
        np.add(w[lo:mid - 1], w[lo + 1:mid], out=w[mid + 1:hi - 1])
        w[mid:hi] *= 0.5
    return w[:bounds[-2]], w[bounds[-2]:]


def exact_means(sol: "SolutionField", bundle: PathBundle) -> bool:
    """Whether the path means of sol's node functions are exact level
    sums (NodeMeans): lattice levels on a binomial tree."""
    return sol.lattice and bundle.kind == "tree"


class NodeMeans:
    """The path mean, level by level, of node functions in sol's layout:
    the one route from levels to path means.

    On a tree (lattice levels on a binomial bundle) the mean of a node
    function f at level i is its exact expectation, sum_k C(i, k) 2^-i
    f(i, k): each level's cells times their probabilities
    (binomial_weights), summed level by level by np.add.reduceat, whose
    sum of a level does not depend on the levels around it.  The
    probabilities are built a span of levels at a time, the span of the
    bundle window that holds the first level asked for, from the Pascal
    row carried over from the span before, so a pass over the windows in
    order builds each level once.  A span and its products with the
    values go into two buffers sized for the widest window, so a pass
    holds nothing lattice-sized and allocates nothing per window: fresh
    window-sized arrays on every window raised the benchmark's peak RSS
    on tree_barrier by 1.5 MB at the same tracemalloc peak (numpy 2.4.6,
    glibc malloc, a 2-vCPU x86-64 machine).  A read that
    goes back restarts the row at level 0.  Elsewhere (per-path layouts,
    and deterministic noise, whose one path passes every cell) the mean
    is np.mean over the paths of the values expanded by sol.expand, with
    index handed on.
    """

    def __init__(self, sol: "SolutionField", bundle: PathBundle):
        self.sol, self.bundle = sol, bundle
        self.exact = exact_means(sol, bundle)
        self._row, self._level = np.ones(1), 0  # the Pascal row of level _level
        self._span = (0, 0, None)  # (a, b, the probabilities of the levels [a, b))
        if self.exact:
            self._room(max(self._size(a, b) for a, b in bundle.windows()))

    def __call__(
        self, values: np.ndarray, a: int, b: int, index: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-level means of the levels a, ..., b - 1 laid end to end in values."""
        if not self.exact:
            return np.mean(self.sol.expand(self.bundle, values, a, b, index), axis=0)
        start, stop, weights = self._span
        if not start <= a < b <= stop:
            start, stop, weights = self._build(a, b)
        off = self.sol.offsets
        lo, hi = off[a] - off[start], off[b] - off[start]
        products = np.multiply(values, weights[lo:hi], out=self._products[:hi - lo])
        return np.add.reduceat(products, off[a:b] - off[a])

    def _build(self, a: int, b: int) -> tuple:
        if a < self._level:
            self._row, self._level = np.ones(1), 0
        for _ in range(self._level, a):
            self._row = binomial_weights(self._row, 1)[1]
        stop = max(b, next(end for start, end in self.bundle.windows() if a < end))
        if self._size(a, stop) > self._weights.size:
            self._room(self._size(a, stop))  # a read across windows
        weights, self._row = binomial_weights(self._row, stop - a, self._weights)
        self._level = stop
        self._span = (a, stop, weights)
        return self._span

    @staticmethod
    def _size(a: int, b: int) -> int:
        """The cells of the levels a, ..., b: a span and the row after it."""
        return (b - a + 1) * (a + b + 2) // 2

    def _room(self, size: int):
        self._weights, self._products = np.empty(size), np.empty(size)


def _enumerate_sign_paths(n_steps: int) -> np.ndarray:
    idx = np.arange(2**n_steps, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_steps)) & 1).astype(np.int8)


def _walk_cells(signs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """cells[p, i] = offsets[i] + the up moves of path p before node i,
    summed in int32, or int64 where offsets[-1] does not fit."""
    dtype = np.int32 if offsets[-1] <= np.iinfo(np.int32).max else np.int64
    cells = np.empty((signs.shape[0], signs.shape[1] + 1), dtype)
    cells[:, 0] = 0
    cells[:, 1:] = signs
    # in place on the contiguous array: a cumsum into the strided
    # cells[:, 1:] would be buffered in a (paths, steps) temporary
    np.cumsum(cells, axis=1, out=cells)
    cells += offsets[:-1].astype(dtype)
    return cells


def build_paths(
    grid: TimeGrid, noise: NoiseModel, a_spec: IncreasingProcessSpec
) -> PathBundle:
    """Realize the noise and the clock on the grid.

    The binomial tree requires a uniform grid so that +-sqrt(dt) moves
    recombine; its squared increments then match dt exactly, node by
    node.  Evaluation paths through the tree are enumerated exhaustively
    for short grids and sampled fairly from keyed streams otherwise.

    The clock is checked here, once: a finite rate can still overflow
    A, Q or dq, and a clock that is finite everywhere has
    alpha = dt / dq in [0, 1], as the drivers require.
    """
    t = grid.nodes
    n = grid.steps
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        A = a_spec.values(t)
        Q = t + A
        dA = np.diff(A)
        # diff(t + A) can round below dt when dA is tiny; dt + dA cannot,
        # since A is non-decreasing and rounding is monotone
        dq = dt + dA
    finite = np.isfinite(A) & np.isfinite(Q)
    finite[1:] &= np.isfinite(dq)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ConfigError(
            f"a_process: the clock is not finite at node {k} (t = {float(t[k])!r}); lower its rate"
        )
    alpha = dt / dq

    dB = signs = cell_values = offsets = cells = None
    if noise.kind == "tree":
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0):
            raise ConfigError("noise: binomial tree requires a uniform grid")
        sqdt = float(np.sqrt(dt[0]))
        # level i holds the i + 1 nodes (2j - i) sqrt(dt), j = 0, ..., i
        offsets = np.arange(n + 2) * np.arange(1, n + 3) // 2
        level = np.repeat(np.arange(n + 1), np.diff(offsets))
        node = np.arange(offsets[-1]) - offsets[level]
        cell_values = (2.0 * node - level) * sqdt
        if n <= ENUMERATION_LIMIT and noise.eval_paths is None:
            signs = _enumerate_sign_paths(n)
        else:
            count = DEFAULT_TREE_EVAL_PATHS if noise.eval_paths is None else noise.eval_paths
            signs = rngmod.sign_paths(noise.seed, count, n)
        cells = _walk_cells(signs, offsets)
    elif noise.kind == "mc":
        dB = rngmod.gaussian_increments(noise.seed, noise.paths, dt)
    elif noise.kind == "deterministic":
        dB = np.zeros((1, n))
        offsets = np.arange(n + 2)
        cell_values = np.zeros(n + 1)
        cells = _walk_cells(np.zeros((1, n), dtype=np.int8), offsets)
    else:
        raise ConfigError(f"noise: unknown kind {noise.kind!r}")

    return PathBundle(
        grid=grid, kind=noise.kind, A=A, Q=Q, dq=dq, dA=dA, alpha=alpha, dB=dB, signs=signs,
        cell_values=cell_values, offsets=offsets, cells=cells,
    )


def accumulate_weights(bundle: PathBundle, gen: GeneratorSpec, cfg: "SolverConfig") -> PathBundle:
    """Fill V and Vplus from the run's generator and solver config, with
    n_p = min(1, p - 1) and lambda = SPLIT = 1/2.

    GeneratorSpec has checked mu, nu and ell finite, and SolverConfig
    p > 1.  What is left is the size of the weights: V <= Vplus, and
    Vplus is non-decreasing from 0, so every exponential the verifier
    and summary.json take, e^{qV} or e^{qVplus} with q <= max(p, 2), is
    at most e^{max(p, 2) Vplus_N}.  Where that overflows a float the
    weights are refused, before any exponential is evaluated.
    """
    n_p = min(1.0, cfg.p - 1.0)
    drift = gen.mu + gen.ell * gen.ell / (2.0 * n_p * SPLIT)
    t, a = bundle.grid.nodes, bundle.A
    # Python floats: a large coefficient reads inf here, with no warning
    top = max(cfg.p, 2.0) * (max(drift, 0.0) * float(t[-1]) + max(gen.nu, 0.0) * float(a[-1]))
    if top > LOG_MAX:
        raise ConfigError(
            f"generator: the weights overflow, max(p, 2) Vplus_N = {top:.6g} > {LOG_MAX:.6g}; "
            "lower generator.mu, nu or ell, or solver.p"
        )
    V = drift * t + gen.nu * a
    Vplus = max(drift, 0.0) * t + max(gen.nu, 0.0) * a
    return replace(bundle, V=V, Vplus=Vplus)
