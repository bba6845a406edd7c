"""Time grids, driving noise, and the clock Q = t + A.

A is a deterministic continuous increasing process with A_0 = 0.  The
clock increment dQ = dt + dA carries the density alpha = dt/dQ, so that
alpha dQ recovers dt and (1 - alpha) dQ recovers dA exactly on the grid.
Drift-weight accumulation V and its positive-part variant track the
exponential change of scale used by the verifier:

    V_i     = (mu + ell^2 / (2 n_p lambda)) t_i + nu A_i
    V_i^(+) = (mu + ell^2 / (2 n_p lambda))^+ t_i + nu^+ A_i

with n_p = min(1, p - 1).
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, DomainError, GridMismatch, ZeroStep

# trees with at most this many steps enumerate every path exactly
ENUMERATION_LIMIT = 12
DEFAULT_TREE_EVAL_PATHS = 512
# readers of the evaluation paths take a window of
# max(WINDOW_MIN_STEPS, WINDOW_CELLS // paths) steps at a time: a
# 256 KiB float64 block, and never fewer than 16 columns
WINDOW_CELLS = 32768
WINDOW_MIN_STEPS = 16


def moment_factor(p: float) -> float:
    """min(1, p - 1), the exponent-dependent weight on the ell^2 term."""
    p = float(p)
    if not (np.isfinite(p) and p > 1.0):
        raise DomainError(f"exponent p must be finite and > 1, got {p}")
    return min(1.0, p - 1.0)


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

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ConfigError("grid: need at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ConfigError("grid: nodes must be finite")
        if nodes[0] != 0.0:
            raise ConfigError("grid: first node must be 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ZeroStep("grid: nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

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

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)


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
    Per step (length N): dt, dq, alpha, with alpha_i * dq_i = dt_i.
    Evaluation paths (shape (P, N) increments dB): on a tree each path
    walks the lattice and node_index maps it to lattice nodes; levels[i]
    holds the i+1 distinct driver values of lattice level i.
    """

    grid: TimeGrid
    kind: str
    dB: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    alpha: np.ndarray
    levels: Optional[list] = None
    node_index: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    Vplus: Optional[np.ndarray] = None

    @property
    def n_paths(self) -> int:
        return self.dB.shape[0]

    @property
    def dt(self) -> np.ndarray:
        return self.grid.dt

    @property
    def dq(self) -> np.ndarray:
        # dt + dA, not diff(Q): rounding keeps it >= dt, so alpha <= 1
        return self.dt + np.diff(self.A)

    @property
    def dA(self) -> np.ndarray:
        return np.diff(self.A)

    def driver_paths(self) -> np.ndarray:
        """Driver values B along evaluation paths, shape (P, N+1)."""
        n = self.grid.steps
        out = np.zeros((self.n_paths, n + 1))
        out[:, 1:] = np.cumsum(self.dB, axis=1)
        return out

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

    def on_paths(self, level_values: list, start: int = 0) -> np.ndarray:
        """Materialize lattice levels start, start + 1, ... onto evaluation paths.

        The levels are laid end to end and gathered in one take: each
        level starts at the sum of the sizes of the levels before it.
        """
        if self.node_index is None:
            raise ConfigError("on_paths requires a lattice bundle")
        n = len(level_values)
        sizes = [len(level) for level in level_values]
        if sizes != [len(level) for level in self.levels[start:start + n]]:
            raise GridMismatch("level sizes do not match the lattice")
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1], dtype=np.int64)])
        return np.concatenate(level_values)[self.node_index[:, start:start + n] + offsets]


def _tree_levels(n_steps: int, sqdt: float) -> list:
    return [(2.0 * np.arange(i + 1) - i) * sqdt for i in range(n_steps + 1)]


def _enumerate_sign_paths(n_steps: int) -> np.ndarray:
    idx = np.arange(2**n_steps, dtype=np.int64)
    return (idx[:, None] >> np.arange(n_steps)) & 1


def build_paths(
    grid: TimeGrid, noise: NoiseModel, a_spec: IncreasingProcessSpec
) -> PathBundle:
    """Realize the noise and the clock on the grid.

    The binomial tree requires a uniform grid so that +-sqrt(dt) moves
    recombine; its squared increments then match dt exactly, node by
    node.  Evaluation paths through the tree are enumerated exhaustively
    for short grids and sampled fairly from keyed streams otherwise.
    """
    t = grid.nodes
    n = grid.steps
    dt = grid.dt
    A = a_spec.values(t)
    Q = t + A
    # diff(t + A) can round below dt when dA is tiny; dt + dA cannot,
    # since A is non-decreasing and rounding is monotone
    dq = dt + np.diff(A)
    alpha = dt / dq

    levels = None
    node_index = None
    if noise.kind == "tree":
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0):
            raise ConfigError("noise: binomial tree requires a uniform grid")
        sqdt = float(np.sqrt(dt[0]))
        levels = _tree_levels(n, sqdt)
        if n <= ENUMERATION_LIMIT and noise.eval_paths is None:
            ups = _enumerate_sign_paths(n)
        else:
            count = DEFAULT_TREE_EVAL_PATHS if noise.eval_paths is None else noise.eval_paths
            ups = rngmod.sign_paths(noise.seed, count, n)
        dB = (2.0 * ups - 1.0) * sqdt
        node_index = np.concatenate(
            [np.zeros((ups.shape[0], 1), dtype=np.int64), np.cumsum(ups, axis=1)], axis=1
        )
    elif noise.kind == "mc":
        dB = rngmod.gaussian_increments(noise.seed, noise.paths, dt)
    elif noise.kind == "deterministic":
        dB = np.zeros((1, n))
        levels = [np.zeros(1) for _ in range(n + 1)]
        node_index = np.zeros((1, n + 1), dtype=np.int64)
    else:
        raise ConfigError(f"noise: unknown kind {noise.kind!r}")

    return PathBundle(
        grid=grid, kind=noise.kind, dB=dB, A=A, Q=Q, alpha=alpha,
        levels=levels, node_index=node_index,
    )


def accumulate_weights(
    bundle: PathBundle, mu: float, nu: float, ell: float, p: float, lam: float
) -> PathBundle:
    """Fill V and Vplus for the given structural coefficients.

    lam is the Lipschitz split parameter in (0, 1); constants-only
    coefficients keep V deterministic, matching the deterministic A.
    """
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    for name, val in (("mu", mu), ("nu", nu), ("ell", ell)):
        if not np.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
    n_p = moment_factor(p)
    t = bundle.grid.nodes
    drift = mu + ell * ell / (2.0 * n_p * lam)
    V = drift * t + nu * bundle.A
    Vplus = max(drift, 0.0) * t + max(nu, 0.0) * bundle.A
    return replace(bundle, V=V, Vplus=Vplus)
