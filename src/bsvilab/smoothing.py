"""The exponential kernel smoothing of a per-node process: the verifier's
smoothed test process.

One backward pass over the levels of a backend's layout, with the
backend's conditional expectations and loadings.  On deterministic
noise each level is one cell and the pass recurses in Python floats
instead of numpy calls on one-element rows; they give the same bits.
On the lsq backend the pass keeps what it fits per date, a few
coefficients, and its readers evaluate N and R a window at a time.  On
a tree the drift is taken from M itself, so that the smoothed process
is a lattice function.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .solver import RegressionBackend, _Levels, _one_cell, level_cells


@dataclass
class SmoothedProcess(_Levels):
    """Discrete exponential smoothing M of a per-node process X, the
    smoothed process (the battery smooths Y).

    M_i averages X over the clock window starting at max(t_i, eps) with
    weights proportional to exp(-(Q_j - Q_start)/scale) dQ_j plus the
    held tail, renormalized to total mass one; below eps it extends as a
    martingale.  R is the per-step martingale loading and N the drift,
    0 below eps, so that (gamma, N, R) reconstructs M through
    M_{i+1} = M_i - N_i dQ_i + R_i dB_i.  On a tree N_i is
    (M_i - CE_i[M_{i+1}]) / dQ_i from eps on, and the reconstruction
    gives M node by node in exact arithmetic: M is a lattice function,
    and the verifier reads it as such.  On the lsq backend and on
    deterministic noise N is the compensating drift (X_i - M_i)/scale,
    and the reconstruction holds up to conditional-expectation
    discretization.  M, N and R take X's layout, offsets; on a lattice
    and on deterministic noise they are the pass's arrays, lattice-sized
    levels.  steps(a, e) is (N, R) on the levels of the steps [a, e); it
    reads N and R alone, so a reader that keeps only steps lets M go.
    """

    gamma: float
    M: np.ndarray
    N: np.ndarray
    R: np.ndarray
    offsets: np.ndarray
    i_eps: int
    scale: float

    def __post_init__(self):
        n_levels, r_levels, off = self.N, self.R, self.offsets
        self.steps = lambda a, e: (n_levels[off[a]:off[e]], r_levels[off[a]:off[e]])


class FittedSmoothing(SmoothedProcess):
    """The smoothed process on the lsq backend, kept as what its pass
    fitted per date: the coefficients (RegressionBackend.coefficients)
    of CE_i of the kernel sum from i_eps on, or of M_{i+1} below it,
    those of the loading R_i, and the kernel mass w_i; a sample mean at
    date 0.  That is at most (degree + 1) floats per fit where a level
    holds one float per path.

    M, N and R, whole or by levels, are evaluated from the fits with the
    pass's own calls and elementwise steps in their order, so they equal
    the arrays the pass would have written bit for bit; steps(a, e)
    builds the basis of each level once for N and R.  X is read, not
    copied: it must stay unchanged while the process is read.
    """

    def __init__(self, backend, x, gamma, i_eps, scale, weights, decays, fits):
        self.backend, self.x, self.gamma = backend, x, gamma
        self.offsets, self.i_eps, self.scale = backend.offsets, i_eps, scale
        self._weights, self._decays, self._fits = weights, decays, fits

    M = property(lambda self: self.levels("M", 0, len(self.offsets) - 1))
    N = property(lambda self: self.steps(0, len(self.offsets) - 2)[0])
    R = property(lambda self: self.steps(0, len(self.offsets) - 2)[1])

    def levels(self, name: str, a: int, b: int) -> np.ndarray:
        if name != "M":
            return self.steps(a, b)["NR".index(name)]
        n = len(self._fits)
        m = [self._date(i)[0] for i in range(a, min(b, n))]
        if b == n + 1:
            m.append(self.x[self.offsets[n]:] / 1.0)  # the held tail's mass is 1
        return np.concatenate(m)

    def steps(self, a: int, e: int) -> tuple:
        width = self.backend.bundle.n_paths
        n_levels, r_levels = np.zeros((e - a) * width), np.empty((e - a) * width)
        for i in range(a, e):
            cells = slice((i - a) * width, (i + 1 - a) * width)
            m, r_levels[cells] = self._date(i)
            if i >= self.i_eps:
                # the drift (x - M) / scale, as the array pass forms it
                x_i = self.x[self.offsets[i]:self.offsets[i + 1]]
                np.subtract(x_i, m, out=n_levels[cells])
                n_levels[cells] /= self.scale
        return n_levels, r_levels

    def _date(self, i: int) -> tuple:
        """M_i and R_i on the paths, from date i's fits on one basis."""
        c, c_r, w_acc = self._fits[i]
        ce, r = self.backend.fitted(i, c), self.backend.fitted(i, c_r)
        if i < self.i_eps:
            return ce, r
        x_i = self.x[self.offsets[i]:self.offsets[i + 1]]
        return (self._weights[i] * x_i + self._decays[i] * ce) / w_acc, r


def _one_cell_smoothing(x, m, weights: list, decays: list, i_eps: int):
    """The smoothing pass on one-cell levels, in Python floats:
    g <- w_i x_i + d_i g and M_i = g / w from i_eps on, M_i = M_{i+1}
    below it, with the operations, in their order, of the array pass.
    x and m are the storage of X and M, 8 bytes per level."""
    n = len(weights)
    g = x[n]
    w = 1.0  # closed-form tail on the held terminal value
    m[n] = g / w
    for i in range(n - 1, i_eps - 1, -1):
        g = weights[i] * x[i] + decays[i] * g
        w = weights[i] + decays[i] * w
        m[i] = g / w
    for i in range(i_eps - 1, -1, -1):
        m[i] = m[i + 1]


def _fitted_smoothing(backend, x, weights: list, decays: list, i_eps: int, scale: float):
    """The smoothing pass on the lsq backend, keeping per date what it
    fits (FittedSmoothing) and only the next level of M; the same calls
    and elementwise steps, in their order, as the array pass.  Below
    i_eps, Z_i fits against the CE it has just fitted."""
    n = len(weights)
    bounds = backend.offsets.tolist()
    g_acc = x[bounds[n]:].copy()
    w_acc = 1.0  # closed-form tail on the held terminal value
    m_next = g_acc / w_acc
    fits = [None] * n
    for i in reversed(range(n)):
        a, b = bounds[i:i + 2]
        if i >= i_eps:
            c = backend.coefficients(i, g_acc)
            g_acc = weights[i] * x[a:b] + decays[i] * backend.fitted(i, c)
            w_acc = weights[i] + decays[i] * w_acc
            m, ce = g_acc / w_acc, None
        else:
            c = backend.coefficients(i, m_next)
            m = ce = backend.fitted(i, c)
        fits[i] = (c, backend.coefficients(i, backend.z_target(i, m_next, ce)), w_acc)
        m_next = m
    return FittedSmoothing(
        backend, x, float(np.mean(m_next)), i_eps, scale, weights, decays, fits
    )


def smoothing_operator(backend, x: np.ndarray, eps: float) -> SmoothedProcess:
    """Exponential kernel smoothing of the process x at the time point eps.

    x is one array over the N + 1 levels of backend.bundle in the
    backend's layout.  The kernel scale in clock units is Q at the first
    grid node with t >= eps; values beyond the horizon are extended by
    holding the last node value, which gives the kernel tail a closed
    form.

    One backward loop keeps what the recursion reads: the kernel sum,
    M and the loading R, with backend.ce(i, .) and backend.z(i, .) of a
    date taken together, so the lsq backend's one-date slot builds one
    basis per date.  On the lsq backend the pass keeps per date only
    its fits (_fitted_smoothing, FittedSmoothing) and no (paths, nodes)
    array.  On deterministic noise, whatever the driver, CE is the level
    itself and R = 0, and the loop runs in Python floats
    (_one_cell_smoothing) with the same operations in the same order.
    On a tree the loop forms M_i - CE_i[M_{i+1}], and the division by
    dQ_i finishes N after it in one elementwise pass.
    """
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"smoothing eps must be > 0, got {eps}")
    bundle = backend.bundle
    n = bundle.grid.steps
    t = bundle.grid.nodes
    dq = bundle.dq
    # the first node with t >= eps; eps > 0 = t_0, so i_eps >= 1
    i_eps = int(np.searchsorted(t, eps))
    if i_eps >= n + 1:
        raise DomainError("smoothing eps lies beyond the horizon")
    scale = float(bundle.Q[i_eps])

    # one backward pass; each date takes its expectation and its loading
    # together.  From i_eps on, M is the kernel sum over its deterministic
    # mass; below i_eps it extends as a martingale.
    # each step's kernel weight dQ_i / scale and decay exp(-dQ_i / scale)
    weights = (dq / scale).tolist()
    decays = np.exp(-dq / scale).tolist()
    if isinstance(backend, RegressionBackend):
        return _fitted_smoothing(backend, x, weights, decays, i_eps, scale)
    off = backend.offsets
    m, drift, loading = np.empty(off[n + 1]), np.zeros(off[n]), np.zeros(off[n])
    on = slice(off[i_eps], off[n])
    if _one_cell(backend):
        # CE is the level itself and R = 0: the kernel sum in floats
        x_at = memoryview(np.ascontiguousarray(x))
        _one_cell_smoothing(x_at, memoryview(m), weights, decays, i_eps)
        # the drift (x - M) / scale from i_eps on, in one pass; 0 below it
        np.subtract(x[on], m[on], out=drift[on])
        drift[on] /= scale
    else:
        g_acc = x[off[n]:].copy()
        w_acc = 1.0  # closed-form tail on the held terminal value
        m[off[n]:] = g_acc / w_acc
        bounds = off.tolist()
        for i in reversed(range(n)):
            a, b, c = bounds[i:i + 3]
            m_next = m[b:c]
            if i >= i_eps:
                decay, w_i = decays[i], weights[i]
                g_acc = w_i * x[a:b] + decay * backend.ce(i, g_acc)
                w_acc = w_i + decay * w_acc
                m[a:b] = g_acc / w_acc
                np.subtract(m[a:b], backend.ce(i, m_next), out=drift[a:b])
            else:
                m[a:b] = backend.ce(i, m_next)
            loading[a:b] = backend.z(i, m_next)
        # the drift (M_i - CE_i[M_{i+1}]) / dQ_i from i_eps on, in one
        # pass; 0 below it, where M_i is CE_i[M_{i+1}]
        drift[on] /= level_cells(off, dq, i_eps, n)

    return SmoothedProcess(
        gamma=float(np.mean(m[off[0]:off[1]])),
        M=m,
        N=drift,
        R=loading,
        offsets=off,
        i_eps=i_eps,
        scale=scale,
    )
