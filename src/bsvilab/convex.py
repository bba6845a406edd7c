"""Convex potentials and their Moreau-Yosida regularizations.

A potential is a proper convex lower-semicontinuous function
phi: R -> [0, +inf] normalized so that phi(0) = 0 <= phi(y).  For eps > 0
the regularization and its ingredients are

    envelope:   phi_eps(y) = inf_v { |y - v|^2 / (2 eps) + phi(v) }
    resolvent:  J_eps(y)   = the unique minimizer v above
    gradient:   D phi_eps(y) = (y - J_eps(y)) / eps

The gradient is 1/eps Lipschitz, the resolvent is nonexpansive, and the
envelope decomposes as phi_eps(y) = |y - J_eps(y)|^2/(2 eps) + phi(J_eps(y)).
Every kind is closed form and acts coordinatewise, so every operation
broadcasts over numpy arrays of scalar coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteInput

_KINDS = ("zero", "interval", "quadratic", "abs")


@dataclass(frozen=True)
class ConvexSpec:
    """Description of one convex potential, normalized at construction.

    kind "interval" is the indicator of [a, b] (value 0 inside, +inf
    outside, bounds may be infinite), "quadratic" is c |y|^2 / 2 with
    c > 0, "abs" is |y|.  Every kind is finite and minimal at 0, so an
    interval must contain 0; this is the one place that is checked.
    """

    kind: str
    a: float = -np.inf
    b: float = np.inf
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "interval":
            if not (self.a <= 0.0 <= self.b):
                raise DomainError(f"interval must contain 0, got [{self.a}, {self.b}]")
            if not (self.a < self.b):
                raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if self.kind == "quadratic" and not (np.isfinite(self.c) and self.c > 0.0):
            raise DomainError(f"quadratic coefficient must be finite and > 0, got {self.c}")

    @staticmethod
    def zero() -> "ConvexSpec":
        return ConvexSpec(kind="zero")

    @staticmethod
    def interval(a: float, b: float) -> "ConvexSpec":
        return ConvexSpec(kind="interval", a=float(a), b=float(b))

    @staticmethod
    def quadratic(c: float) -> "ConvexSpec":
        return ConvexSpec(kind="quadratic", c=float(c))

    @staticmethod
    def abs_value() -> "ConvexSpec":
        return ConvexSpec(kind="abs")


def _require_finite(name, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return arr


def _require_eps(eps) -> float:
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    return eps


def potential_value(spec: ConvexSpec, y) -> np.ndarray:
    """Extended-real potential value, elementwise over scalar coordinates."""
    y = _require_finite("y", y)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "interval":
        out = np.where((y >= spec.a) & (y <= spec.b), 0.0, np.inf)
        return np.asarray(out, dtype=float)
    if spec.kind == "quadratic":
        return 0.5 * spec.c * y * y
    return np.abs(y)


def resolvent(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Minimizer of v -> |y - v|^2/(2 eps) + phi(v).

    Closed forms: identity (zero), linear shrink y/(1 + eps c)
    (quadratic), clamp to [a, b] (interval), soft threshold (abs).
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.kind == "zero":
        return y.copy()
    if spec.kind == "quadratic":
        return y / (1.0 + eps * spec.c)
    if spec.kind == "interval":
        return np.clip(y, spec.a, spec.b)
    return np.sign(y) * np.maximum(np.abs(y) - eps, 0.0)


def envelope(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Moreau envelope phi_eps(y), elementwise.

    Equal to |y - J_eps(y)|^2 / (2 eps) + phi(J_eps(y)), written out per
    kind.
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "quadratic":
        return 0.5 * spec.c * y * y / (1.0 + eps * spec.c)
    if spec.kind == "interval":
        d = np.maximum(y - spec.b, 0.0) + np.maximum(spec.a - y, 0.0)
        return d * d / (2.0 * eps)
    # Huber function
    return np.where(np.abs(y) <= eps, y * y / (2.0 * eps), np.abs(y) - 0.5 * eps)


def combined_potential(phi: ConvexSpec, psi: ConvexSpec, alpha, eps, y) -> np.ndarray:
    """alpha phi_eps(y) + (1 - alpha) psi_eps(y), raw potentials where eps is None.

    A potential weighted 0 contributes 0, also outside its domain (0 * inf
    counts as 0).  A term whose kind is zero, or whose weight is 0 at
    every entry of alpha, is +0.0 throughout and is not evaluated; every
    potential value is >= +0.0, so leaving it out changes no bit.  Each
    term evaluated checks y and eps; where none is, they are checked
    here, so a non-finite y raises NonFiniteInput either way.
    """
    alpha = np.asarray(alpha, dtype=float)
    out = None
    for spec, weight, on in ((phi, alpha, alpha > 0.0), (psi, 1.0 - alpha, alpha < 1.0)):
        if spec.kind == "zero" or not on.any():
            continue
        value = potential_value(spec, y) if eps is None else envelope(spec, eps, y)
        with np.errstate(invalid="ignore"):
            term = np.where(on, weight * value, 0.0)
        out = term if out is None else out + term
    if out is None:
        y = _require_finite("y", y)
        if eps is not None:
            _require_eps(eps)
        out = np.zeros(np.broadcast(alpha, y).shape)
    return out


def yosida_gradient(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Gradient of the envelope, (y - J_eps(y)) / eps; resolvent checks
    y and eps.

    For the indicator of [a, b] this is ((y - b)^+ - (a - y)^+) / eps,
    bit for bit.
    """
    return (np.asarray(y, dtype=float) - resolvent(spec, eps, y)) / float(eps)


def combined_gradient(phi: ConvexSpec, psi: ConvexSpec, alpha, eps, y) -> np.ndarray:
    """alpha * D phi_eps + (1 - alpha) * D psi_eps.

    Precondition: every alpha lies in [0, 1], as build_paths ensures for
    the clock's alpha = dt / dQ; it is not checked here.
    """
    alpha = np.asarray(alpha, dtype=float)
    return alpha * yosida_gradient(phi, eps, y) + (1.0 - alpha) * yosida_gradient(psi, eps, y)


def gradient_breakpoints(spec: ConvexSpec, eps: float) -> list:
    """Kink locations of the piecewise-linear Yosida gradient."""
    if spec.kind in ("zero", "quadratic"):
        return []
    if spec.kind == "interval":
        return [x for x in (spec.a, spec.b) if np.isfinite(x)]
    return [-eps, eps]

