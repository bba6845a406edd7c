"""Convex potentials and their Moreau-Yosida regularizations.

A potential is a proper convex lower-semicontinuous function
phi: R -> [0, +inf] normalized so that phi(0) = 0 <= phi(y); a
recentered one only has 0 as a minimizer.  For eps > 0
the regularization and its ingredients are

    envelope:   phi_eps(y) = inf_v { |y - v|^2 / (2 eps) + phi(v) }
    resolvent:  J_eps(y)   = the unique minimizer v above
    gradient:   D phi_eps(y) = (y - J_eps(y)) / eps

The gradient is 1/eps Lipschitz, the resolvent is nonexpansive, and the
envelope decomposes as phi_eps(y) = |y - J_eps(y)|^2/(2 eps) + phi(J_eps(y)).
Every kind is closed form and acts coordinatewise, so every operation
broadcasts over numpy arrays of scalar coordinates.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteInput, NotASubgradient

@dataclass(frozen=True)
class ConvexSpec:
    """Description of one convex potential.

    kind "interval" is the indicator of [a, b] (value 0 inside, +inf
    outside, bounds may be infinite), "quadratic" is c |y|^2 / 2 with
    c > 0, "abs" is |y|.  A recentered spec (see recenter) stands for
    phi(y + shift) - tilt * y, where phi is the kind's potential; the
    proximal rules for a translation and a linear tilt keep every
    operation in closed form.  With shift = tilt = 0 each operation is
    the kind's own formula, untouched.
    """

    kind: str
    a: float = -np.inf
    b: float = np.inf
    c: float = 1.0
    shift: float = 0.0
    tilt: float = 0.0

    @property
    def recentered(self) -> bool:
        return self.shift != 0.0 or self.tilt != 0.0

    @staticmethod
    def zero() -> "ConvexSpec":
        return ConvexSpec(kind="zero")

    @staticmethod
    def interval(a: float, b: float) -> "ConvexSpec":
        # 0 in [a, b] is not required here; recenter() translates such
        # intervals, and the solver rejects potentials infinite at 0
        if not (a < b):
            raise DomainError(f"interval requires a < b, got [{a}, {b}]")
        return ConvexSpec(kind="interval", a=float(a), b=float(b))

    @staticmethod
    def quadratic(c: float) -> "ConvexSpec":
        if not (np.isfinite(c) and c > 0.0):
            raise DomainError(f"quadratic coefficient must be finite and > 0, got {c}")
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


def _unknown(spec: ConvexSpec) -> DomainError:
    return DomainError(f"unknown potential kind {spec.kind!r}")


def _moved(spec: ConvexSpec, eps: float, y: np.ndarray) -> np.ndarray:
    """x = y + shift + eps tilt, where a recentered spec reads its kind's maps.

    For phi_hat(y) = phi(y + shift) - tilt y, completing the square gives
    J_hat(y) = J(x) - shift, D phi_hat_eps(y) = D phi_eps(x) - tilt and
    phi_hat_eps(y) = phi_eps(x) - tilt y - eps tilt^2 / 2.
    """
    return y + spec.shift + eps * spec.tilt


def potential_value(spec: ConvexSpec, y) -> np.ndarray:
    """Extended-real potential value, elementwise over scalar coordinates."""
    y = _require_finite("y", y)
    if spec.recentered:
        return _value(spec, y + spec.shift) - spec.tilt * y
    return _value(spec, y)


def _value(spec, y):
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "interval":
        out = np.where((y >= spec.a) & (y <= spec.b), 0.0, np.inf)
        return np.asarray(out, dtype=float)
    if spec.kind == "quadratic":
        return 0.5 * spec.c * y * y
    if spec.kind == "abs":
        return np.abs(y)
    raise _unknown(spec)


def resolvent(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Minimizer of v -> |y - v|^2/(2 eps) + phi(v).

    Closed forms: identity (zero), linear shrink y/(1 + eps c)
    (quadratic), clamp to [a, b] (interval), soft threshold (abs).
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.recentered:
        return _resolvent(spec, eps, _moved(spec, eps, y)) - spec.shift
    return _resolvent(spec, eps, y)


def _resolvent(spec, eps, y):
    if spec.kind == "zero":
        return y.copy()
    if spec.kind == "quadratic":
        return y / (1.0 + eps * spec.c)
    if spec.kind == "interval":
        return np.clip(y, spec.a, spec.b)
    if spec.kind == "abs":
        return np.sign(y) * np.maximum(np.abs(y) - eps, 0.0)
    raise _unknown(spec)


def envelope(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Moreau envelope phi_eps(y), elementwise.

    Equal to |y - J_eps(y)|^2 / (2 eps) + phi(J_eps(y)), written out per
    kind.
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.recentered:
        x = _moved(spec, eps, y)
        return _envelope(spec, eps, x) - spec.tilt * y - 0.5 * eps * spec.tilt * spec.tilt
    return _envelope(spec, eps, y)


def _envelope(spec, eps, y):
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "quadratic":
        return 0.5 * spec.c * y * y / (1.0 + eps * spec.c)
    if spec.kind == "interval":
        d = np.maximum(y - spec.b, 0.0) + np.maximum(spec.a - y, 0.0)
        return d * d / (2.0 * eps)
    if spec.kind == "abs":
        # Huber function
        return np.where(np.abs(y) <= eps, y * y / (2.0 * eps), np.abs(y) - 0.5 * eps)
    raise _unknown(spec)


def yosida_gradient(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Gradient of the envelope, (y - J_eps(y)) / eps.

    For the indicator of [a, b] this is ((y - b)^+ - (a - y)^+) / eps.
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.recentered:
        return _gradient(spec, eps, _moved(spec, eps, y)) - spec.tilt
    return _gradient(spec, eps, y)


def _gradient(spec, eps, y):
    if spec.kind == "interval":
        return (np.maximum(y - spec.b, 0.0) - np.maximum(spec.a - y, 0.0)) / eps
    return (y - _resolvent(spec, eps, y)) / eps


def combined_gradient(phi: ConvexSpec, psi: ConvexSpec, alpha, eps, y) -> np.ndarray:
    """alpha * D phi_eps + (1 - alpha) * D psi_eps."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise DomainError("alpha must lie in [0, 1]")
    return alpha * yosida_gradient(phi, eps, y) + (1.0 - alpha) * yosida_gradient(psi, eps, y)


def gradient_breakpoints(spec: ConvexSpec, eps: float) -> list:
    """Kink locations of the piecewise-linear Yosida gradient.

    Every kind has one; a recentered spec's kinks move by
    -(shift + eps tilt).
    """
    if spec.kind in ("zero", "quadratic"):
        kinks = []
    elif spec.kind == "interval":
        kinks = [x for x in (spec.a, spec.b) if np.isfinite(x)]
    elif spec.kind == "abs":
        kinks = [-eps, eps]
    else:
        raise _unknown(spec)
    if spec.recentered:
        move = spec.shift + eps * spec.tilt
        return [x - move for x in kinks]
    return kinks


@dataclass(frozen=True)
class RecenterData:
    """Shift point u0 with one subgradient of each potential at u0."""

    u0: float
    phi_subgradient: float
    psi_subgradient: float


def _check_subgradient(spec: ConvexSpec, u0: float, sub: float) -> None:
    """Refuse sub unless it lies in the kind's subdifferential at u0."""
    if spec.kind == "zero":
        ok = sub == 0.0
    elif spec.kind == "quadratic":
        ok = abs(sub - spec.c * u0) <= 1e-12 * max(1.0, abs(spec.c * u0))
    elif spec.kind == "abs":
        ok = abs(sub) <= 1.0 if u0 == 0.0 else sub == np.sign(u0)
    elif spec.kind == "interval":
        if not spec.a <= u0 <= spec.b:
            raise NotASubgradient(f"recentering point {u0} lies outside the domain")
        # the normal cone: {0} inside, [0, inf) at b, (-inf, 0] at a
        ok = sub == 0.0 or (u0 == spec.b and sub > 0.0) or (u0 == spec.a and sub < 0.0)
    else:
        raise _unknown(spec)
    if not (ok and np.isfinite(sub)):
        raise NotASubgradient(f"{sub} is not a subgradient of the potential at {u0}")


def _recenter_one(spec: ConvexSpec, u0: float, sub: float) -> ConvexSpec:
    if spec.recentered:
        # two recenterings compose to phi(y + u0 + u1) - (s0 + s1) y - s0 u1,
        # whose constant the spec cannot hold
        raise DomainError("the potential is already recentered")
    _check_subgradient(spec, u0, sub)
    if spec.kind == "zero":
        return spec
    if spec.kind == "interval" and sub == 0.0:
        return ConvexSpec.interval(spec.a - u0, spec.b - u0)
    if u0 == 0.0 and sub == 0.0:
        return spec
    return replace(spec, shift=u0, tilt=sub)


def recenter(phi: ConvexSpec, psi: ConvexSpec, data: RecenterData) -> tuple:
    """Shift both potentials so the distinguished point moves to the origin.

    Returns (phi_hat, psi_hat) with
    phi_hat(y) = phi(y + u0) - <phi_subgradient, y>, and likewise for psi.
    The tilt makes 0 a minimizer of the shifted potential (0 belongs to
    its subdifferential at 0); the minimum value need not be 0.  The
    result is exact: an interval with a zero subgradient is translated,
    any other kind carries shift u0 and tilt subgradient.  A spec that
    is already recentered is refused.
    """
    u0 = float(data.u0)
    if not np.isfinite(u0):
        raise NonFiniteInput("recentering point must be finite")
    phi_hat = _recenter_one(phi, u0, float(data.phi_subgradient))
    psi_hat = _recenter_one(psi, u0, float(data.psi_subgradient))
    return phi_hat, psi_hat


@dataclass
class CompatibilityReport:
    passed: bool
    worst_margin: float
    worst_case: dict = field(default_factory=dict)


def compatibility_check(
    phi: ConvexSpec,
    psi: ConvexSpec,
    F: Callable,
    G: Callable,
    eps_list,
    t_samples,
    y_samples,
    z_samples,
    tol: float = 1e-10,
) -> CompatibilityReport:
    """Sampled test of the three sign conditions coupling potentials and drivers.

    For each eps and sample point (t, y, z) the conditions are
        (i)    <D phi_eps(y), D psi_eps(y)> >= 0
        (ii)   <D phi_eps(y), G(t, y)>    <= |D psi_eps(y)| |G(t, y)|
        (iii)  <D psi_eps(y), F(t, y, z)> <= |D phi_eps(y)| |F(t, y, z)|
    A positive margin is a violation.  This certifies nothing beyond the
    sampled points; the report records the worst offender for diagnosis.
    """
    y = _require_finite("y_samples", y_samples)
    t_samples = np.asarray(t_samples, dtype=float)
    z_samples = np.asarray(z_samples, dtype=float)
    worst = -np.inf
    worst_case = {}

    def record(label, m, eps, t):
        nonlocal worst, worst_case
        i = int(np.argmax(m))
        if m.flat[i] > worst:
            worst = float(m.flat[i])
            worst_case = {
                "condition": label,
                "eps": eps,
                "t": float(t),
                "y": float(np.asarray(y).flat[i]),
                "margin": worst,
            }

    for eps in eps_list:
        eps = _require_eps(eps)
        gp = yosida_gradient(phi, eps, y)
        gq = yosida_gradient(psi, eps, y)
        record("gradient_product", -gp * gq, eps, t_samples[0])
        for t in t_samples:
            g_val = np.broadcast_to(np.asarray(G(t, y), dtype=float), y.shape)
            record("G_alignment", gp * g_val - np.abs(gq) * np.abs(g_val), eps, t)
            for z in z_samples:
                f_val = np.broadcast_to(np.asarray(F(t, y, z), dtype=float), y.shape)
                record("F_alignment", gq * f_val - np.abs(gp) * np.abs(f_val), eps, t)
    return CompatibilityReport(passed=bool(worst <= tol), worst_margin=float(worst), worst_case=worst_case)
