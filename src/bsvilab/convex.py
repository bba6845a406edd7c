"""Convex potentials and their Moreau-Yosida regularizations.

A potential is a proper convex lower-semicontinuous function
phi: R -> [0, +inf] normalized so that phi(0) = 0 <= phi(y).  For eps > 0
the regularization and its ingredients are

    envelope:   phi_eps(y) = inf_v { |y - v|^2 / (2 eps) + phi(v) }
    resolvent:  J_eps(y)   = the unique minimizer v above
    gradient:   D phi_eps(y) = (y - J_eps(y)) / eps

The gradient is 1/eps Lipschitz, the resolvent is nonexpansive, and the
envelope decomposes as phi_eps(y) = |y - J_eps(y)|^2/(2 eps) + phi(J_eps(y)).
All closed-form kinds act coordinatewise, so every operation broadcasts
over numpy arrays of scalar coordinates.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonFiniteInput, NotASubgradient, ProxFailure

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

KINDS = ("zero", "interval", "quadratic", "abs", "custom")


@dataclass(frozen=True)
class ConvexSpec:
    """Description of one convex potential.

    kind "interval" is the indicator of [a, b] (value 0 inside, +inf
    outside, bounds may be infinite), "quadratic" is c |y|^2 / 2 with
    c > 0, "abs" is |y|, "custom" wraps a user evaluator, which is
    applied coordinatewise and must broadcast over arrays.
    """

    kind: str
    a: float = -np.inf
    b: float = np.inf
    c: float = 1.0
    evaluator: Optional[Callable] = None

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

    @staticmethod
    def custom(
        evaluator: Callable,
        check: bool = True,
        zero_at_origin: bool = True,
        seed: int = 0,
    ) -> "ConvexSpec":
        spec = ConvexSpec(kind="custom", evaluator=evaluator)
        if check:
            validate_custom(spec, zero_at_origin=zero_at_origin, seed=seed)
        return spec


def validate_custom(
    spec: ConvexSpec, zero_at_origin: bool = True, seed: int = 0, samples: int = 1000
) -> None:
    """Sampled sanity checks of a custom evaluator.

    Midpoint convexity and nonnegativity on random segments, and
    optionally phi(0) = 0.  Convexity cannot be certified pointwise, so a
    failed sample raises and a passing run only means "no lie found".
    """
    f = spec.evaluator
    rng = np.random.default_rng(seed)
    if zero_at_origin:
        v0 = float(np.asarray(f(np.zeros(1))).ravel()[0])
        if not np.isclose(v0, 0.0, atol=1e-9):
            raise DomainError(f"custom potential has phi(0) = {v0}, expected 0")
    x = rng.uniform(-10.0, 10.0, size=samples)
    y = rng.uniform(-10.0, 10.0, size=samples)
    fx, fy, fm = (np.asarray(f(v), dtype=float) for v in (x, y, (x + y) / 2.0))
    if np.any(np.minimum(np.minimum(fx, fy), fm) < -1e-12):
        raise DomainError("custom potential takes negative values on samples")
    finite = np.isfinite(fx) & np.isfinite(fy)
    if np.any(fm[finite] > (fx[finite] + fy[finite]) / 2.0 + 1e-9):
        raise DomainError("custom evaluator fails midpoint convexity on samples")


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
    if spec.kind == "abs":
        return np.abs(y)
    if spec.kind == "custom":
        return np.asarray(spec.evaluator(y), dtype=float)
    raise DomainError(f"unknown potential kind {spec.kind!r}")


def resolvent(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Minimizer of v -> |y - v|^2/(2 eps) + phi(v).

    Closed forms: identity (zero), linear shrink y/(1 + eps c)
    (quadratic), clamp to [a, b] (interval), soft threshold (abs).
    Customs fall back to a bracketed golden-section search per
    coordinate, with bracket half-width |y| + 10 eps (1 + |slope|); the
    normalization phi(0) = 0 <= phi guarantees |y - J(y)| <= |y|, so the
    bracket always contains the minimizer.
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.kind == "zero":
        return y.copy()
    if spec.kind == "quadratic":
        return y / (1.0 + eps * spec.c)
    if spec.kind == "interval":
        return np.clip(y, spec.a, spec.b)
    if spec.kind == "abs":
        return np.sign(y) * np.maximum(np.abs(y) - eps, 0.0)
    if spec.kind == "custom":
        return _prox_golden(spec.evaluator, eps, y)
    raise DomainError(f"unknown potential kind {spec.kind!r}")


def envelope(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Moreau envelope phi_eps(y), elementwise.

    Computed through the decomposition
    phi_eps(y) = |y - J_eps(y)|^2 / (2 eps) + phi(J_eps(y)).
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
    if spec.kind == "abs":
        # Huber function
        return np.where(np.abs(y) <= eps, y * y / (2.0 * eps), np.abs(y) - 0.5 * eps)
    j = resolvent(spec, eps, y)
    val = (y - j) ** 2 / (2.0 * eps) + potential_value(spec, j)
    if not np.all(np.isfinite(np.asarray(val))):
        raise ProxFailure("envelope evaluation produced non-finite values")
    return val


def yosida_gradient(spec: ConvexSpec, eps, y) -> np.ndarray:
    """Gradient of the envelope, (y - J_eps(y)) / eps.

    For the indicator of [a, b] this is ((y - b)^+ - (a - y)^+) / eps.
    """
    y = _require_finite("y", y)
    eps = _require_eps(eps)
    if spec.kind == "interval":
        return (np.maximum(y - spec.b, 0.0) - np.maximum(spec.a - y, 0.0)) / eps
    return (y - resolvent(spec, eps, y)) / eps


def combined_gradient(
    phi: ConvexSpec, psi: ConvexSpec, alpha, eps, y, active=True
) -> np.ndarray:
    """alpha * D phi_eps + (1 - alpha) * D psi_eps, times a truncation flag.

    ``active`` is the indicator that the increasing process is still
    within the 1/eps budget; it broadcasts against y.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise DomainError("alpha must lie in [0, 1]")
    g = alpha * yosida_gradient(phi, eps, y) + (1.0 - alpha) * yosida_gradient(psi, eps, y)
    return g * np.asarray(active, dtype=float)


def gradient_breakpoints(spec: ConvexSpec, eps: float) -> list:
    """Kink locations of the piecewise-linear Yosida gradient.

    Only closed-form kinds have one; customs return None to signal that
    an implicit solve must fall back to bisection.
    """
    if spec.kind in ("zero", "quadratic"):
        return []
    if spec.kind == "interval":
        return [x for x in (spec.a, spec.b) if np.isfinite(x)]
    if spec.kind == "abs":
        return [-eps, eps]
    return None


def _prox_golden(evaluator, eps, y, iterations=120):
    """Vectorized golden-section search for custom potentials.

    The bracket is first shrunk onto the effective domain (bisecting
    against 0, which the normalization keeps inside), because golden
    section cannot break ties between two +inf probes; on the shrunk
    bracket the objective is finite and unimodal by convexity.
    """
    y = np.asarray(y, dtype=float)
    h = 1e-6 * (1.0 + np.abs(y))
    f_hi = np.asarray(evaluator(y + h), dtype=float)
    f_lo = np.asarray(evaluator(y - h), dtype=float)
    both = np.isfinite(f_hi) & np.isfinite(f_lo)
    with np.errstate(invalid="ignore"):
        slope = np.where(both, np.abs(f_hi - f_lo), 0.0) / (2.0 * h)
    half = np.abs(y) + 10.0 * eps * (1.0 + slope)

    def objective(v):
        return (y - v) ** 2 / (2.0 * eps) + np.asarray(evaluator(v), dtype=float)

    def shrink_to_domain(edge):
        bad = ~np.isfinite(np.asarray(evaluator(edge), dtype=float))
        outside = edge
        inside = np.where(bad, 0.0, edge)
        for _ in range(80):
            mid = 0.5 * (outside + inside)
            fin = np.isfinite(np.asarray(evaluator(mid), dtype=float))
            inside = np.where(fin, mid, inside)
            outside = np.where(fin, outside, mid)
        return inside

    lo = shrink_to_domain(y - half)
    hi = shrink_to_domain(y + half)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    for _ in range(iterations):
        move_right = f1 > f2
        lo = np.where(move_right, x1, lo)
        hi = np.where(move_right, hi, x2)
        x1_new = np.where(move_right, x2, hi - _GOLDEN * (hi - lo))
        x2_new = np.where(move_right, lo + _GOLDEN * (hi - lo), x1)
        f1_keep = np.where(move_right, f2, 0.0)
        f2_keep = np.where(move_right, 0.0, f1)
        x1, x2 = x1_new, x2_new
        f1 = np.where(move_right, f1_keep, objective(x1))
        f2 = np.where(move_right, objective(x2), f2_keep)
    out = 0.5 * (lo + hi)
    # a kink or domain wall can sit between the last probes, keep the best
    cand = np.stack([out, lo, hi])
    vals = np.stack([objective(c) for c in cand])
    pick = np.argmin(vals.reshape(3, -1), axis=0)
    out = cand.reshape(3, -1)[pick, np.arange(pick.size)].reshape(out.shape)
    if not np.all(np.isfinite(objective(out))):
        raise ProxFailure("golden-section prox left the domain of the potential")
    return out


@dataclass(frozen=True)
class RecenterData:
    """Shift point u0 with one subgradient of each potential at u0."""

    u0: float
    phi_subgradient: float
    psi_subgradient: float


def _check_subgradient(spec: ConvexSpec, u0: float, sub: float, seed: int = 0) -> None:
    f_u0 = float(np.asarray(potential_value(spec, np.asarray([u0]))).ravel()[0])
    if not np.isfinite(f_u0):
        raise NotASubgradient(f"recentering point {u0} lies outside the domain")
    rng = np.random.default_rng(seed)
    v = np.concatenate([rng.uniform(-10.0, 10.0, 500), np.linspace(-5.0, 5.0, 501)])
    fv = potential_value(spec, v)
    if np.any(fv < f_u0 + sub * (v - u0) - 1e-9):
        raise NotASubgradient(
            f"{sub} is not a subgradient of the potential at {u0}"
        )


def _recenter_one(spec: ConvexSpec, u0: float, sub: float, seed: int) -> ConvexSpec:
    _check_subgradient(spec, u0, sub, seed=seed)
    if spec.kind == "zero":
        return spec
    if spec.kind == "interval" and sub == 0.0:
        return ConvexSpec.interval(spec.a - u0, spec.b - u0)
    if u0 == 0.0 and sub == 0.0:
        return spec

    def shifted(y, base=spec, point=u0, slope=sub):
        return potential_value(base, np.asarray(y, dtype=float) + point) - slope * np.asarray(y, dtype=float)

    return ConvexSpec.custom(shifted, check=True, zero_at_origin=False, seed=seed)


def recenter(
    phi: ConvexSpec, psi: ConvexSpec, data: RecenterData, seed: int = 0
) -> tuple:
    """Shift both potentials so the distinguished point moves to the origin.

    Returns (phi_hat, psi_hat) with
    phi_hat(y) = phi(y + u0) - <phi_subgradient, y>, and likewise for psi.
    The tilt makes 0 a minimizer of the shifted potential (0 belongs to
    its subdifferential at 0); the minimum value need not be 0.
    """
    u0 = float(data.u0)
    if not np.isfinite(u0):
        raise NonFiniteInput("recentering point must be finite")
    phi_hat = _recenter_one(phi, u0, float(data.phi_subgradient), seed)
    psi_hat = _recenter_one(psi, u0, float(data.psi_subgradient), seed)
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
