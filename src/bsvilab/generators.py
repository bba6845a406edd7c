"""Drivers F(t, y, z) and G(t, y), their mixing, and mollification.

The combined driver along the clock is H = alpha F + (1 - alpha) G.
Structural coefficients carried with each driver:

    mu   monotonicity bound of F in y:  <y - y', F(t,y,z) - F(t,y',z)> <= mu |y - y'|^2
    nu   the same for G
    ell  Lipschitz bound of F in z

Mollification smooths F in y by averaging against a normalized bump
kernel on (-1, 1) while clipping z to the ball of radius 1/eps and
cutting off wherever the unsmoothed driver magnitude exceeds 1/eps:

    F_eps(t, y, z) = sum_k w_k F(t, y - eps u_k, beta_eps(z)) 1[eps |F(t, y - eps u_k, 0)| <= 1]

with beta_eps(z) = z / max(1, eps |z|).  Scenario drivers can be given
as expressions over a tiny grammar: +, -, *, min, max, numbers, t, y, z.
"""

import ast
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteGenerator, QuadratureFailure

_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}
_CALLS = {"min": np.minimum, "max": np.maximum}
MOLLIFIER_NODES = 401


def compile_expression(text: str, variables=("t", "y", "z")) -> Callable:
    """Compile a grammar expression into a vectorized callable.

    Allowed: the named variables, numeric literals, +, -, *, unary minus,
    and two-argument min/max.  Anything else is rejected with the
    offending construct named.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("expression: empty or non-string driver expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"expression: cannot parse {text!r}: {exc.msg}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                value = float(node.value)
                return lambda env: value
            raise ConfigError(f"expression: literal {node.value!r} is not a number")
        if isinstance(node, ast.Name):
            if node.id in variables:
                name = node.id
                return lambda env: env[name]
            raise ConfigError(f"expression: unknown variable {node.id!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda env: -inner(env)
            return inner
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ConfigError(
                    f"expression: operator {type(node.op).__name__} is outside the grammar"
                )
            op = _BINOPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _CALLS
                and len(node.args) == 2
                and not node.keywords
            ):
                fn = _CALLS[node.func.id]
                args = [build(a) for a in node.args]
                return lambda env: fn(args[0](env), args[1](env))
            raise ConfigError("expression: only two-argument min/max calls are allowed")
        raise ConfigError(
            f"expression: construct {type(node).__name__} is outside the grammar"
        )

    body = build(tree)

    def fn(*values):
        env = dict(zip(variables, values))
        return body(env)

    return fn


@dataclass(frozen=True)
class GeneratorSpec:
    """Pair of drivers with their structural coefficients.

    F(t, y, z) and G(t, y) are elementwise: their arguments are arrays
    that broadcast together, and entry k of the value depends only on
    entry k of each argument.  So one call evaluates a driver at every
    node of a step, a window or the grid, with t an array of times where
    the nodes' times differ.  The grammar of compile_expression gives
    such drivers.
    """

    F: Callable  # (t, y, z) -> value
    G: Callable  # (t, y) -> value
    mu: float = 0.0
    nu: float = 0.0
    ell: float = 0.0

    @staticmethod
    def from_expressions(
        f_expr: str, g_expr: str, mu: float = 0.0, nu: float = 0.0, ell: float = 0.0
    ) -> "GeneratorSpec":
        f = compile_expression(f_expr, ("t", "y", "z"))
        g = compile_expression(g_expr, ("t", "y"))
        return GeneratorSpec(F=f, G=g, mu=float(mu), nu=float(nu), ell=float(ell))


def _checked(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFiniteGenerator(f"{name} evaluated to a non-finite value")
    return arr


def driver_f(gen: GeneratorSpec, t, y, z) -> np.ndarray:
    return _checked("F", gen.F(t, y, z))


def driver_g(gen: GeneratorSpec, t, y) -> np.ndarray:
    return _checked("G", gen.G(t, y))


def combined_driver(gen: GeneratorSpec, alpha, t, y, z) -> np.ndarray:
    """H = alpha F + (1 - alpha) G, elementwise on alpha, t, y and z.

    The four broadcast together, so one call covers a step (scalar alpha
    and t) or a window of steps (alpha and t per column of y and z).
    Every alpha must lie in [0, 1]; H is checked once: for such alpha a
    non-finite F or G leaves H non-finite (0 * inf is nan).  Returns a
    fresh writable array of the broadcast shape.
    """
    alpha = np.asarray(alpha, dtype=float)
    inside = (0.0 <= alpha) & (alpha <= 1.0)  # False for NaN
    if not inside.all():
        raise DomainError(f"alpha must lie in [0, 1], got {alpha[~inside]}")
    f = np.asarray(gen.F(t, y, z), dtype=float)
    g = np.asarray(gen.G(t, y), dtype=float)
    return _checked("H", _mix(alpha, f, g, np.empty(np.broadcast(alpha, t, y, z).shape)))


@np.errstate(invalid="ignore")
def _mix(alpha, f, g, out):
    # a 0 * inf here is nan, which the caller reports without a numpy warning
    return np.add(alpha * f, (1.0 - alpha) * g, out=out)


def project_to_ball(eps: float, z) -> np.ndarray:
    """Radial clip z / max(1, eps |z|), mapping into the ball |.| <= 1/eps."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    z = np.asarray(z, dtype=float)
    return z / np.maximum(1.0, eps * np.abs(z))


@dataclass(frozen=True)
class MollifierConfig:
    """Composite-midpoint discretization of the bump kernel on (-1, 1).

    The grid has MOLLIFIER_NODES midpoints.  The kernel is
    rho(u) = c exp(-1/(1 - u^2)) with c chosen so the midpoint weights
    sum to one on this very grid, which keeps constant drivers exact.  kappa is the resulting max |rho'| over the nodes.
    """

    eps: float
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise DomainError(f"mollifier eps must lie in (0, 1], got {self.eps}")
        h = 2.0 / MOLLIFIER_NODES
        u = -1.0 + (np.arange(MOLLIFIER_NODES) + 0.5) * h
        raw = np.exp(-1.0 / (1.0 - u * u))
        c = 1.0 / float(np.sum(raw) * h)
        w = raw * h * c
        total = float(np.sum(w))
        if abs(total - 1.0) > 1e-8:
            raise QuadratureFailure(f"kernel weights sum to {total}, expected 1")
        rho_prime = c * raw * (-2.0 * u) / (1.0 - u * u) ** 2
        object.__setattr__(self, "nodes", u)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "kappa", float(np.max(np.abs(rho_prime))))


def _mollify(name, cfg: MollifierConfig, yy, values, cut) -> np.ndarray:
    """sum_k w_k values_k 1[eps |cut_k| <= 1] over the shifted nodes yy, checked once."""
    values, cut = (np.broadcast_to(np.asarray(v, dtype=float), yy.shape) for v in (values, cut))
    keep = (cfg.eps * np.abs(cut) <= 1.0).astype(float)
    return _checked(name, np.sum(cfg.weights * values * keep, axis=-1))


def mollify_driver(gen: GeneratorSpec, cfg: MollifierConfig, t, y, z) -> np.ndarray:
    """Smoothed driver F_eps, vectorized over y (and z alongside it)."""
    yy = np.asarray(y, dtype=float)[..., None] - cfg.eps * cfg.nodes
    zz = project_to_ball(cfg.eps, z)[..., None]
    return _mollify("F_eps", cfg, yy, gen.F(t, yy, zz), gen.F(t, yy, np.zeros_like(zz)))


def mollify_driver_g(gen: GeneratorSpec, cfg: MollifierConfig, t, y) -> np.ndarray:
    """Same smoothing applied to G, which has no z argument."""
    yy = np.asarray(y, dtype=float)[..., None] - cfg.eps * cfg.nodes
    g = gen.G(t, yy)
    return _mollify("G_eps", cfg, yy, g, g)


def validate_generator(gen: GeneratorSpec) -> None:
    """Sampled check of the declared structural coefficients on 500 fixed draws.

    A NaN or infinite coefficient would make every sampled comparison
    vacuous, so each must be finite first.
    """
    for name in ("mu", "nu", "ell"):
        value = getattr(gen, name)
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, 500)
    y1, y2, z1, z2 = rng.uniform(-5.0, 5.0, (4, 500))
    dy = y1 - y2
    mono_f = dy * (driver_f(gen, t, y1, z1) - driver_f(gen, t, y2, z1))
    if np.any(mono_f > gen.mu * dy * dy + 1e-9):
        raise DomainError("F violates its declared monotonicity bound mu on samples")
    mono_g = dy * (driver_g(gen, t, y1) - driver_g(gen, t, y2))
    if np.any(mono_g > gen.nu * dy * dy + 1e-9):
        raise DomainError("G violates its declared monotonicity bound nu on samples")
    lip = np.abs(driver_f(gen, t, y1, z1) - driver_f(gen, t, y1, z2))
    if np.any(lip > gen.ell * np.abs(z1 - z2) + 1e-9):
        raise DomainError("F violates its declared z-Lipschitz bound ell on samples")
