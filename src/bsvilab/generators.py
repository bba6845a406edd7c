"""Drivers F(t, y, z) and G(t, y) and their mixing.

The combined driver along the clock is H = alpha F + (1 - alpha) G.
Structural coefficients carried with each driver:

    mu   monotonicity bound of F in y:  <y - y', F(t,y,z) - F(t,y',z)> <= mu |y - y'|^2
    nu   the same for G
    ell  Lipschitz bound of F in z

Scenario drivers can be given as expressions over a tiny grammar: +, -,
*, min, max, numbers, t, y, z.
"""

import ast
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteGenerator

_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}
_CALLS = {"min": np.minimum, "max": np.maximum}
# the variables of a driver's state; a driver reading neither is known from (t, alpha)
_STATE = frozenset({"y", "z"})


def compile_expression(text: str, variables=("t", "y", "z")) -> Callable:
    """Compile a grammar expression into a vectorized callable.

    Allowed: the named variables, numeric literals, +, -, *, unary minus,
    and two-argument min/max.  Anything else is rejected with the
    offending construct named.  The callable's attribute reads is the
    frozenset of the variables whose names occur in the expression, so
    "2 - t" reads t alone and "0" reads nothing.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("expression: empty or non-string driver expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"expression: cannot parse {text!r}: {exc.msg}") from exc

    reads = set()

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
                reads.add(name)
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

    fn.reads = frozenset(reads)
    return fn


@dataclass(frozen=True)
class GeneratorSpec:
    """Pair of drivers with their structural coefficients.

    F(t, y, z) and G(t, y) are elementwise: their arguments are arrays
    that broadcast together, and entry k of the value depends only on
    entry k of each argument.  So one call evaluates a driver at every
    node of a step, a window or the grid, with t an array of times where
    the nodes' times differ.  The grammar of compile_expression gives
    such drivers, and records on each the variables it reads.
    """

    F: Callable  # (t, y, z) -> value
    G: Callable  # (t, y) -> value
    mu: float = 0.0
    nu: float = 0.0
    ell: float = 0.0

    def __post_init__(self):
        # a NaN or infinite coefficient would make every sampled comparison
        # of validate_generator vacuous, and the weights NaN
        for name in ("mu", "nu", "ell"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @staticmethod
    def from_expressions(
        f_expr: str, g_expr: str, mu: float = 0.0, nu: float = 0.0, ell: float = 0.0
    ) -> "GeneratorSpec":
        f = compile_expression(f_expr, ("t", "y", "z"))
        g = compile_expression(g_expr, ("t", "y"))
        return GeneratorSpec(F=f, G=g, mu=float(mu), nu=float(nu), ell=float(ell))

    @property
    def reads_state(self) -> bool:
        """Whether H = alpha F + (1 - alpha) G may read y or z.

        Read from the variables compile_expression records on F and G; a
        callable without that record, such as a plain lambda, counts as
        reading both.  Where this is False, H is a function of (t, alpha)
        alone.
        """
        return any(getattr(fn, "reads", _STATE) & _STATE for fn in (self.F, self.G))


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
    Precondition: every alpha lies in [0, 1], as build_paths ensures for
    the clock's alpha = dt / dQ.  H is checked once: for such alpha a
    non-finite F or G leaves H non-finite (0 * inf is nan).  Returns a
    fresh writable array of the broadcast shape.
    """
    alpha = np.asarray(alpha, dtype=float)
    f = np.asarray(gen.F(t, y, z), dtype=float)
    g = np.asarray(gen.G(t, y), dtype=float)
    return _checked("H", _mix(alpha, f, g, np.empty(np.broadcast(alpha, t, y, z).shape)))


@np.errstate(invalid="ignore")
def _mix(alpha, f, g, out):
    # a 0 * inf here is nan, which the caller reports without a numpy warning
    return np.add(alpha * f, (1.0 - alpha) * g, out=out)


def validate_generator(gen: GeneratorSpec) -> None:
    """Sampled check of the declared structural coefficients on 500 fixed
    draws; GeneratorSpec has checked that each is finite."""
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
