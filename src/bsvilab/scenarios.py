"""Named experiment presets and config-dict parsing.

A full experiment configuration is a JSON-style dict with keys
scenario, potentials, generator, noise, grid, a_process, solver, verify,
seed, out_dir.  A scenario name pre-fills every block from the registry;
explicit blocks override field by field.  Everything here validates
loudly with the offending field named.
"""

import copy
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convex import ConvexSpec
from .errors import ConfigError
from .generators import GeneratorSpec, compile_expression, validate_generator
from .paths import IncreasingProcessSpec, NoiseModel, TimeGrid
from .solver import SolverConfig

_INF = float("inf")


def _get(d: dict, key: str, kind, where: str, default=None, required=False):
    if key not in d or d[key] is None:
        if required:
            raise ConfigError(f"{where}.{key}: missing required field")
        return default
    val = d[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return int(val)
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{where}.{key}: expected {kind}, got {type(val).__name__}")
    return val


def _known(d: dict, keys, where: str) -> dict:
    """d itself, once every key is one the block's kinds read.

    A user block is merged field by field over the preset's, so the
    keys allowed are the union over the block's kinds.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return d


def potential_from_config(d: dict, where: str) -> ConvexSpec:
    _known(d, ("kind", "a", "b", "c"), where)
    kind = _get(d, "kind", str, where, required=True)
    if kind == "zero":
        return ConvexSpec.zero()
    if kind == "interval":
        a = _get(d, "a", float, where, default=-_INF)
        b = _get(d, "b", float, where, default=_INF)
        if not (a <= 0.0 <= b):
            raise ConfigError(f"{where}: interval must contain 0, got [{a}, {b}]")
        try:
            return ConvexSpec.interval(a, b)
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "quadratic":
        c = _get(d, "c", float, where, required=True)
        try:
            return ConvexSpec.quadratic(c)
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "abs":
        return ConvexSpec.abs_value()
    raise ConfigError(f"{where}.kind: unknown potential kind {kind!r}")


def generator_from_config(d: dict, where: str = "generator") -> GeneratorSpec:
    _known(d, ("F", "G", "mu", "nu", "ell"), where)
    f_expr = _get(d, "F", str, where, default="0")
    g_expr = _get(d, "G", str, where, default="0")
    try:
        gen = GeneratorSpec.from_expressions(
            f_expr,
            g_expr,
            mu=_get(d, "mu", float, where, default=0.0),
            nu=_get(d, "nu", float, where, default=0.0),
            ell=_get(d, "ell", float, where, default=0.0),
        )
        # mu, nu and ell set the weights behind the contraction check and both bounds
        validate_generator(gen)
        return gen
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def grid_from_config(d: dict, where: str = "grid") -> TimeGrid:
    _known(d, ("T", "steps", "nodes"), where)
    if "nodes" in d:
        return TimeGrid(np.asarray(d["nodes"], dtype=float))
    horizon = _get(d, "T", float, where, required=True)
    steps = _get(d, "steps", int, where, required=True)
    return TimeGrid.uniform(horizon, steps)


def noise_from_config(d: dict, seed: int, where: str = "noise") -> NoiseModel:
    _known(d, ("kind", "eval_paths", "paths"), where)
    kind = _get(d, "kind", str, where, required=True)
    if kind == "tree":
        return NoiseModel.binomial_tree(
            seed=seed, eval_paths=_get(d, "eval_paths", int, where)
        )
    if kind == "mc":
        return NoiseModel.gaussian_mc(_get(d, "paths", int, where, required=True), seed=seed)
    if kind == "deterministic":
        return NoiseModel.deterministic()
    raise ConfigError(f"{where}.kind: unknown noise kind {kind!r}")


def a_process_from_config(d: dict, where: str = "a_process") -> IncreasingProcessSpec:
    _known(d, ("kind", "rate", "start"), where)
    kind = _get(d, "kind", str, where, default="zero")
    if kind == "zero":
        return IncreasingProcessSpec.zero()
    if kind == "linear":
        return IncreasingProcessSpec.linear(_get(d, "rate", float, where, required=True))
    if kind == "ramp":
        return IncreasingProcessSpec.ramp(
            _get(d, "start", float, where, required=True),
            _get(d, "rate", float, where, required=True),
        )
    raise ConfigError(f"{where}.kind: unknown increasing-process kind {kind!r}")


def terminal_from_config(d: dict, where: str = "scenario.terminal") -> Callable:
    _known(d, ("kind", "value", "lo", "hi", "expr"), where)
    kind = _get(d, "kind", str, where, required=True)
    if kind == "constant":
        value = _get(d, "value", float, where, required=True)

        def terminal(b, a):
            return np.full_like(np.asarray(b, dtype=float), value)

        return terminal
    if kind == "brownian":
        return lambda b, a: np.asarray(b, dtype=float).copy()
    if kind == "clamp":
        lo = _get(d, "lo", float, where, required=True)
        hi = _get(d, "hi", float, where, required=True)
        if lo >= hi:
            raise ConfigError(f"{where}: clamp needs lo < hi")
        return lambda b, a: np.clip(np.asarray(b, dtype=float), lo, hi)
    if kind == "expr":
        fn = compile_expression(_get(d, "expr", str, where, required=True), ("b", "a"))

        def terminal(b, a):
            b = np.asarray(b, dtype=float)
            return np.broadcast_to(np.asarray(fn(b, a), dtype=float), b.shape).copy()

        return terminal
    raise ConfigError(f"{where}.kind: unknown terminal kind {kind!r}")


SOLVER_KEYS = ("p", "lambda", "eps_schedule", "ce", "degree", "mollify")


def solver_from_config(d: dict, where: str = "solver") -> SolverConfig:
    _known(d, SOLVER_KEYS, where)
    return SolverConfig(
        p=_get(d, "p", float, where, default=2.0),
        lam=_get(d, "lambda", float, where, default=0.5),
        eps_schedule=tuple(_get(d, "eps_schedule", list, where, default=[0.1])),
        ce=_get(d, "ce", str, where, default="tree"),
        degree=_get(d, "degree", int, where, default=3),
        mollify=_get(d, "mollify", bool, where, default=False),
    )


SCENARIOS = {
    "martingale": {
        "scenario": {"name": "martingale", "terminal": {"kind": "brownian"}},
        "potentials": {"phi": {"kind": "zero"}, "psi": {"kind": "zero"}},
        "generator": {"F": "0", "G": "0", "mu": 0.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "tree"},
        "grid": {"T": 1.0, "steps": 64},
        "a_process": {"kind": "zero"},
        "solver": {"p": 2.0, "lambda": 0.5, "eps_schedule": [0.1], "ce": "tree"},
        "verify": {},
        "seed": 1,
    },
    "mc_martingale": {
        "scenario": {"name": "mc_martingale", "terminal": {"kind": "brownian"}},
        "potentials": {"phi": {"kind": "zero"}, "psi": {"kind": "zero"}},
        "generator": {"F": "0", "G": "0", "mu": 0.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "mc", "paths": 4000},
        "grid": {"T": 1.0, "steps": 64},
        "a_process": {"kind": "zero"},
        "solver": {"p": 2.0, "lambda": 0.5, "eps_schedule": [0.1], "ce": "lsq", "degree": 3},
        "verify": {},
        "seed": 1,
    },
    "linear": {
        "scenario": {"name": "linear", "terminal": {"kind": "constant", "value": 1.0}},
        "potentials": {"phi": {"kind": "zero"}, "psi": {"kind": "zero"}},
        "generator": {"F": "-y", "G": "0", "mu": -1.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "deterministic"},
        "grid": {"T": 1.0, "steps": 100},
        "a_process": {"kind": "zero"},
        "solver": {"p": 2.0, "lambda": 0.5, "eps_schedule": [0.1], "ce": "tree"},
        "verify": {},
        "seed": 1,
    },
    "reflection": {
        "scenario": {"name": "reflection", "terminal": {"kind": "constant", "value": -0.5}},
        "potentials": {"phi": {"kind": "interval", "b": 0.0}, "psi": {"kind": "zero"}},
        "generator": {"F": "1", "G": "0", "mu": 0.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "deterministic"},
        "grid": {"T": 1.0, "steps": 1000},
        "a_process": {"kind": "zero"},
        "solver": {
            "p": 2.0,
            "lambda": 0.5,
            "eps_schedule": [0.1, 0.05, 0.025],
            "ce": "tree",
        },
        "verify": {},
        "seed": 1,
    },
    "two_barrier": {
        "scenario": {
            "name": "two_barrier",
            "terminal": {"kind": "clamp", "lo": -1.0, "hi": 1.0},
        },
        "potentials": {"phi": {"kind": "interval", "a": -1.0, "b": 1.0}, "psi": {"kind": "zero"}},
        "generator": {"F": "0", "G": "0", "mu": 0.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "tree"},
        "grid": {"T": 1.0, "steps": 64},
        "a_process": {"kind": "zero"},
        "solver": {
            "p": 2.0,
            "lambda": 0.5,
            "eps_schedule": [0.1, 0.05, 0.025, 0.0125],
            "ce": "tree",
        },
        "verify": {},
        "seed": 1,
    },
    "two_barrier_driven": {
        "scenario": {
            "name": "two_barrier_driven",
            "terminal": {"kind": "clamp", "lo": -1.0, "hi": 1.0},
        },
        "potentials": {"phi": {"kind": "interval", "a": -1.0, "b": 1.0}, "psi": {"kind": "zero"}},
        "generator": {"F": "2", "G": "0", "mu": 0.0, "nu": 0.0, "ell": 0.0},
        "noise": {"kind": "tree"},
        "grid": {"T": 1.0, "steps": 64},
        "a_process": {"kind": "zero"},
        "solver": {
            "p": 2.0,
            "lambda": 0.5,
            "eps_schedule": [0.1, 0.05, 0.025, 0.0125],
            "ce": "tree",
        },
        "verify": {},
        "seed": 1,
    },
    "clocked_decay": {
        "scenario": {"name": "clocked_decay", "terminal": {"kind": "constant", "value": 1.0}},
        "potentials": {"phi": {"kind": "zero"}, "psi": {"kind": "zero"}},
        "generator": {"F": "0", "G": "-y", "mu": 0.0, "nu": -1.0, "ell": 0.0},
        "noise": {"kind": "deterministic"},
        "grid": {"T": 1.0, "steps": 100},
        "a_process": {"kind": "linear", "rate": 1.0},
        "solver": {"p": 2.0, "lambda": 0.5, "eps_schedule": [0.1], "ce": "tree"},
        "verify": {},
        "seed": 1,
    },
}

_TOP_KEYS = {
    "scenario", "potentials", "generator", "noise", "grid",
    "a_process", "solver", "verify", "seed", "out_dir",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class Experiment:
    name: str
    grid: TimeGrid
    noise: NoiseModel
    a_spec: IncreasingProcessSpec
    phi: ConvexSpec
    psi: ConvexSpec
    gen: GeneratorSpec
    terminal: Callable
    solver: SolverConfig
    verify: dict
    seed: int
    out_dir: Optional[str]
    echo: dict


def resolve_config(config: dict) -> dict:
    """Merge a user config over its scenario preset and validate keys."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object at top level")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")
    scen_block = config.get("scenario", {})
    if isinstance(scen_block, str):
        scen_block = {"name": scen_block}
    name = scen_block.get("name")
    if name is not None:
        if name not in SCENARIOS:
            raise ConfigError(
                f"scenario.name: unknown scenario {name!r}, "
                f"known: {sorted(SCENARIOS)}"
            )
        merged = _deep_merge(SCENARIOS[name], {**config, "scenario": scen_block})
    else:
        merged = copy.deepcopy(config)
        merged["scenario"] = scen_block
    if "terminal" not in merged.get("scenario", {}):
        raise ConfigError("scenario.terminal: missing terminal condition")
    return merged


def build_experiment(config: dict) -> Experiment:
    merged = resolve_config(config)
    seed = _get(merged, "seed", int, "config", default=1)
    if seed == 0:
        # reserved value: derive from the wall clock, then record
        seed = int(time.time_ns() & ((1 << 62) - 1)) or 1
    merged["seed"] = seed
    _known(merged["scenario"], ("name", "terminal"), "scenario")
    pots = _known(merged.get("potentials", {}), ("phi", "psi"), "potentials")
    phi = potential_from_config(pots.get("phi", {"kind": "zero"}), "potentials.phi")
    psi = potential_from_config(pots.get("psi", {"kind": "zero"}), "potentials.psi")
    grid = grid_from_config(merged.get("grid", {}), "grid")
    noise = noise_from_config(merged.get("noise", {}), seed, "noise")
    a_spec = a_process_from_config(merged.get("a_process", {}), "a_process")
    gen = generator_from_config(merged.get("generator", {}), "generator")
    terminal = terminal_from_config(merged["scenario"]["terminal"])
    solver = solver_from_config(merged.get("solver", {}), "solver")
    return Experiment(
        name=merged["scenario"].get("name", "custom"),
        grid=grid,
        noise=noise,
        a_spec=a_spec,
        phi=phi,
        psi=psi,
        gen=gen,
        terminal=terminal,
        solver=solver,
        verify=_known(
            merged.get("verify", {}) or {},
            ("c_dt", "c_mc", "deltas", "smooth_eps", "ito_delta"), "verify",
        ),
        seed=seed,
        out_dir=merged.get("out_dir"),
        echo=merged,
    )


def reference_error(name: str, sol, bundle) -> Optional[float]:
    """Scenario-specific error against a closed-form benchmark, if any."""
    if name in ("martingale", "mc_martingale"):
        return abs(sol.y0)
    if name in ("linear", "clocked_decay"):
        return abs(sol.y0 - float(np.exp(-1.0)))
    if name == "reflection":
        t = bundle.grid.nodes
        oracle = np.minimum(0.0, -0.5 + (t[-1] - t))
        worst = 0.0
        for i, level in enumerate(sol.Y_levels):
            worst = max(worst, float(np.max(np.abs(level - oracle[i]))))
        return worst
    return None
