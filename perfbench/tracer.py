"""Layer spans recorded from outside the program.

`install(tracer)` replaces public bsvilab functions at the names their
callers look them up by (for example `bsvilab.cli.solve_sequence`, or
`bsvilab.verify.combined_driver` for the verifier's driver calls) with
wrappers that record a span per call.  Nothing in bsvilab changes; the
wrappers live only in the traced worker process.

Spans nest by call order.  A span's self time is its duration minus the
time covered by the spans it directly encloses, so the self times of all
spans under a root add up to the root's duration exactly.
"""

import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self._stack = []  # [name, start, time covered by child spans]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)

    def span(self, name, fn, count_as=None, measure=None):
        """Wrap fn so each call is a span called name.

        count_as also bumps a named counter per call; measure(tracer,
        result) adds counters computed from the returned value.
        """
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [name, _now(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = _now() - frame[1]
                self.self_s[name] += dur - frame[2]
                self.total_s[name] += dur
                self.calls[name] += 1
                self.durations[name].append(dur)
                if stack:
                    stack[-1][2] += dur
            if count_as is not None:
                self.counts[count_as] += 1
            if measure is not None:
                measure(self, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def counter(self, name, fn):
        """Wrap fn so each call bumps counter name; no span."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped


def _field_bytes(tracer, fields):
    tracer.counts["solver.field_paths_bytes"] += sum(a.nbytes for a in fields.values())


# (module, attribute, span name, counter bumped per call).  Each entry is
# the name a caller resolves at call time, so the wrapper sees exactly
# the calls made through that site.  The first three are the phases of
# `run`, which untraced samples time too.
SPANS = (
    ("bsvilab.cli", "build_experiment", "scenarios.build_experiment", None),
    ("bsvilab.cli", "execute", "cli.execute", None),
    ("bsvilab.cli", "write_artifacts", "cli.write_artifacts", None),
    ("bsvilab.cli", "build_paths", "paths.build", None),
    ("bsvilab.cli", "accumulate_weights", "paths.build", None),
    ("bsvilab.cli", "solve_sequence", "solver.solve_sequence", None),
    ("bsvilab.cli", "make_backend", "solver.make_backend", None),
    ("bsvilab.solver", "make_backend", "solver.make_backend", None),
    ("bsvilab.solver", "solve_penalized", "solver.solve_penalized", None),
    ("bsvilab.solver", "resolve_implicit", "solver.resolve_implicit", None),
    ("bsvilab.solver", "combined_driver", "generators.driver", "generators.driver_calls.solve"),
    ("bsvilab.verify", "combined_driver", "generators.driver", "generators.driver_calls.verify"),
    ("bsvilab.convex", "combined_gradient", "convex.combined_gradient", None),
    ("bsvilab.solver.TreeBackend", "ce", "solver.backend", None),
    ("bsvilab.solver.TreeBackend", "z", "solver.backend", None),
    ("bsvilab.solver.RegressionBackend", "ce", "solver.backend", None),
    ("bsvilab.solver.RegressionBackend", "z", "solver.backend", None),
    ("bsvilab.verify", "smoothing_operator", "solver.smoothing", None),
    ("bsvilab.verify", "battery", "verify.battery", None),
    ("bsvilab.verify", "check_variational_inequality", "verify.variational", None),
    ("bsvilab.verify", "ito_report_from_solution", "verify.ito", None),
    ("bsvilab.verify", "check_contraction", "verify.contraction", None),
    ("bsvilab.verify", "check_apriori_bound", "verify.bounds", None),
    ("bsvilab.verify", "check_energy_bound", "verify.bounds", None),
    ("bsvilab.solver.SolutionField", "paths", "solver.field_paths", None),
)

# counters computed from a span's returned value
MEASURES = {"solver.field_paths": _field_bytes}

COUNTERS = (
    ("bsvilab.rng", "keyed_stream", "rng.streams"),
    ("numpy.linalg", "lstsq", "solver.lstsq.calls"),
)


def _resolve(path):
    """The module, or module-level class, named by a dotted path; None if absent."""
    import importlib

    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name, None)


def _replace(owner_path, attr, wrap, missing):
    owner = _resolve(owner_path)
    fn = getattr(owner, attr, None)
    if fn is None:
        missing.append(f"{owner_path}.{attr}")
    else:
        setattr(owner, attr, wrap(fn))


def install(tracer):
    """Wrap every listed call site that exists; return the ones missing.

    A site that a later version of bsvilab renames or removes would
    leave its metrics at 0, so the runner counts a traced sample with
    missing sites as failed.
    """
    missing = []
    for owner, attr, name, count_as in SPANS:
        _replace(
            owner, attr,
            lambda fn: tracer.span(name, fn, count_as, MEASURES.get(name)),
            missing,
        )
    for owner, attr, name in COUNTERS:
        _replace(owner, attr, lambda fn: tracer.counter(name, fn), missing)
    return missing
