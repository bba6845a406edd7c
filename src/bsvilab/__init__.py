"""Numerical laboratory for penalized backward stochastic equations.

Solves multivalued backward equations driven by a Brownian motion and a
deterministic clock by Moreau-Yosida penalization plus backward Euler
stepping, and verifies the output against the variational inequalities
that characterize the solution.
"""

from .convex import (
    ConvexSpec,
    combined_gradient,
    envelope,
    potential_value,
    resolvent,
    yosida_gradient,
)
from .errors import (
    BsvilabError,
    ConfigError,
    DomainError,
    GridMismatch,
    InfinitePotential,
    NonFiniteGenerator,
    NonFiniteInput,
    ZeroStep,
)
from .generators import (
    GeneratorSpec,
    combined_driver,
    compile_expression,
    validate_generator,
)
from .paths import (
    IncreasingProcessSpec,
    NoiseModel,
    PathBundle,
    TimeGrid,
    accumulate_weights,
    build_paths,
    gamma_shift,
)
from .scenarios import SCENARIOS, Experiment, build_experiment, resolve_config
from .smoothing import SmoothedProcess, smoothing_operator
from .solver import (
    SequenceResult,
    SolutionField,
    SolverConfig,
    make_backend,
    resolve_implicit,
    solve_penalized,
    solve_sequence,
)
from .verify import (
    TestProcess,
    VerificationReport,
    battery,
    check_apriori_bound,
    check_contraction,
    check_variational_inequality,
    default_tolerance,
    reconstruction_process,
    smoothed_midpoint_process,
    zero_process,
)

__version__ = "0.1.0"
