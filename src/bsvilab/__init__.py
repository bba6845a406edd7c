"""Numerical laboratory for penalized backward stochastic equations.

Solves multivalued backward equations driven by a Brownian motion and a
deterministic clock by Moreau-Yosida penalization plus backward Euler
stepping, and verifies the output against the variational inequalities
that characterize the solution.
"""

from .convex import (
    CompatibilityReport,
    ConvexSpec,
    RecenterData,
    combined_gradient,
    compatibility_check,
    envelope,
    potential_value,
    recenter,
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
    NotASubgradient,
    QuadratureFailure,
    ZeroStep,
)
from .generators import (
    GeneratorSpec,
    MollifierConfig,
    combined_driver,
    compile_expression,
    local_sup_f,
    local_sup_g,
    mollify_driver,
    mollify_driver_g,
    project_to_ball,
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
    moment_factor,
)
from .scenarios import SCENARIOS, Experiment, build_experiment, resolve_config
from .solver import (
    SequenceResult,
    SmoothedProcess,
    SmoothingConfig,
    SolutionField,
    SolverConfig,
    make_backend,
    resolve_implicit,
    smoothing_operator,
    solve_penalized,
    solve_sequence,
)
from .verify import (
    TestProcess,
    VerificationReport,
    battery,
    check_apriori_bound,
    check_contraction,
    check_ito_identity,
    check_variational_inequality,
    default_tolerance,
    penalty_monotonicity,
    reconstruction_process,
    smoothed_midpoint_process,
    zero_process,
)

__version__ = "0.1.0"
