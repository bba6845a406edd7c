"""Exception types shared across the package."""


class BsvilabError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(BsvilabError):
    """An argument contains NaN or infinity where a finite value is required."""


class ZeroStep(BsvilabError):
    """A time grid contains a zero-length step."""


class DomainError(BsvilabError):
    """A parameter lies outside its admissible range."""


class NonFiniteGenerator(BsvilabError):
    """A driver evaluation returned NaN or infinity."""


class InfinitePotential(BsvilabError):
    """A test process leaves the domain of the potential, so the
    comparison integral is infinite and the inequality is vacuous."""


class GridMismatch(BsvilabError):
    """Arrays passed to a check do not conform to the path bundle's grid."""


class ConfigError(BsvilabError):
    """An experiment configuration failed validation.

    The message names the offending field.
    """
