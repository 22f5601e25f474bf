"""Exception hierarchy.

``ConfigError`` maps to CLI exit code 2, ``NumericError`` and its children to
exit code 1.
"""


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value, unreadable config file)."""


class NumericError(RuntimeError):
    """Base class for runtime numerical failures."""


class NotPositiveDefiniteError(NumericError):
    """A matrix required to be (semi)definite has a disallowed eigenvalue."""


class FilterDivergenceError(NumericError):
    """A filter produced a nonfinite state or lost covariance definiteness."""


class WeightCollapseError(NumericError):
    """All importance weights underflowed to zero."""


class GainSolveError(NumericError):
    """Gain-function approximation failed (singular system, bad bandwidth,
    isolated particles, a kernel graph in several parts, a fixed-point solve
    that did not converge)."""


class ConvergenceError(NumericError):
    """An iterative solver exhausted its budget without converging."""
