"""Exception types shared across the package.

CLI exit-code mapping: failed checks -> 1, ConfigError -> 2,
InstabilityError -> 3, any other NumericsError -> 4.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad grid, parameters, scenario file or window."""


class MassMismatchError(ConfigError):
    """An operation requiring zero (or matched) integral received data that violates it."""


class NumericsError(RuntimeError):
    """A numerical guarantee was violated (non-finite values, failed quadrature, ...)."""


class InstabilityError(NumericsError):
    """Time integration blew up or the grid can no longer resolve the solution."""


class HypothesisViolationError(ValueError):
    """A rate report was requested for parameters where the claimed rates degenerate
    (zero mass, or a vanishing amplitude constant for the active branch)."""
