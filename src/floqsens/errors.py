"""Exception types shared across the package.

The CLI maps these onto exit codes: config/validation problems exit 2,
numerical-consistency failures exit 3 and capacity overruns exit 4.
"""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConfigError(ValidationError):
    """A scan configuration failed to parse or validate."""


class CapacityError(ValidationError):
    """The requested problem size exceeds the configured maximum."""


class NumericalConsistencyError(RuntimeError):
    """An internal numerical identity failed beyond tolerance."""


class SymmetryViolationError(NumericalConsistencyError):
    """The eigenphase symmetry between conditional propagators failed."""

