"""Exception types shared across the package, and the one way to name a failing element.

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


def locate(exc: Exception, index, where: str | None = None) -> Exception:
    """``exc`` with ``index`` set to the position of the failing element of a batch.

    A batched kernel raises with the element's index in its own batch; its
    caller relocates that index into its own grid.  With ``where`` the
    message also starts 'where: ', as in 'tau[i] = t: ' or 'row i (field f): '.
    """
    exc.index = int(index)
    if where is not None:
        exc.args = (f"{where}: {exc}",)
    return exc
