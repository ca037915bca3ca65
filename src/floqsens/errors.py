"""Exception types shared across the package, the one way to name a failing element,
and the base of the records that check their fields.

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


class _Validated:
    """Base of a ``typing.NamedTuple`` subclass whose ``__new__`` checks its fields.

    A named tuple's ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``, and so does unpickling at protocol 0 or 1.  Here
    both go through the constructor, so every way of making a record runs
    its checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)
