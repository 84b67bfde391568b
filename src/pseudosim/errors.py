"""Exception types, :class:`Gate`, a verdict gate's row, and :func:`require_number`,
the one rule that decides whether an argument is a usable number.  The scale a
tolerance multiplies has one owner too, :func:`pseudosim.linalg.spectral_scale`.
"""
import math
import numbers
from typing import NamedTuple


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class RealnessViolation(ContractViolation):
    """A spectrum that must be real carries significant imaginary parts."""

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical guarantees."""


class ClassificationError(NumericalError):
    """Structural zeros could not be separated from genuine eigenvalues.

    Raised when the smallest-magnitude eigenvalues that a rank argument says
    must be structural zeros are not all below the zero threshold.  This
    signals either a wrong rank or an input whose genuine eigenvalues sit too
    close to zero; the caller decides, the library does not guess.
    """


#: a verdict gate: its category, the value it measured against its bound, and its failure,
#: None while it holds, else its note or the error its public function raises
Gate = NamedTuple("Gate", [("category", str), ("measured", float), ("bound", float),
                           ("failure", str | Exception | None)])


def _held(value, gate: Gate):
    """``value``, once ``gate`` holds; else the error it failed with, raised."""
    if gate.failure is not None:
        raise gate.failure
    return value


def require_number(value, name: str, low=None, *, above: bool = False, integer: bool = False):
    """``value``, once it is a usable number; else :class:`ContractViolation`.

    A bool is never a number: True would read as 1.  With ``integer`` the
    value must be exactly an ``int`` (a float would be truncated, and a numpy
    integer is refused too); otherwise it must be a finite real, numpy
    scalars included, since a NaN or infinite gate would decide every verdict
    the same way.  With ``low`` it must also be ``>= low``, or ``> low`` when
    ``above`` is set.
    """
    if integer:
        usable = type(value) is int
    else:  # a float is the common case, a gate, so it skips the slower isinstance tests
        usable = ((type(value) is float
                   or isinstance(value, numbers.Real) and not isinstance(value, bool))
                  and math.isfinite(value))
    if usable and low is not None:
        usable = value > low if above else value >= low
    if not usable:
        kind = "an int" if integer else "finite" if low is None else "finite and"
        bound = "" if low is None else f" {'>' if above else '>='} {low:g}"
        raise ContractViolation(f"{name} must be {kind}{bound}, got {value!r}")
    return value
