"""Exception types and the type, finiteness and magnitude rules of the parameter domain.

Each entry point checks the shapes and ranges of its own arguments with these rules.  A
squeezing strength is a finite int or float, not a bool, and an int past the double range is
not finite (:func:`check_strength`); a state holds one, and only the scans take an array of
them (:func:`check_strengths`).  It is checked before the amplitudes by the entry point that
takes it, not by the helpers under it.  An order, a power or a cutoff is a Python or numpy int,
not a bool (:func:`check_integer`); a power k is at most MAX_POWER and a moment order at most
MAX_MOMENT_ORDER.  Phase-space points, scan grids and moment coefficients are arrays of ints or
floats, and Bell settings may hold complex numbers too, never bools or strings
(:func:`check_numbers`).  Coherent amplitudes and displacements are finite triples, shape
(..., 3), of such numbers, complex allowed; a real or imaginary part above 7e307 in size raises
NumericError, since sqrt(6) times it, the largest displacement on a normal mode, must stay
finite (:func:`check_amplitudes`).  A result that is not finite raises NumericError "<what>
overflows double precision at strength <s>" (:func:`refuse_overflow`, :func:`overflow_error`).
Each class carries its CLI exit code and stderr prefix: 2 and "error" for InvalidParameterError
(argparse failures too), 3 and "numeric failure" for NumericError.
"""

import math

import numpy as np

__all__ = ["InvalidParameterError", "NumericError", "TruncationError"]

MAX_POWER = 6  # of <A^dag^k A^k> and P_k, on both photon routes and in the Fock oracle
MAX_MOMENT_ORDER = 16  # a domain bound, not a range limit: 15!! = 2 027 025 is exact in float64


class InvalidParameterError(ValueError):
    """An argument is outside the documented domain of an operation."""

    exit_code, prefix = 2, "error"


class NumericError(RuntimeError):
    """A numeric procedure failed to deliver the requested accuracy."""

    exit_code, prefix = 3, "numeric failure"


class TruncationError(NumericError):
    """A truncated Fock-space computation is untrustworthy at the current
    cutoff (an amplitude too large for it, or too much evolved probability on
    the outermost occupation shell)."""


def _shown(value) -> str:
    # a refused value on one line: a scalar by its repr, an array or a sequence by type and size
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__} of length {len(value)}"
    return f"{value.dtype} of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)


def check_strength(strength) -> float:
    """``strength`` as a float: a Python or numpy int or float, and finite (a bool is refused)."""
    if isinstance(strength, bool) or not isinstance(strength, (int, float, np.integer, np.floating)):
        raise InvalidParameterError(f"squeezing strength must be a real number, got {_shown(strength)}")
    try:
        s = float(strength)
    except OverflowError:  # an int past the double range
        s = math.inf if strength > 0 else -math.inf
    if not math.isfinite(s):
        raise InvalidParameterError(f"squeezing strength must be finite, got {s!r}")
    return s


def check_integer(value, name: str) -> int:
    """``value`` as an int: a Python or numpy int (a bool is refused); ``name`` says what it is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def check_strengths(strengths) -> np.ndarray:
    """``strengths``, one or any (nested) sequence or array of them, as a flat float array; each
    cell by :func:`check_strength`, so no bool or string reads as a float; an empty one is refused."""
    cells = np.asarray(strengths, dtype=object).reshape(-1)
    if not cells.size:
        raise InvalidParameterError("empty strength array")
    return np.array([check_strength(s) for s in cells])


def check_numbers(values, name: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as a float array, or a complex one if ``kinds`` holds "c"; ``name`` says what
    they are.  Their dtype kind must be in ``kinds`` (int "i", unsigned "u", float "f",
    complex "c"), so bools, strings and objects are refused."""
    try:
        values = np.asarray(values)
    except ValueError:  # sequences of unequal lengths
        raise InvalidParameterError(f"{name} must be numbers, got ragged sequences") from None
    if values.dtype.kind not in kinds:
        numbers = "numbers" if "c" in kinds else "real numbers"
        raise InvalidParameterError(f"{name} must be {numbers}, got {values.dtype} values")
    return values.astype(complex if "c" in kinds else float, copy=False)


def check_amplitudes(values, what: str, name: str = "coherent amplitudes") -> np.ndarray:
    """``values`` as a complex array; ``what`` names what a part above 7e307 would overflow."""
    values = check_numbers(values, name, "iufc")
    if values.shape[-1:] != (3,):
        raise InvalidParameterError(f"{name} must have shape (..., 3), got {values.shape}")
    largest = np.abs(np.ascontiguousarray(values).view(float)).max(initial=0.0)
    if not largest <= 7e307:  # nan fails too
        if np.isfinite(values).all():
            raise NumericError(f"{what} overflows double precision: {name} above 7e307")
        raise InvalidParameterError(f"{name} must be finite")
    return values


def overflow_error(what: str, strength) -> NumericError:
    return NumericError(f"{what} overflows double precision at strength {strength:g}")


def refuse_overflow(what: str, strength, compute, *args):
    """``compute(*args)`` if every value of it is finite, else :func:`overflow_error`; numpy does
    not warn inside, and a Python ArithmeticError counts as an infinite result."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = compute(*args)
        except ArithmeticError:
            result = math.inf
    if not np.isfinite(result).all():
        raise overflow_error(what, strength)
    return result
