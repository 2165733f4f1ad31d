"""Exception classes shared across the package, the integer check of the
config classes, and the rule that reads a number from a JSON document.

The CLI maps these onto distinct exit codes, so code that detects a bad
input should raise ValidationError and code that detects a numerical
breakdown (non-finite objective, zero normalizer) should raise
NumericalError.
"""
import math
import numbers


class CpsmError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CpsmError):
    """Malformed input: bad shapes, bad config values, bad file schema."""


class NumericalError(CpsmError):
    """Computation produced non-finite or contradictory values."""


def check_integers(config, **minimums) -> None:
    """Raise ValidationError unless each named field of `config` holds an
    integer of at least its minimum. Neither a float, even a whole one, nor a
    bool counts as an integer; a NaN would pass every `<` test."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def json_number(name: str, value, kind: type):
    """A JSON number as a finite float or, for `kind` int, a whole one as an
    int (a fraction is not truncated). A string or a boolean is no number,
    though float("5") and int(True) would read them as one. Raises TypeError
    or ValueError, which each reader reports as a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    if kind is int and isinstance(value, int):
        return value
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    if kind is int:
        if not number.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(number)
    return number
