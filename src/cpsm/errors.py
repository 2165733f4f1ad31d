"""Exception classes shared across the package, the number rule of configs
and scalar arguments, and the two rules of JSON documents: how a number is
read from one, and the one wrapper that reports its faults as ValidationError.

The CLI maps these onto distinct exit codes, so code that detects a bad
input should raise ValidationError and code that detects a numerical
breakdown (non-finite objective, zero normalizer) should raise
NumericalError.
"""
import contextlib
import math
import numbers


class CpsmError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CpsmError):
    """Malformed input: bad shapes, bad config values, bad file schema."""


class NumericalError(CpsmError):
    """Computation produced non-finite or contradictory values."""


def check_integers(values, **minimums) -> None:
    """Raise ValidationError unless each `values[name]` (`vars` of a config or
    `locals()` of a function) is an integer of at least its minimum. Neither a
    float, even a whole one, nor a bool counts; a NaN would pass every `<` test."""
    for name, minimum in minimums.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def check_reals(values, *names) -> None:
    """Raise ValidationError unless each `values[name]`, as in `check_integers`,
    is a real number that is not a bool, and a float can hold it: an int such
    as 10**400 would pass every `<` test and then overflow. The rest of its
    range is the caller's to check."""
    for name in names:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValidationError(f"{name} must be a real number within the float range") from None


def json_number(name: str, value, kind: type):
    """A JSON number as a finite float or, for `kind` int, a whole one as an
    int (a fraction is not truncated). A string or a boolean is no number,
    though float("5") and int(True) would read them as one. Raises TypeError
    or ValueError, which `document_errors` reports as a ValidationError."""
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


@contextlib.contextmanager
def document_errors(what: str):
    """Report a key missing from the JSON document `what`, or a value of the
    wrong type, form or size, as a ValidationError: the one wrapper of the
    readers of configs, model documents and fit files."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what} missing field: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} malformed: {exc}") from None
