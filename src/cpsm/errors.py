"""Exception classes shared across the package, and one copy of each rule
that checks a setting: `check_integers` an integer's minimum, `check_reals` a
real number's range (`PROBABILITY`, `POSITIVE`, `NONNEGATIVE` or `FINITE`),
`check_choice` a name among a fixed few, `check_files` that no two files of a
command are one, `check_directories` that an output's directory exists, and
for a JSON document, how `json_number` reads a number and the one wrapper
`document_errors` that reports its faults as ValidationError.

The CLI maps these onto distinct exit codes, so code that detects a bad
input should raise ValidationError and code that detects a numerical
breakdown (non-finite objective, zero normalizer) should raise
NumericalError.
"""
import contextlib
import math
import numbers
import os


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


# The ranges of `check_reals`: a test of the value, and what it must do.
PROBABILITY = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
POSITIVE = (lambda v: 0.0 < v < math.inf, "be positive and finite")
NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "be nonnegative and finite")
FINITE = (math.isfinite, "be finite")


def check_reals(values, **ranges) -> None:
    """Raise ValidationError unless each `values[name]`, as in `check_integers`,
    is a real number that is not a bool, and a float can hold it: an int such
    as 10**400 would pass every `<` test and then overflow. Each must also lie
    in its range; a NaN lies in none."""
    for name in ranges:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValidationError(f"{name} must be a real number within the float range") from None
    for name, (test, wording) in ranges.items():
        if not test(values[name]):
            raise ValidationError(f"{name} must {wording}, got {values[name]}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Raise ValidationError unless `value` is one of `choices`."""
    if value not in choices:
        raise ValidationError(f"unknown {name} {value!r}, expected one of {choices}")


def check_files(**paths) -> None:
    """Raise ValidationError if two of a command's files (None or empty: not
    given) are one, which an output written as given would replace. The real
    paths are compared, so a `..` or a symbolic link is seen through."""
    seen = {}
    for name, path in paths.items():
        other = seen.setdefault(os.path.realpath(path), name) if path else name
        if other != name:
            raise ValidationError(f"{other} {paths[other]!r} and {name} {path!r} name the same file")


def check_directories(*paths) -> None:
    """Raise FileNotFoundError, an I/O error, if the directory of an output
    path (None or empty: not given) does not exist: checked before a command
    does any work, so that a missing directory does not end it at its first
    write."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(f"{path}: no such directory")


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
