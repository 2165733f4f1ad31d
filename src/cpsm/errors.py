"""Exception classes shared across the package, and the integer check of
the config classes.

The CLI maps these onto distinct exit codes, so code that detects a bad
input should raise ValidationError and code that detects a numerical
breakdown (non-finite objective, zero normalizer) should raise
NumericalError.
"""
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
