"""Posterior transfer between domains that share the feature law given class
and conditioning block.

When only the class-given-conditioning distribution shifts, the target
posterior is the source posterior reweighted per class by the ratio of the
two conditional models and renormalized per row. The per-row sum of the
reweighted probabilities is also the computable, parameter-dependent part of
the target marginal log-likelihood, which the EM driver tracks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

RATIO_MIN = 1e-12
RATIO_MAX = 1e12


def check_posterior(probs, name: str = "posterior", n_rows: int | None = None) -> np.ndarray:
    """Validate an (n, K) row-stochastic probability matrix, with n equal to
    `n_rows` when given."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValidationError(f"{name} must be an (n, K>=2) matrix")
    if n_rows is not None and p.shape[0] != n_rows:
        raise ValidationError(f"{name}: {p.shape[0]} rows, expected {n_rows}")
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise ValidationError(
            f"{name} row {bad[0]} sums to {sums[bad[0]]!r}, must be 1 within 1e-9"
        )
    return p


@dataclass(frozen=True)
class ConditionalRatios:
    """Per-row class-probability ratios: target conditional over source conditional."""

    numerator: np.ndarray    # q(y=k | z), one row per sample
    denominator: np.ndarray  # p(y=k | z), same shape

    def __post_init__(self):
        num = np.asarray(self.numerator, dtype=float)
        den = np.asarray(self.denominator, dtype=float)
        if num.ndim != 2 or num.shape != den.shape:
            raise ValidationError(
                f"ratio matrices must share one (n, K) shape, got {num.shape} and {den.shape}"
            )
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise ValidationError("ratio matrices must be finite")
        if np.any(num < 0) or np.any(den < 0):
            raise ValidationError("ratio matrices must be nonnegative")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def values(self) -> np.ndarray:
        """Elementwise ratio, clamped into [RATIO_MIN, RATIO_MAX]."""
        num = np.maximum(self.numerator, RATIO_MIN)
        den = np.maximum(self.denominator, RATIO_MIN)
        return np.clip(num / den, RATIO_MIN, RATIO_MAX)


class AdjustResult(NamedTuple):
    posterior: np.ndarray       # adjusted row-stochastic (n, K)
    row_normalizer: np.ndarray  # per-row sum of posterior * ratio before renormalizing


def adjust_posterior(source_posterior, ratios: ConditionalRatios) -> AdjustResult:
    """Reweight source posteriors by conditional ratios and renormalize rows.

    The returned `row_normalizer` is the reciprocal of the density ratio
    between source and target feature laws at each row; it is exposed for
    diagnostics and for the marginal log-likelihood surrogate.
    """
    p = check_posterior(source_posterior, "source_posterior")
    r = ratios.values()
    if r.shape != p.shape:
        raise ValidationError(
            f"ratio shape {r.shape} does not match posterior shape {p.shape}"
        )
    weighted = p * r
    norm = weighted.sum(axis=1)
    if np.any(norm <= 0.0) or not np.all(np.isfinite(norm)):
        bad = int(np.flatnonzero(~(norm > 0.0) | ~np.isfinite(norm))[0])
        raise NumericalError(
            f"zero or non-finite normalizer at row {bad}: contradictory posterior/ratio inputs"
        )
    return AdjustResult(posterior=weighted / norm[:, None], row_normalizer=norm)


def surrogate_observed_loglik(source_posterior, ratios: ConditionalRatios) -> float:
    """Sum over rows of the log row-normalizer.

    This is the part of the observed-data (marginal) log-likelihood of the
    target sample that depends on the shifted conditional model, so EM must
    not decrease it.
    """
    result = adjust_posterior(source_posterior, ratios)
    return float(np.log(result.row_normalizer).sum())
