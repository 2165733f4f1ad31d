"""Posterior transfer between domains that share the feature law given class
and conditioning block.

When only the class-given-conditioning distribution shifts, the target
posterior is the source posterior reweighted per class by the ratio of the
two conditional models and renormalized per row. `adjust_posterior` does
that on arrays: the source posterior p(y | z, x) and the two conditionals
q(y | z) and p(y | z), row by row. The per-row sum of the reweighted
probabilities is also the computable, parameter-dependent part of the
target marginal log-likelihood, which the EM driver tracks.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import as_float_matrix
from .errors import NumericalError, ValidationError

RATIO_MIN = 1e-12
RATIO_MAX = 1e12


def fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc` folded over the columns of an (n, K >= 2) array, left to
    right: `fold_columns(np.add, a)` is the row sums. On a few columns this
    is many times faster than an `axis=1` reduction, which loops over K
    elements per row. The maximum is bitwise `a.max(axis=1)`; the sum is
    bitwise `a.sum(axis=1)` for K <= 7, and a few ulps off it for K >= 8,
    where numpy sums each row pairwise over 8 accumulators."""
    out = ufunc(a[:, 0], a[:, 1])
    for k in range(2, a.shape[1]):
        ufunc(out, a[:, k], out=out)
    return out


def check_posterior(probs, name: str = "posterior", shape: tuple = (None, None)) -> np.ndarray:
    """Validate an (n, K) row-stochastic probability matrix, read by
    `as_float_matrix` at `shape`: a None allows any size on that axis, and a
    wrong size raises "{name} shape {got} != {want}"."""
    p = as_float_matrix(probs, name, shape=shape)
    if p.shape[1] < 2:
        raise ValidationError(f"{name} must hold K >= 2 classes, got {p.shape[1]}")
    if not np.all((p >= -1e-12) & (p <= 1.0 + 1e-12)):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    sums = fold_columns(np.add, p)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9))
    if bad.size:
        raise ValidationError(
            f"{name} row {bad[0]} sums to {sums[bad[0]]!r}, must be 1 within 1e-9"
        )
    return p


class AdjustResult(NamedTuple):
    posterior: np.ndarray       # adjusted row-stochastic (n, K)
    row_normalizer: np.ndarray  # per-row sum of posterior * ratio before renormalizing


def adjust_posterior(source_posterior, numerator, denominator) -> AdjustResult:
    """Reweight source posteriors by the class ratios numerator / denominator
    and renormalize rows.

    `numerator` holds q(y=k | z) and `denominator` p(y=k | z) for each
    posterior row: finite, nonnegative matrices of the posterior's shape.
    Both are floored at RATIO_MIN before dividing, and each ratio is clamped
    into [RATIO_MIN, RATIO_MAX]. The returned `row_normalizer` is the
    reciprocal of the density ratio between source and target feature laws
    at each row; the sum of its logs is the marginal log-likelihood
    surrogate that EM must not decrease.
    """
    p = check_posterior(source_posterior, "source_posterior")
    num = as_float_matrix(numerator, "numerator", shape=p.shape)
    den = as_float_matrix(denominator, "denominator", shape=p.shape)
    if np.any(num < 0) or np.any(den < 0):
        raise ValidationError("ratio matrices must be nonnegative")
    ratio = np.maximum(num, RATIO_MIN) / np.maximum(den, RATIO_MIN)
    return _reweight(p, np.clip(ratio, RATIO_MIN, RATIO_MAX))


def _reweight(p: np.ndarray, ratio) -> AdjustResult:
    """The posterior `p` times the class ratios `ratio`, which broadcast
    against it, renormalized per row. A zero or non-finite row normalizer
    raises NumericalError: it depends on the ratios, which change every EM
    round."""
    weighted = p * ratio
    norm = fold_columns(np.add, weighted)
    if np.any(norm <= 0.0) or not np.all(np.isfinite(norm)):
        bad = int(np.flatnonzero(~(norm > 0.0) | ~np.isfinite(norm))[0])
        raise NumericalError(
            f"zero or non-finite normalizer at row {bad}: contradictory posterior/ratio inputs"
        )
    weighted /= norm[:, None]
    return AdjustResult(posterior=weighted, row_normalizer=norm)
