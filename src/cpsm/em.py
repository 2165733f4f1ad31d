"""EM estimation of the target-domain class-given-conditioning model from
unlabeled target rows, given source-fitted models.

The E-step turns source posteriors into target responsibilities through the
conditional-ratio reweighting of `adjust_posterior(p_xz, q_z, p_z)` on the
clamped source posterior p(y | z, x), shifted conditional q(y | z; theta)
and source conditional p(y | z) of every target row. `fit_cpsm` checks those
inputs once and runs the kernel `adjust._reweight` every round: p_xz and p_z
are fixed, each q_z is a clamped `predict_proba` of their shape, and a zero
or non-finite row normalizer still raises NumericalError. The M-step refits
the shifted conditional model on those responsibilities by `fit_soft`, whose
Newton steps on the exact Hessian converge in a few iterations from the
previous round's warm start. It runs the fixed solver settings `M_STEP`,
unpenalized, and its Armijo line search never lowers the M-step objective,
so the marginal-likelihood surrogate can only go up. The prior-only
correction (empty conditioning block) and the uncorrected baseline fall out
as special cases.

The shifted model sees the conditioning block z only through its distinct
rows. `fit_cpsm` groups the target's z rows into patterns once; each M-step
then fits the mean responsibilities of every pattern, weighted by its row
count, and each E-step scores q(y | z; theta) once per pattern. So the
M-step cost scales with the number of distinct z patterns (32 for five
binary columns, 1 for the prior-only case), not with the target rows. The
objective, its gradient and its Hessian are the row-wise sums regrouped.
Continuous z has as many patterns as rows, each of count 1, and runs the
row-wise arithmetic unchanged.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adjust import _check_adjust_inputs, _reweight
from .data import UnlabeledDataset, read_json_object
from .errors import ValidationError, check_integers, check_reals, json_number
from .softmax import (
    FitConfig,
    SoftmaxParams,
    clamp_probs,
    fit_soft,
    predict_proba,
)

FIT_FORMAT_VERSION = 1

# The M-step solver settings: a short warm-started budget of Newton steps
# and no ridge penalty. A ridge would make each M-step maximize a penalized
# objective, and EM's guarantee that the surrogate never decreases holds
# only for the M-step of the plain likelihood.
M_STEP = FitConfig(max_iters=200, l2_penalty=0.0)


@dataclass(frozen=True)
class SourceModels:
    """Source-fitted posterior model over [z | x] and conditional model over z."""

    posterior_model: SoftmaxParams
    conditional_model: SoftmaxParams

    def __post_init__(self):
        if self.posterior_model.n_classes != self.conditional_model.n_classes:
            raise ValidationError(
                "posterior and conditional models disagree on class count: "
                f"{self.posterior_model.n_classes} vs {self.conditional_model.n_classes}"
            )
        if self.posterior_model.n_features < self.conditional_model.n_features:
            raise ValidationError(
                "posterior model must cover at least the conditioning features"
            )


@dataclass
class EmConfig:
    """EM driver settings: the round budget and the stopping rule. Each
    M-step runs the fixed solver `M_STEP`."""

    max_em_iters: int = 500
    em_tolerance: float = 1e-8

    def __post_init__(self):
        check_integers(self, max_em_iters=0)
        check_reals(self, "em_tolerance")
        if not 0.0 < self.em_tolerance < math.inf:
            raise ValidationError(
                f"em_tolerance must be positive and finite, got {self.em_tolerance}"
            )


@dataclass(frozen=True)
class CpsmFit:
    """EM output: the shifted conditional model, final target posteriors,
    the surrogate log-likelihood trace, and the implied target prior."""

    theta_hat: SoftmaxParams
    target_posterior: np.ndarray
    loglik_trace: np.ndarray
    iterations_run: int
    estimated_prior: np.ndarray


def _source_probs(source: SourceModels, target: UnlabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Clamped source posteriors p(y | z, x) and conditionals p(y | z) on the
    target rows."""
    if target.n_rows == 0:
        raise ValidationError("target dataset is empty")
    if source.conditional_model.n_features != target.d_z:
        raise ValidationError(
            f"conditional model expects {source.conditional_model.n_features} conditioning "
            f"features, target has {target.d_z}"
        )
    if source.posterior_model.n_features != target.d_z + target.d_x:
        raise ValidationError(
            f"posterior model expects {source.posterior_model.n_features} features, "
            f"target has {target.d_z + target.d_x}"
        )
    p_xz = clamp_probs(predict_proba(source.posterior_model, target.features("zx")))
    p_z = clamp_probs(predict_proba(source.conditional_model, target.z))
    return p_xz, p_z


class _Patterns(NamedTuple):
    """The distinct rows of a matrix in order of first occurrence, the
    pattern index of every row, and the number of rows of each pattern."""

    rows: np.ndarray     # (m, d)
    inverse: np.ndarray  # (n,) indices into `rows`
    counts: np.ndarray   # (m,) float row counts


def _distinct_rows(z: np.ndarray) -> _Patterns:
    """Group the rows of `z` by value. With every row distinct, `rows` equals
    `z`, `inverse` is 0..n-1 and every count is 1."""
    n, d = z.shape
    if d == 0:
        # Every row is the one empty pattern.
        first, inverse = np.zeros(min(n, 1), dtype=np.intp), np.zeros(n, dtype=np.intp)
    else:
        # One opaque byte string per row groups faster than np.unique(axis=0);
        # adding 0.0 turns -0.0 into 0.0 so that equal values share one key.
        key = np.ascontiguousarray(z + 0.0)
        key = key.view(np.dtype((np.void, key.itemsize * d))).reshape(n)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        first, inverse = first[order], rank[inverse.reshape(n)]
    return _Patterns(z[first], inverse, np.bincount(inverse).astype(float))


def _fit_patterns(
    patterns: _Patterns, responsibilities: np.ndarray, init: SoftmaxParams
) -> SoftmaxParams:
    """The M-step on grouped rows: each pattern's mean responsibilities,
    weighted by its row count."""
    sums = [
        np.bincount(patterns.inverse, weights=column, minlength=patterns.counts.size)
        for column in responsibilities.T
    ]
    means = np.stack(sums, axis=1) / patterns.counts[:, None]
    return fit_soft(patterns.rows, means, M_STEP, init=init, sample_weights=patterns.counts)


def fit_cpsm(source: SourceModels, target: UnlabeledDataset, config: EmConfig) -> CpsmFit:
    """Run EM from the source conditional model as the starting point.

    Iteration 0 therefore reproduces the uncorrected source posterior, and a
    target with no shift is a fixed point. Stops when the surrogate improves
    by less than `em_tolerance` or after `max_em_iters` rounds.
    """
    p_xz, p_z = _source_probs(source, target)
    # Iteration 0 scores the source conditional model, whose clamped
    # probabilities are p_z; only the later rounds need the z patterns.
    theta, q_z = source.conditional_model, p_z
    p_xz, q_z, p_z = _check_adjust_inputs(p_xz, q_z, p_z)
    patterns = _distinct_rows(target.z) if config.max_em_iters > 0 else None

    trace: list[float] = []
    for it in range(config.max_em_iters + 1):
        if it > 0:
            theta = _fit_patterns(patterns, result.posterior, theta)
            q_z = clamp_probs(predict_proba(theta, patterns.rows))[patterns.inverse]
        result = _reweight(p_xz, q_z, p_z)
        value = float(np.log(result.row_normalizer).sum())
        trace.append(value)
        if it > 0 and value - trace[-2] < config.em_tolerance:
            break
    posterior = result.posterior
    return CpsmFit(
        theta_hat=theta,
        target_posterior=posterior,
        loglik_trace=np.asarray(trace),
        iterations_run=len(trace) - 1,
        estimated_prior=posterior.mean(axis=0),
    )


def params_from_prior(prior) -> SoftmaxParams:
    """Intercept-only model whose probabilities equal the given prior."""
    p = np.asarray(prior, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValidationError("prior must be a vector of length >= 2")
    if abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p < 0):
        raise ValidationError("prior must be nonnegative and sum to 1 within 1e-9")
    p = clamp_probs(p)
    intercepts = np.log(p[:-1]) - np.log(p[-1])
    return SoftmaxParams.from_weight_matrix(p.shape[0], intercepts[:, None])


def fit_mlls(
    source_posterior_only: SoftmaxParams,
    source_prior,
    target: UnlabeledDataset,
    config: EmConfig,
) -> CpsmFit:
    """Prior-only EM correction: the empty-conditioning special case.

    All features are treated as the remaining block and the shifted model is
    intercept-only, so only the class prior is re-estimated; `estimated_prior`
    of the result is that estimate.
    """
    conditional = params_from_prior(source_prior)
    if conditional.n_classes != source_posterior_only.n_classes:
        raise ValidationError(
            f"prior length {conditional.n_classes} does not match model classes "
            f"{source_posterior_only.n_classes}"
        )
    merged = UnlabeledDataset(z=np.zeros((target.n_rows, 0)), x=target.features("zx"))
    source = SourceModels(posterior_model=source_posterior_only, conditional_model=conditional)
    return fit_cpsm(source, merged, config)


def naive_posterior(source: SourceModels, target: UnlabeledDataset) -> np.ndarray:
    """Source posterior applied to target rows without any correction: the
    zero-round EM posterior."""
    return fit_cpsm(source, target, EmConfig(max_em_iters=0)).target_posterior


def params_to_dict(params: SoftmaxParams) -> dict:
    return {
        "n_classes": params.n_classes,
        "n_features": params.n_features,
        "intercepts": params.intercepts.tolist(),
        "slopes": params.slopes.tolist(),
    }


def params_from_dict(doc: dict) -> SoftmaxParams:
    """The model of a `params_to_dict` document. A missing field, or one of
    the wrong type, form or size, raises ValidationError; the integer fields
    are read by the config files' JSON-number rule."""
    try:
        n_classes = json_number("n_classes", doc["n_classes"], int)
        n_features = json_number("n_features", doc["n_features"], int)
        return SoftmaxParams(
            n_classes=n_classes,
            n_features=n_features,
            intercepts=np.asarray(doc["intercepts"], dtype=float),
            slopes=np.asarray(doc["slopes"], dtype=float).reshape(n_classes - 1, n_features),
        )
    except KeyError as exc:
        raise ValidationError(f"missing field in model document: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from None


def fit_to_dict(fit: CpsmFit) -> dict:
    return {
        "format_version": FIT_FORMAT_VERSION,
        "theta_hat": params_to_dict(fit.theta_hat),
        "loglik_trace": fit.loglik_trace.tolist(),
        "estimated_prior": fit.estimated_prior.tolist(),
        "iterations_run": fit.iterations_run,
    }


def save_fit_json(path, fit: CpsmFit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_dict(fit), fh, indent=2)
        fh.write("\n")


def load_fit_json(path) -> dict:
    """The document `save_fit_json` wrote; a file that is not a JSON object
    of this format version raises ValidationError."""
    doc = read_json_object(path)
    version = doc.get("format_version")
    if version != FIT_FORMAT_VERSION:
        raise ValidationError(f"unsupported fit document version: {version!r}")
    return doc
