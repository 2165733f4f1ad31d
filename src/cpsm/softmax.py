"""Multinomial logistic regression with hard- and soft-label targets.

Class K is the implicit reference class: its intercept and slopes are fixed
at zero, so a model over K classes stores K-1 parameter rows. Every fit is
`fit_soft`: the source and oracle fits (`fit_hard`) pass one-hot targets,
and the EM's M-step warm-starts near the optimum. Its one solver is
deterministic full-batch Newton ascent on the exact Hessian, with the
eigenvalues floored so that a separable direction gets a long but finite
step, and a backtracking Armijo line search, so the objective trace is
non-decreasing by construction and a warm start can only be improved.

Solver contract: `_newton(objective, w0, config)` ascends a callable
`w -> (value, gradient, Hessian)` over the (K-1, 1+d) weight block.
`_objective` is the one objective. Its value and gradient come from
`_value_grad`, which `log_likelihood` and its gradient call alone, with no
Hessian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjust import check_posterior, fold_columns
from .data import LabeledDataset, as_float_matrix
from .errors import NumericalError, ValidationError, check_integers, check_reals

PROB_EPS = 1e-12

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 50
# Newton's floor on the eigenvalues of -H, relative to the largest.
_EIG_FLOOR = 1e-10
# Rows per block of a Hessian sum: bounds its temporaries on many rows.
_GRAM_ROWS = 8192
# How many of a source's missing labels the label-gap error names.
_NAMED_LABELS = 5


def clamp_probs(probs: np.ndarray) -> np.ndarray:
    """Clip probabilities into [PROB_EPS, 1 - PROB_EPS] before logs or ratios."""
    return np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)


@dataclass(frozen=True)
class SoftmaxParams:
    """Parameters of a multinomial logistic model; immutable once built."""

    n_classes: int
    n_features: int
    intercepts: np.ndarray  # (K-1,)
    slopes: np.ndarray      # (K-1, n_features)

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_features < 0:
            raise ValidationError(f"n_features must be >= 0, got {self.n_features}")
        intercepts = np.array(self.intercepts, dtype=float).reshape(-1)
        slopes = np.array(self.slopes, dtype=float).reshape(intercepts.shape[0], -1)
        if intercepts.shape != (self.n_classes - 1,):
            raise ValidationError(
                f"intercepts shape {intercepts.shape} != ({self.n_classes - 1},)"
            )
        if slopes.shape != (self.n_classes - 1, self.n_features):
            raise ValidationError(
                f"slopes shape {slopes.shape} != ({self.n_classes - 1}, {self.n_features})"
            )
        if not (np.all(np.isfinite(intercepts)) and np.all(np.isfinite(slopes))):
            raise ValidationError("parameters must be finite")
        intercepts.setflags(write=False)
        slopes.setflags(write=False)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "slopes", slopes)

    def weight_matrix(self) -> np.ndarray:
        """(K-1, 1+d) block with column 0 the intercepts."""
        return np.hstack([self.intercepts[:, None], self.slopes])

    @classmethod
    def from_weight_matrix(cls, n_classes: int, w: np.ndarray) -> "SoftmaxParams":
        return cls(
            n_classes=n_classes,
            n_features=w.shape[1] - 1,
            intercepts=w[:, 0],
            slopes=w[:, 1:],
        )


@dataclass
class FitConfig:
    """Solver settings; the solver is deterministic from a zero or warm start."""

    max_iters: int = 2000
    tolerance: float = 1e-7
    l2_penalty: float = 1e-6

    def __post_init__(self):
        check_integers(self, max_iters=1)
        check_reals(self, "tolerance", "l2_penalty")
        if not 0.0 < self.tolerance < math.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not 0.0 <= self.l2_penalty < math.inf:
            raise ValidationError(
                f"l2_penalty must be nonnegative and finite, got {self.l2_penalty}"
            )


def _check_features(features, n_features: int) -> np.ndarray:
    feats = as_float_matrix(features, "features")
    if feats.shape[1] != n_features:
        raise ValidationError(
            f"feature dimension mismatch: model expects {n_features}, got {feats.shape[1]}"
        )
    return feats


def _softmax(head: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the scores [head | 0], max-shifted for stability;
    `head` holds the (n, K-1) scores of the non-reference classes. The row
    max and sum are folded column by column (`fold_columns`): bitwise the
    `axis=1` reductions for K <= 7, within a few ulps for K >= 8."""
    scores = np.empty((head.shape[0], head.shape[1] + 1))
    scores[:, :-1] = head
    scores[:, -1] = 0.0
    scores -= fold_columns(np.maximum, scores)[:, None]
    np.exp(scores, out=scores)
    scores /= fold_columns(np.add, scores)[:, None]
    return scores


def predict_proba(params: SoftmaxParams, features) -> np.ndarray:
    """Row-stochastic (n, K) class probabilities."""
    feats = _check_features(features, params.n_features)
    return _softmax(feats @ params.slopes.T + params.intercepts)


def _augment(feats: np.ndarray) -> np.ndarray:
    """[1 | feats]: the column of ones carries the intercepts."""
    return np.hstack([np.ones((feats.shape[0], 1)), feats])


def _gram(aug: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i v_i a_i a_i^T over the rows a_i of `aug`, summed in blocks of
    _GRAM_ROWS rows so that the weighted copy of `aug` stays small."""
    out = np.zeros((aug.shape[1], aug.shape[1]))
    for start in range(0, aug.shape[0], _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        out += (aug[rows].T * v[rows]) @ aug[rows]
    return out


def _two_class_log_probs(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p1 = -log(1 + e^-s) and log p2 = -log(1 + e^s) of the two-class
    scores s, unclamped, from one pass of soft = log1p(exp(-|s|)):
    log p1 = -(max(-s, 0) + soft) and log p2 = -(max(s, 0) + soft). Each is
    within 2 ulp of `-logaddexp`, with no overflow at any finite s."""
    soft = np.log1p(np.exp(-np.abs(scores)))
    return -(np.maximum(-scores, 0.0) + soft), -(np.maximum(scores, 0.0) + soft)


def _value_grad(w, aug, targets, weights, l2):
    """Weighted soft-target log-likelihood minus the ridge penalty on slopes,
    and its gradient with respect to `w`: returns (value, gradient,
    row_terms), where `row_terms` is what the Hessian reuses. For two
    classes it is log p1 + log p2 per row, and the case runs on flat score
    vectors whose log-probabilities are left unclamped: a clamped value
    would be flat where the gradient is not. For K > 2 it is the (n, K)
    probabilities."""
    if targets.shape[1] == 2:
        log_p1, log_p2 = _two_class_log_probs(aug @ w[0])
        value = float(weights @ (targets[:, 0] * log_p1 + targets[:, 1] * log_p2))
        resid = (targets[:, 0] - np.exp(log_p1)) * weights
        g = (resid @ aug)[None, :].copy()
        row_terms = log_p1 + log_p2
    else:
        row_terms = probs = _softmax(aug @ w.T)
        value = float(np.sum(weights[:, None] * targets * np.log(clamp_probs(probs))))
        resid = (targets[:, :-1] - probs[:, :-1]) * weights[:, None]
        g = resid.T @ aug
    if l2 > 0:
        value -= 0.5 * l2 * float(np.sum(w[:, 1:] ** 2))
        g[:, 1:] -= l2 * w[:, 1:]
    return value, g, row_terms


def _objective(w, aug, targets, weights, l2):
    """`_value_grad`'s value and gradient, with the Hessian with respect to
    `w` from the same pass: returns (value, gradient, Hessian). The Hessian
    is -sum_i weights_i (diag p_i - p_i p_i^T) kron a_i a_i^T, minus the
    ridge, over the flattened (K-1, 1+d) block, a_i the augmented row."""
    value, g, row_terms = _value_grad(w, aug, targets, weights, l2)
    if targets.shape[1] == 2:
        # p1 p2 from the logs keeps its precision where p1 is near 1.
        h = -_gram(aug, weights * np.exp(row_terms))
    else:
        # Block (k, j) is -sum_i weights_i p_ik (delta_kj - p_ij) a_i a_i^T.
        probs, width = row_terms, aug.shape[1]
        h = np.empty((g.size, g.size))
        for k in range(g.shape[0]):
            wp = weights * probs[:, k]
            for j in range(k, g.shape[0]):
                block = -_gram(aug, wp * ((j == k) - probs[:, j]))
                h[k * width:(k + 1) * width, j * width:(j + 1) * width] = block
                h[j * width:(j + 1) * width, k * width:(k + 1) * width] = block.T
    if l2 > 0:
        ridge = np.full(w.shape, l2)
        ridge[:, 0] = 0.0
        h[np.diag_indices_from(h)] -= ridge.ravel()
    return value, g, h


def _line_search(objective, w, obj, g, direction):
    """Armijo backtracking from `w`, where the objective is `obj` and its
    gradient `g`, along `direction`: halve the step from 1 until the value
    gains at least _ARMIJO_C1 of the linear prediction. Returns the accepted
    point and its objective result, or None when `direction` does not
    ascend or after _MAX_HALVINGS halvings."""
    slope = float(g.ravel() @ direction.ravel())
    if not slope > 0.0:
        return None
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = w + step * direction
        result = objective(cand)
        if np.isfinite(result[0]) and result[0] >= obj + _ARMIJO_C1 * step * slope:
            return cand, result
        step *= 0.5
    return None


def _newton_direction(g: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """Solve (-H) d = g for the (K-1, 1+d) step d, with the eigenvalues of -H
    floored at _EIG_FLOOR of the largest |eigenvalue|, so that a flat or
    separable direction gets a long but finite step. None where no finite
    step exists: every curvature underflowed to 0 or to a subnormal."""
    lam, vecs = np.linalg.eigh(-h)
    floor = _EIG_FLOOR * float(np.max(np.abs(lam)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = vecs @ ((vecs.T @ g.ravel()) / np.maximum(lam, floor))
    return d.reshape(g.shape) if np.all(np.isfinite(d)) else None


def _newton(objective, w0: np.ndarray, config: FitConfig):
    """Monotone Newton ascent of a concave `objective`, a callable w ->
    (value, gradient, Hessian), by `_line_search` along the floored Newton
    direction; it stops once the largest weight move is below `tolerance`,
    or when no step ascends. Returns (weights, objective trace)."""
    w = w0.copy()
    obj, g, h = objective(w)
    if not np.isfinite(obj):
        raise NumericalError("non-finite objective at initialization")
    trace = [obj]
    for _ in range(config.max_iters):
        direction = _newton_direction(g, h)
        accepted = None if direction is None else _line_search(objective, w, obj, g, direction)
        if accepted is None:
            trace.append(obj)
            break
        cand, (obj, g, h) = accepted
        delta = float(np.max(np.abs(cand - w)))
        w = cand
        trace.append(obj)
        if delta < config.tolerance:
            break
    return w, trace


def fit_soft(
    features,
    targets,
    config: FitConfig,
    init: SoftmaxParams | None = None,
    sample_weights=None,
) -> SoftmaxParams:
    """Maximize the soft-target cross-entropy objective (concave in the params)
    by Newton's method (`_newton`).

    With one-hot targets this is ordinary maximum likelihood on hard labels.
    `init` warm-starts the solver.
    """
    feats = as_float_matrix(features, "features")
    t = check_posterior(targets, "soft targets", n_rows=feats.shape[0])
    n, d = feats.shape
    n_classes = t.shape[1]
    weights = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    if weights.shape != (n,):
        raise ValidationError("sample_weights length must match rows")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("sample_weights must be finite and nonnegative")
    if init is None:
        w0 = np.zeros((n_classes - 1, 1 + d))
    else:
        if init.n_classes != n_classes or init.n_features != d:
            raise ValidationError(
                f"warm start shape ({init.n_classes}, {init.n_features}) does not match "
                f"problem ({n_classes}, {d})"
            )
        w0 = init.weight_matrix()
    aug = _augment(feats)
    w, _ = _newton(lambda w: _objective(w, aug, t, weights, config.l2_penalty), w0, config)
    return SoftmaxParams.from_weight_matrix(n_classes, w)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=int)
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y - 1] = 1.0
    return out


def fit_hard(data: LabeledDataset, config: FitConfig, feature_block: str = "zx") -> SoftmaxParams:
    """Maximum likelihood fit on hard labels over the selected feature block:
    `fit_soft` on one-hot targets, from zero. Every label in 1..K, K the
    largest label, must have rows: a class with none would get an intercept
    that runs off towards minus infinity."""
    present = np.unique(data.y)
    if present.size < 2:
        raise ValidationError("degenerate labels: need at least 2 distinct classes")
    n_missing = data.n_classes - present.size
    if n_missing:
        # At most present.size labels are present, so the first few missing
        # ones lie in 1..present.size + _NAMED_LABELS (and in 1..K).
        cand = np.arange(1, min(data.n_classes, present.size + _NAMED_LABELS) + 1)
        named = cand[~np.isin(cand, present)][:_NAMED_LABELS]
        more = f", ... ({n_missing} labels in all)" if n_missing > len(named) else ""
        raise ValidationError(
            f"no rows have label {', '.join(map(str, named))}{more}: "
            f"labels must cover 1..{data.n_classes}"
        )
    return fit_soft(data.features(feature_block), one_hot(data.y, data.n_classes), config)


def _unit_weight_problem(params: SoftmaxParams, features, targets):
    """Validated (w, aug, targets, weights) for the solver's objective with
    every row weighted 1."""
    feats = _check_features(features, params.n_features)
    t = check_posterior(targets, "soft targets", n_rows=feats.shape[0])
    if t.shape[1] != params.n_classes:
        raise ValidationError(
            f"targets have {t.shape[1]} classes, model has {params.n_classes}"
        )
    return params.weight_matrix(), _augment(feats), t, np.ones(feats.shape[0])


def log_likelihood(params: SoftmaxParams, features, targets) -> float:
    """Soft-target log-likelihood of the model on the given rows: the
    solver's objective with unit weights and no ridge."""
    return _value_grad(*_unit_weight_problem(params, features, targets), 0.0)[0]


def log_likelihood_grad(params: SoftmaxParams, features, targets) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `log_likelihood` as (d_intercepts, d_slopes): the
    solver's gradient with unit weights and no ridge."""
    g = _value_grad(*_unit_weight_problem(params, features, targets), 0.0)[1]
    return g[:, 0], g[:, 1:]
