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
`w -> (value, gradient, hessian)` over the (K-1, 1+d) weight block, where
`hessian()` builds the Hessian from that evaluation's arrays. `_objective`
is the one objective: one branch per class count computes its value and
gradient and keeps what its Hessian reads. `_newton` builds one Hessian per
step it solves, so a rejected line-search trial, the last iterate and
`log_likelihood` and its gradient build none.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjust import check_posterior, fold_columns
from .data import LabeledDataset, as_float_matrix
from .errors import NONNEGATIVE, POSITIVE, NumericalError, ValidationError, check_integers, check_reals

PROB_EPS = 1e-12
# The smallest normal double: a probability below it has lost bits.
_TINY = float(np.finfo(float).tiny)

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
        check_integers(vars(self), n_classes=2, n_features=0)
        # Copies, so that the caller's arrays do not alias the model.
        rows = self.n_classes - 1
        intercepts = np.array(as_float_matrix(self.intercepts, "intercepts", shape=(rows,)))
        slopes = np.array(as_float_matrix(self.slopes, "slopes", shape=(rows, self.n_features)))
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
        check_integers(vars(self), max_iters=1)
        check_reals(vars(self), tolerance=POSITIVE, l2_penalty=NONNEGATIVE)


def _shifted_scores(head: np.ndarray) -> np.ndarray:
    """The scores [head | 0] less their row max; `head` holds the (n, K-1)
    scores of the non-reference classes."""
    scores = np.empty((head.shape[0], head.shape[1] + 1))
    scores[:, :-1] = head
    scores[:, -1] = 0.0
    scores -= fold_columns(np.maximum, scores)[:, None]
    return scores


def _softmax(head: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the scores [head | 0], max-shifted for stability.
    The row max and sum are folded column by column (`fold_columns`):
    bitwise the `axis=1` reductions for K <= 7, within a few ulps for K >= 8."""
    scores = _shifted_scores(head)
    np.exp(scores, out=scores)
    scores /= fold_columns(np.add, scores)[:, None]
    return scores


def predict_proba(params: SoftmaxParams, features) -> np.ndarray:
    """Row-stochastic (n, K) class probabilities."""
    feats = as_float_matrix(features, "features", shape=(None, params.n_features))
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


def _objective(w, aug, targets, weights, l2):
    """Weighted soft-target log-likelihood less the ridge on slopes, its
    gradient and a function of no arguments that builds its Hessian in `w`
    from this evaluation's arrays: returns (value, gradient, hessian). The
    Hessian is -sum_i weights_i (diag p_i - p_i p_i^T) kron a_i a_i^T, less
    the ridge, over the flattened (K-1, 1+d) block, a_i the augmented row.
    Two classes run on flat score vectors. For K > 2, p is `_softmax`'s bit
    for bit, and log p its log or, below the smallest normal, where p has
    lost bits or is 0, the max-shifted score less the log of the row's sum.
    Neither case clamps: a clamped value would be flat where the gradient
    is not. The builder keeps only what its sums read: log p1 p2, or p."""
    if targets.shape[1] == 2:
        log_p1, log_p2 = _two_class_log_probs(aug @ w[0])
        value = float(weights @ (targets[:, 0] * log_p1 + targets[:, 1] * log_p2))
        g = (((targets[:, 0] - np.exp(log_p1)) * weights) @ aug)[None, :]
        # p1 p2 from the logs keeps its precision where p1 is near 1.
        log_p1p2 = log_p1 + log_p2

        def likelihood_hessian():
            return -_gram(aug, weights * np.exp(log_p1p2))
    else:
        log_probs = _shifted_scores(aug @ w.T)
        probs = np.exp(log_probs)
        total = fold_columns(np.add, probs)
        probs /= total[:, None]
        log_probs -= np.log(total)[:, None]
        np.log(probs, out=log_probs, where=probs >= _TINY)
        value = float(np.sum(weights[:, None] * targets * log_probs))
        g = ((targets[:, :-1] - probs[:, :-1]) * weights[:, None]).T @ aug

        def likelihood_hessian():
            # Block (k, j) is -sum_i weights_i p_ik (delta_kj - p_ij) a_i a_i^T.
            width = aug.shape[1]
            h = np.empty((w.size, w.size))
            for k in range(w.shape[0]):
                wp = weights * probs[:, k]
                for j in range(k, w.shape[0]):
                    block = -_gram(aug, wp * ((j == k) - probs[:, j]))
                    h[k * width:(k + 1) * width, j * width:(j + 1) * width] = block
                    h[j * width:(j + 1) * width, k * width:(k + 1) * width] = block.T
            return h
    if l2 > 0:
        value -= 0.5 * l2 * float(np.sum(w[:, 1:] ** 2))
        g[:, 1:] -= l2 * w[:, 1:]

    def hessian():
        h = likelihood_hessian()
        if l2 > 0:
            ridge = np.full(w.shape, l2)
            ridge[:, 0] = 0.0
            h[np.diag_indices_from(h)] -= ridge.ravel()
        return h
    return value, g, hessian


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
        step, result = 0.5 * step, None  # a rejected trial's builder is freed here
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
    (value, gradient, hessian), by `_line_search` along the floored Newton
    direction; it stops once the largest weight move is below `tolerance`,
    or when no step ascends. It calls `hessian()` once per step it solves,
    at the current point only. Returns (weights, objective trace)."""
    w = w0.copy()
    obj, g, hessian = objective(w)
    if not np.isfinite(obj):
        raise NumericalError("non-finite objective at initialization")
    trace = [obj]
    for _ in range(config.max_iters):
        direction = _newton_direction(g, hessian())
        # The builder's arrays are freed before the line search's trials.
        hessian = accepted = None
        if direction is not None:
            accepted = _line_search(objective, w, obj, g, direction)
        if accepted is None:
            trace.append(obj)
            break
        cand, (obj, g, hessian) = accepted
        delta = float(np.max(np.abs(cand - w)))
        w = cand
        trace.append(obj)
        if delta < config.tolerance:
            break
    return w, trace


def _problem(features, targets, model: SoftmaxParams | None = None, sample_weights=None):
    """Validated (w0, aug, targets, weights) for `_objective`: w0 is the
    weight block of `model`, or zeros without one, and every row weighs 1
    unless `sample_weights` says otherwise. A model's sizes fix the shapes
    read: features at (n, model.n_features) and targets at
    (n, model.n_classes)."""
    d, k = (None, None) if model is None else (model.n_features, model.n_classes)
    feats = as_float_matrix(features, "features", shape=(None, d))
    n, d = feats.shape
    t = check_posterior(targets, "soft targets", shape=(n, k))
    weights = np.ones(n) if sample_weights is None else as_float_matrix(
        sample_weights, "sample_weights", shape=(n,)
    )
    if np.any(weights < 0):
        raise ValidationError("sample_weights must be finite and nonnegative")
    w0 = np.zeros((t.shape[1] - 1, 1 + d)) if model is None else model.weight_matrix()
    return w0, _augment(feats), t, weights


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
    w0, aug, t, weights = _problem(features, targets, init, sample_weights)
    w, _ = _newton(lambda w: _objective(w, aug, t, weights, config.l2_penalty), w0, config)
    return SoftmaxParams.from_weight_matrix(t.shape[1], w)


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


def log_likelihood(params: SoftmaxParams, features, targets) -> float:
    """Soft-target log-likelihood of the model on the given rows: the
    solver's objective with unit weights and no ridge."""
    return _objective(*_problem(features, targets, params), 0.0)[0]


def log_likelihood_grad(params: SoftmaxParams, features, targets) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `log_likelihood` as (d_intercepts, d_slopes): the
    solver's gradient with unit weights and no ridge."""
    g = _objective(*_problem(features, targets, params), 0.0)[1]
    return g[:, 0], g[:, 1:]
