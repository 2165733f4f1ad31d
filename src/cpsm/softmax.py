"""Multinomial logistic regression with hard- and soft-label targets.

Class K is the implicit reference class: its intercept and slopes are fixed
at zero, so a model over K classes stores K-1 parameter rows. The solver is
deterministic full-batch gradient-only ascent: limited-memory quasi-Newton
directions with a backtracking Armijo line search, so the objective trace is
non-decreasing by construction and a warm start can only be improved.

Solver contract: `_maximize(objective, w0, config)` ascends a callable
`w -> (value, gradient)` over the (K-1, 1+d) weight block; `_objective` is
the one objective, shared by `fit_soft`, `log_likelihood` and its gradient.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .adjust import check_posterior
from .data import LabeledDataset, as_float_matrix
from .errors import NumericalError, ValidationError, check_integers

PROB_EPS = 1e-12

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_STEP_SIZE = 0.1
_MAX_HALVINGS = 50
_CURVATURE_EPS = 1e-10


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

    @classmethod
    def zeros(cls, n_classes: int, n_features: int) -> "SoftmaxParams":
        return cls(
            n_classes=n_classes,
            n_features=n_features,
            intercepts=np.zeros(n_classes - 1),
            slopes=np.zeros((n_classes - 1, n_features)),
        )

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
    `head` holds the (n, K-1) scores of the non-reference classes."""
    scores = np.empty((head.shape[0], head.shape[1] + 1))
    scores[:, :-1] = head
    scores[:, -1] = 0.0
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def predict_proba(params: SoftmaxParams, features) -> np.ndarray:
    """Row-stochastic (n, K) class probabilities."""
    feats = _check_features(features, params.n_features)
    return _softmax(feats @ params.slopes.T + params.intercepts)


def _augment(feats: np.ndarray) -> np.ndarray:
    """[1 | feats]: the column of ones carries the intercepts."""
    return np.hstack([np.ones((feats.shape[0], 1)), feats])


_LOG_EPS = float(np.log(PROB_EPS))


def _objective(w, aug, targets, weights, l2):
    """Weighted soft-target log-likelihood minus the ridge penalty on slopes,
    and its gradient with respect to `w`: returns (value, gradient). The
    two-class case runs on flat score vectors."""
    if targets.shape[1] == 2:
        scores = aug @ w[0]
        log_p1 = -np.logaddexp(0.0, -scores)
        log_p2 = -np.logaddexp(0.0, scores)
        np.maximum(log_p1, _LOG_EPS, out=log_p1)
        np.maximum(log_p2, _LOG_EPS, out=log_p2)
        value = float(weights @ (targets[:, 0] * log_p1 + targets[:, 1] * log_p2))
        resid = (targets[:, 0] - np.exp(log_p1)) * weights
        g = (resid @ aug)[None, :].copy()
    else:
        probs = _softmax(aug @ w.T)
        value = float(np.sum(weights[:, None] * targets * np.log(clamp_probs(probs))))
        resid = (targets[:, :-1] - probs[:, :-1]) * weights[:, None]
        g = resid.T @ aug
    if l2 > 0:
        value -= 0.5 * l2 * float(np.sum(w[:, 1:] ** 2))
        g[:, 1:] -= l2 * w[:, 1:]
    return value, g


def _two_loop(g: np.ndarray, history: deque) -> np.ndarray:
    """Inverse-curvature scaling of the gradient from the stored (step,
    gradient difference, 1 / curvature) triples, oldest first; entries are
    flat vectors and the initial scaling comes from the newest pair."""
    s_last, y_last, _ = history[-1]
    gamma = float((s_last @ y_last) / (y_last @ y_last))
    q = g.ravel().copy()
    alphas = []
    for s, y, rho in reversed(history):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    q *= gamma
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return q.reshape(g.shape)


def _maximize(objective, w0: np.ndarray, config: FitConfig):
    """Monotone quasi-Newton ascent of `objective`, a callable w -> (value,
    gradient); returns (weights, objective trace)."""
    w = w0.copy()
    obj, g = objective(w)
    if not np.isfinite(obj):
        raise NumericalError("non-finite objective at initialization")
    trace = [obj]
    history: deque = deque(maxlen=_LBFGS_MEMORY)
    for _ in range(config.max_iters):
        direction = _two_loop(g, history) if history else None
        if direction is None or float(g.ravel() @ direction.ravel()) <= 0.0:
            # First step, or stale curvature made the direction non-ascending:
            # restart from the gradient scaled so its largest move is _STEP_SIZE.
            history.clear()
            direction = g * (_STEP_SIZE / max(float(np.max(np.abs(g))), 1e-30))
        slope = float(g.ravel() @ direction.ravel())
        if slope <= 0.0:
            trace.append(obj)
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = w + step * direction
            cand_obj, new_g = objective(cand)
            if np.isfinite(cand_obj) and cand_obj >= obj + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            trace.append(obj)
            break
        s = (cand - w).ravel()
        y = (g - new_g).ravel()
        sy, y_norm = float(s @ y), float(np.linalg.norm(y))
        # A pair whose y @ y underflowed to 0 cannot scale `_two_loop`.
        if y_norm > 0.0 and sy > _CURVATURE_EPS * float(np.linalg.norm(s)) * y_norm:
            history.append((s, y, 1.0 / sy))
        delta = float(np.max(np.abs(s)))
        w, obj, g = cand, cand_obj, new_g
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
    _trace: list | None = None,
) -> SoftmaxParams:
    """Maximize the soft-target cross-entropy objective (concave in the params).

    With one-hot targets this is ordinary maximum likelihood on hard labels.
    `init` warm-starts the solver; `_trace` collects objective values for
    diagnostics.
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
    w, trace = _maximize(lambda w: _objective(w, aug, t, weights, config.l2_penalty), w0, config)
    if _trace is not None:
        _trace.extend(trace)
    return SoftmaxParams.from_weight_matrix(n_classes, w)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=int)
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y - 1] = 1.0
    return out


def fit_hard(data: LabeledDataset, config: FitConfig, feature_block: str = "zx") -> SoftmaxParams:
    """Maximum likelihood fit on hard labels over the selected feature block.
    Every label in 1..K, K the largest label, must have rows: a class with
    none would get an intercept that runs off towards minus infinity."""
    counts = np.bincount(data.y, minlength=data.n_classes + 1)[1:]
    if np.count_nonzero(counts) < 2:
        raise ValidationError("degenerate labels: need at least 2 distinct classes")
    missing = np.flatnonzero(counts == 0) + 1
    if missing.size:
        raise ValidationError(
            f"no rows have label {', '.join(map(str, missing))}: "
            f"labels must cover 1..{data.n_classes}"
        )
    feats = data.features(feature_block)
    targets = one_hot(data.y, data.n_classes)
    return fit_soft(feats, targets, config)


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
    return _objective(*_unit_weight_problem(params, features, targets), 0.0)[0]


def log_likelihood_grad(params: SoftmaxParams, features, targets) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `log_likelihood` as (d_intercepts, d_slopes): the
    solver's gradient with unit weights and no ridge."""
    g = _objective(*_unit_weight_problem(params, features, targets), 0.0)[1]
    return g[:, 0], g[:, 1:]
