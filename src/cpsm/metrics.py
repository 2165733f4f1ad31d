"""Decision rule and evaluation metrics for the benchmark."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjust import check_posterior
from .data import LabeledDataset, _as_label_vector
from .errors import PROBABILITY, ValidationError, check_reals
from .softmax import FitConfig, fit_hard, predict_proba


@dataclass
class MetricRow:
    """One benchmark run. `a` is the target class-1 prior for synthetic grids
    and the base rate for the resampling protocol."""

    method: str
    a: float
    k: float
    n: int
    seed: int
    balanced_accuracy: float
    approx_error: float
    wall_clock_seconds: float


def classify(posterior, threshold: float | None = None) -> np.ndarray:
    """Labels from posteriors.

    With a threshold (binary only): label 1 where the class-1 probability
    strictly exceeds it, else label 2. Without: argmax with lowest class
    index winning ties.
    """
    p = check_posterior(posterior, shape=(None, None if threshold is None else 2))
    if threshold is None:
        return np.argmax(p, axis=1) + 1
    check_reals(locals(), threshold=PROBABILITY)
    return np.where(p[:, 0] > threshold, 1, 2)


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean of per-class recalls over classes 1..K; both vectors hold labels
    in 1..K, read as `LabeledDataset` reads its labels."""
    yt = _as_label_vector(y_true, "y_true")
    yp = _as_label_vector(y_pred, "y_pred", shape=yt.shape)
    n_classes = max(2, int(yt.max()), int(yp.max()))
    recalls = []
    for label in range(1, n_classes + 1):
        mask = yt == label
        if not mask.any():
            raise ValidationError(f"undefined recall: true class {label} absent")
        recalls.append(float(np.mean(yp[mask] == label)))
    return float(np.mean(recalls))


def approximation_error(method_posterior, oracle_posterior) -> float:
    """Mean absolute class-1 posterior gap against the labeled-target reference."""
    p = check_posterior(method_posterior, "method_posterior")
    q = check_posterior(oracle_posterior, "oracle_posterior", shape=p.shape)
    return float(np.mean(np.abs(p[:, 0] - q[:, 0])))


def fit_oracle(target_with_labels: LabeledDataset, config: FitConfig) -> np.ndarray:
    """Posterior of a model fit on the target rows using their hidden labels,
    evaluated on those same rows."""
    params = fit_hard(target_with_labels, config, feature_block="zx")
    return predict_proba(params, target_with_labels.features("zx"))
