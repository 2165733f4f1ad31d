"""Synthetic benchmark generators.

Two families: a fully synthetic pair generator where the conditioning block
is Bernoulli or Gaussian and the class-given-conditioning law of the target
is a logistic ramp with a calibrated intercept, and a resampling protocol
that induces the same kind of shift in any labeled dataset with one binary
conditioning column. Both keep the feature law given (class, conditioning)
identical across domains by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import (
    FINITE, NONNEGATIVE, PROBABILITY, ValidationError, check_choice, check_integers, check_reals,
)

BERNOULLI_Z = "bernoulli_z"
GAUSSIAN_Z = "gaussian_z"
Z_DISTRIBUTIONS = (BERNOULLI_Z, GAUSSIAN_Z)

_BRACKET = 30.0
# Trapezoid nodes for the N(0, 1) expectation of the Gaussian calibration:
# [-10, 10] holds all but 1.5e-23 of the mass; the node count is capped so
# that a huge slope cannot ask for gigabytes.
_NODE_RANGE = 10.0
_MAX_NODES = 2**18 + 1


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-log(1 + exp(-t))) is overflow-safe at both tails.
    return np.exp(-np.logaddexp(0.0, np.negative(t)))


@dataclass
class SynthConfig:
    """One fully synthetic source/target pair.

    The target's class-1 rate given conditioning z is
    sigmoid(intercept + shift_slope * sum(z)); the intercept is calibrated so
    the marginal class-1 rate equals `target_prior`.
    """

    dataset_kind: str
    n_source: int
    n_target: int
    d_z: int = 5
    d_x: int = 10
    source_cond_prob: float = 0.05
    shift_slope: float = 0.0
    target_prior: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_choice("dataset_kind", self.dataset_kind, Z_DISTRIBUTIONS)
        check_integers(vars(self), n_source=1, n_target=1, d_z=0, d_x=0, seed=0)
        check_reals(vars(self), source_cond_prob=PROBABILITY, shift_slope=NONNEGATIVE,
                    target_prior=PROBABILITY)
        if self.d_x < self.d_z + 1:
            raise ValidationError(
                f"d_x must be >= d_z + 1 to hold the class indicator plus z, got d_x={self.d_x}"
            )


def calibrate_intercept(
    shift_slope: float,
    target_prior: float,
    z_dist: str,
    d_z: int,
) -> float:
    """Intercept t0 with E_z[sigmoid(t0 + shift_slope * sum(z))] = target_prior.

    Bernoulli conditioning uses exact enumeration of the 2^d_z equiprobable
    patterns (grouped by their ones-count). Gaussian conditioning has
    shift_slope * sum(z) = s * Z with s = shift_slope * sqrt(d_z) and
    Z ~ Normal(0, 1); the expectation over Z is the trapezoid rule on a
    uniform grid over [-10, 10], with weights exp(-Z^2 / 2) normalised to
    sum 1. The ramp sigmoid(t0 + s * Z) has poles pi / s from the real axis,
    so the rule's error falls like exp(-2 pi^2 / (s h)) in the node spacing
    h, and h = min(0.05, 1 / (2 s)) puts it below double precision. The tests
    check the root's expectation against a fine Simpson rule, within 1e-9
    of the prior, for slopes 0.5 to 1,000 at d_z = 5 (s up to 2,236). Past
    s = 6,554 the node count stops at 2^18 + 1, the spacing exceeds
    1 / (2 s), and the error grows with s; that range is not validated.
    Root found by bisection on [-30, 30].
    """
    check_reals(locals(), shift_slope=FINITE, target_prior=PROBABILITY)
    check_integers(locals(), d_z=0)
    check_choice("z distribution", z_dist, Z_DISTRIBUTIONS)
    if z_dist == BERNOULLI_Z:
        sums = shift_slope * np.arange(d_z + 1, dtype=float)
        # Integer true division rounds each weight correctly, where a float
        # 2.0**d_z overflows from d_z = 1024 on.
        weights = np.array([math.comb(d_z, s) / 2**d_z for s in range(d_z + 1)])
    else:
        scale = shift_slope * math.sqrt(d_z)
        # Spacing _NODE_RANGE / half: at most 0.05, and 1 / (2 |scale|).
        half = math.ceil(2.0 * _NODE_RANGE * max(abs(scale), 10.0))
        nodes = np.linspace(-_NODE_RANGE, _NODE_RANGE, min(2 * half + 1, _MAX_NODES))
        sums = scale * nodes
        weights = np.exp(-0.5 * nodes * nodes)
        weights /= weights.sum()

    def expected(t0: float) -> float:
        return float(weights @ _sigmoid(sums + t0))

    lo, hi = -_BRACKET, _BRACKET
    if expected(lo) > target_prior or expected(hi) < target_prior:
        raise ValidationError(
            f"target prior {target_prior} unreachable for intercept in [{lo}, {hi}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) < target_prior:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _draw_z(rng: np.random.Generator, n: int, config: SynthConfig) -> np.ndarray:
    if config.dataset_kind == BERNOULLI_Z:
        return (rng.random((n, config.d_z)) < 0.5).astype(float)
    return rng.standard_normal((n, config.d_z))


def _draw_x(rng: np.random.Generator, indicator: np.ndarray, z: np.ndarray, d_x: int) -> np.ndarray:
    n = indicator.shape[0]
    mean = np.zeros((n, d_x))
    mean[:, 0] = indicator
    mean[:, 1 : 1 + z.shape[1]] = z
    return mean + rng.standard_normal((n, d_x))


def generate_pair(config: SynthConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Sample a source/target pair; target labels are returned for evaluation only.

    Source labels are class 1 with constant probability `source_cond_prob`,
    independent of z; target labels follow the calibrated logistic ramp in
    sum(z). Given (label, z), x is Normal with mean (indicator, z, 0, ...) and
    identity covariance in both domains.
    """
    theta0 = calibrate_intercept(
        config.shift_slope, config.target_prior, config.dataset_kind, config.d_z
    )
    # The data come from the child stream [seed, 1]; the calibration draws
    # nothing. Another stream would change the data of every seed.
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    z_s = _draw_z(rng, config.n_source, config)
    ind_s = rng.random(config.n_source) < config.source_cond_prob
    x_s = _draw_x(rng, ind_s.astype(float), z_s, config.d_x)

    z_t = _draw_z(rng, config.n_target, config)
    rate_t = _sigmoid(theta0 + config.shift_slope * z_t.sum(axis=1))
    ind_t = rng.random(config.n_target) < rate_t
    x_t = _draw_x(rng, ind_t.astype(float), z_t, config.d_x)

    source = LabeledDataset(z=z_s, x=x_s, y=np.where(ind_s, 1, 2))
    target = LabeledDataset(z=z_t, x=x_t, y=np.where(ind_t, 1, 2))
    return source, target


@dataclass
class ShiftProtocolConfig:
    """Stratified resampling that fixes class-1 rates per binary conditioning
    stratum: source gets `base_rate` in both strata, target gets `base_rate`
    and `base_rate + shift_delta`."""

    base_rate: float
    shift_delta: float
    n_source: int
    n_target: int
    conditioning_column: int = 0
    seed: int = 0

    def __post_init__(self):
        check_reals(vars(self), shift_delta=FINITE, base_rate=PROBABILITY)
        if not 0.0 < self.base_rate + self.shift_delta < 1.0:
            raise ValidationError("base_rate + shift_delta must lie in (0, 1)")
        check_integers(vars(self), n_source=1, n_target=1, conditioning_column=0, seed=0)


def _binary_column(data: LabeledDataset, column: int, where: str = "") -> np.ndarray:
    """The 0/1 conditioning column `column` of a resample input as ints. An
    input that no resampling with this column can use, whatever the rates,
    sizes and seed, raises ValidationError; its message begins with `where`."""
    if data.n_classes != 2:
        raise ValidationError(f"{where}shift protocol requires binary labels in {{1, 2}}")
    if not 0 <= column < data.d_z:
        raise ValidationError(
            f"{where}conditioning_column {column} out of range for d_z={data.d_z}"
        )
    zcol = data.z[:, column]
    if not np.all((zcol == 0.0) | (zcol == 1.0)):
        raise ValidationError(f"{where}conditioning column must be binary with values 0/1")
    return zcol.astype(int)


def _stratum_rows(data: LabeledDataset, zcol: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    strata = {}
    for label in (1, 2):
        for zval in (0, 1):
            strata[(label, zval)] = np.flatnonzero((data.y == label) & (zcol == zval))
    return strata


def _resample(
    rng: np.random.Generator,
    data: LabeledDataset,
    strata: dict,
    size: int,
    p_z1: float,
    rate_by_z: tuple[float, float],
) -> LabeledDataset:
    n_z1 = int(math.floor(size * p_z1 + 0.5))
    n_z0 = size - n_z1
    picked = []
    for zval, n_z, rate in ((0, n_z0, rate_by_z[0]), (1, n_z1, rate_by_z[1])):
        n_pos = int(math.floor(rate * n_z + 0.5))
        n_neg = n_z - n_pos
        for label, count in ((1, n_pos), (2, n_neg)):
            if count == 0:
                continue
            pool = strata[(label, zval)]
            if pool.size == 0:
                raise ValidationError(f"empty stratum: y={label}, z={zval}")
            picked.append(rng.choice(pool, size=count, replace=True))
    rows = rng.permutation(np.concatenate(picked))
    return LabeledDataset(z=data.z[rows], x=data.x[rows], y=data.y[rows])


def induce_conditional_shift(
    data: LabeledDataset, config: ShiftProtocolConfig
) -> tuple[LabeledDataset, LabeledDataset]:
    """Resample a labeled dataset into a source/target pair with a controlled
    conditional shift; target labels are kept for evaluation only.

    Rows are drawn with replacement within (class, conditioning) strata, so
    the feature law given (class, conditioning) is preserved across domains.
    The empirical conditioning marginal of the input is preserved in both.
    """
    zcol = _binary_column(data, config.conditioning_column)
    strata = _stratum_rows(data, zcol)
    p_z1 = float(np.mean(zcol == 1))
    rng = np.random.default_rng(config.seed)
    a = config.base_rate
    source = _resample(rng, data, strata, config.n_source, p_z1, (a, a))
    target = _resample(rng, data, strata, config.n_target, p_z1, (a, a + config.shift_delta))
    return source, target
