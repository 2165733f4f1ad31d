import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import ValidationError, adjust_posterior
from cpsm.adjust import RATIO_MAX, RATIO_MIN, _reweight, check_posterior
from cpsm.softmax import _shifted_scores, _softmax, clamp_probs

from helpers import bayes_posterior_from_joint, random_discrete_joint


def test_unit_ratios_are_identity():
    posterior = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    ones = np.ones_like(posterior)
    result = adjust_posterior(posterior, ones, ones)
    assert np.array_equal(result.posterior, posterior)
    assert np.array_equal(result.row_normalizer, np.ones(3))
    assert np.log(result.row_normalizer).sum() == 0.0


def test_single_row_reweighting_value():
    # p(class 1) 0.6 with conditional rates moving 0.4 -> 0.5.
    posterior = np.array([[0.6, 0.4]])
    expected_1 = (0.6 * (0.5 / 0.4)) / (0.6 * (0.5 / 0.4) + 0.4 * (0.5 / 0.6))
    result = adjust_posterior(posterior, [[0.5, 0.5]], [[0.4, 0.6]])
    assert result.posterior[0, 0] == pytest.approx(expected_1, abs=1e-12)
    assert result.posterior[0, 0] == pytest.approx(0.692308, abs=1e-6)
    assert result.row_normalizer[0] == pytest.approx(0.6 * 1.25 + 0.4 * (0.5 / 0.6), abs=1e-12)
    value = np.log(result.row_normalizer).sum()
    assert value == pytest.approx(math.log(1.0833333333333333), abs=1e-12)
    assert value == pytest.approx(0.080043, abs=1e-6)


def test_matches_brute_force_bayes_on_discrete_joints():
    rng = np.random.default_rng(42)
    for _ in range(120):
        joint = random_discrete_joint(rng)
        cells = [(x, z) for x in (0, 1) for z in (0, 1)]
        posterior = np.array(
            [bayes_posterior_from_joint(joint["p_joint"], x, z) for x, z in cells]
        )
        num = np.array(
            [[joint["q_y1_given_z"][z], 1.0 - joint["q_y1_given_z"][z]] for _, z in cells]
        )
        den = np.array(
            [[joint["p_y1_given_z"][z], 1.0 - joint["p_y1_given_z"][z]] for _, z in cells]
        )
        expected = np.array(
            [bayes_posterior_from_joint(joint["q_joint"], x, z) for x, z in cells]
        )
        result = adjust_posterior(posterior, num, den)
        assert np.max(np.abs(result.posterior - expected)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_common_row_scaling_is_absorbed(scale, seed):
    rng = np.random.default_rng(seed)
    posterior = rng.random((4, 3)) + 0.05
    posterior /= posterior.sum(axis=1, keepdims=True)
    num = rng.random((4, 3)) + 0.05
    den = rng.random((4, 3)) + 0.05
    base = adjust_posterior(posterior, num, den).posterior
    scaled_num = num.copy()
    scaled_num[2] *= scale
    scaled = adjust_posterior(posterior, scaled_num, den).posterior
    assert np.max(np.abs(base - scaled)) < 1e-12


def test_raising_one_ratio_raises_its_probability():
    posterior = np.array([[0.3, 0.5, 0.2]])
    den = np.array([[0.4, 0.4, 0.2]])
    low = adjust_posterior(posterior, np.array([[0.3, 0.4, 0.3]]), den).posterior
    high = adjust_posterior(posterior, np.array([[0.5, 0.4, 0.3]]), den).posterior
    assert high[0, 0] > low[0, 0]
    assert high[0, 1] < low[0, 1]


def test_shape_mismatch_rejected():
    posterior = np.array([[0.5, 0.5]])
    with pytest.raises(ValidationError):
        adjust_posterior(posterior, np.ones((2, 2)), np.ones((1, 2)))
    with pytest.raises(ValidationError):
        adjust_posterior(posterior, np.ones((1, 3)), np.ones((1, 3)))


def test_non_stochastic_posterior_rejected():
    with pytest.raises(ValidationError):
        adjust_posterior(np.array([[0.7, 0.7]]), np.ones((1, 2)), np.ones((1, 2)))


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.5, 0.5], "posterior must be a 2-D matrix, got ndim=1"),
        ([[0.5, 0.5]] * 3, r"posterior shape \(3, 2\) != \(2, 2\)"),
        ([[1.5, -0.5], [0.5, 0.5]], r"entries must lie in \[0, 1\]"),
        ([[math.nan, 1.0], [0.5, 0.5]], "posterior contains non-finite values"),
        ([[0.5, 0.5], [math.nan, math.nan]], "posterior contains non-finite values"),
    ],
    ids=["one-dimensional", "row-count", "entry-above-one", "nan-entry", "nan-row"],
)
def test_check_posterior_rejects(probs, message):
    with pytest.raises(ValidationError, match=message):
        check_posterior(probs, shape=(2, None))


def test_negative_ratio_entries_rejected():
    with pytest.raises(ValidationError):
        adjust_posterior([[0.5, 0.5]], [[-0.1, 1.1]], [[0.5, 0.5]])


def test_non_finite_ratio_entries_rejected():
    posterior = np.array([[0.5, 0.5]])
    with pytest.raises(ValidationError, match="finite"):
        adjust_posterior(posterior, [[np.nan, 1.0]], [[0.5, 0.5]])
    with pytest.raises(ValidationError, match="finite"):
        adjust_posterior(posterior, [[0.5, 0.5]], [[np.inf, 1.0]])


def test_extreme_denominators_survive_clamping():
    posterior = np.array([[0.5, 0.5]])
    result = adjust_posterior(posterior, [[1.0, 1.0]], [[0.0, 1.0]])
    assert np.all(np.isfinite(result.posterior))
    assert result.posterior[0, 0] > 0.99


def test_clamped_conditionals_never_reach_the_ratio_clip():
    # `fit_cpsm` passes q / p of two clamped conditionals to `_reweight`
    # without the floors and the clip. Even at the clamp corners, 1e-12 and
    # 1 - 1e-12, that ratio lies strictly inside [RATIO_MIN, RATIO_MAX], so
    # `adjust_posterior` gives the same bits on those inputs.
    corners = clamp_probs(np.array([0.0, 1.0]))
    assert corners.tolist() == [1e-12, 1.0 - 1e-12]
    num = np.array([[a, b] for a in corners for b in corners])
    den = num[::-1]
    ratio = num / den
    assert ratio.min() == corners[0] / corners[1] and ratio.max() == corners[1] / corners[0]
    assert np.all((RATIO_MIN < ratio) & (ratio < RATIO_MAX))
    posterior = np.full_like(num, 0.5)
    kernel = _reweight(posterior, ratio)
    checked = adjust_posterior(posterior, num, den)
    assert np.array_equal(kernel.posterior, checked.posterior)
    assert np.array_equal(kernel.row_normalizer, checked.row_normalizer)


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_column_divides_are_bitwise_the_broadcast_divides(n_classes):
    # The posterior renormalization and the softmax divide in place by an
    # (n, 1) broadcast of the row sums, which are folded column by column:
    # the same bits as the out-of-place divide by the summed columns.
    rng = np.random.default_rng(n_classes)
    p = rng.dirichlet(np.ones(n_classes), size=501)
    ratio = rng.random((501, n_classes)) + 0.5
    result = _reweight(p, ratio)
    assert np.array_equal(result.posterior, p * ratio / result.row_normalizer[:, None])

    head = 20.0 * rng.standard_normal((501, n_classes - 1))
    scores = np.exp(_shifted_scores(head))
    total = scores[:, 0].copy()
    for k in range(1, n_classes):
        total += scores[:, k]
    assert np.array_equal(_softmax(head), scores / total[:, None])
