import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import LabeledDataset, SoftmaxParams, ValidationError, predict_proba
from cpsm.softmax import (
    FitConfig,
    _maximize,
    _objective,
    fit_hard,
    fit_soft,
    log_likelihood,
    log_likelihood_grad,
    one_hot,
)

from helpers import finite_difference_gradient


def test_zero_params_give_uniform_probs():
    params = SoftmaxParams.zeros(3, 2)
    probs = predict_proba(params, np.array([[1.5, -2.0], [0.0, 4.0]]))
    assert np.allclose(probs, 1.0 / 3.0)


def test_binary_zero_intercept_is_half():
    params = SoftmaxParams(2, 0, np.array([0.0]), np.zeros((1, 0)))
    probs = predict_proba(params, np.zeros((1, 0)))
    assert probs[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_binary_logistic_value():
    params = SoftmaxParams(2, 1, np.array([0.0]), np.array([[1.0]]))
    probs = predict_proba(params, np.array([[2.0]]))
    assert probs[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_large_scores_do_not_overflow():
    params = SoftmaxParams(2, 1, np.array([0.0]), np.array([[700.0]]))
    probs = predict_proba(params, np.array([[1.0], [-1.0]]))
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert probs[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    params = SoftmaxParams.zeros(2, 3)
    with pytest.raises(ValidationError):
        predict_proba(params, np.zeros((4, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 5), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_rows_always_sum_to_one(n_classes, n_features, n_rows, seed):
    rng = np.random.default_rng(seed)
    params = SoftmaxParams(
        n_classes,
        n_features,
        10.0 * rng.standard_normal(n_classes - 1),
        10.0 * rng.standard_normal((n_classes - 1, n_features)),
    )
    probs = predict_proba(params, rng.standard_normal((n_rows, n_features)))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(probs >= 0.0)


def test_reference_class_invariance():
    # Scores with an explicit K-th row equal to a constant shift must give
    # the same probabilities as the reference-form parameters.
    rng = np.random.default_rng(5)
    params = SoftmaxParams(3, 2, rng.standard_normal(2), rng.standard_normal((2, 2)))
    feats = rng.standard_normal((20, 2))
    shift_intercept = 0.7
    shift_slope = np.array([-1.3, 0.4])

    scores = np.hstack(
        [feats @ params.slopes.T + params.intercepts, np.zeros((20, 1))]
    )
    shifted = scores + (feats @ shift_slope + shift_intercept)[:, None]
    shifted -= shifted.max(axis=1, keepdims=True)
    explicit = np.exp(shifted)
    explicit /= explicit.sum(axis=1, keepdims=True)

    assert np.max(np.abs(explicit - predict_proba(params, feats))) < 1e-12


def test_intercept_only_hard_fit_matches_closed_form():
    y = np.array([1] * 300 + [2] * 700)
    data = LabeledDataset(z=np.zeros((1000, 0)), x=np.zeros((1000, 0)), y=y)
    params = fit_hard(data, FitConfig(l2_penalty=0.0))
    fitted = predict_proba(params, np.zeros((1, 0)))[0, 0]
    assert fitted == pytest.approx(0.3, abs=1e-4)
    assert params.intercepts[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-4)


def test_symmetric_data_gives_zero_intercept():
    rng = np.random.default_rng(0)
    half = rng.standard_normal((200, 2)) + np.array([1.0, -0.5])
    feats = np.vstack([half, -half])
    y = np.array([1] * 200 + [2] * 200)
    data = LabeledDataset(z=np.zeros((400, 0)), x=feats, y=y)
    params = fit_hard(data, FitConfig())
    assert abs(params.intercepts[0]) < 1e-3


def test_separable_data_reaches_full_accuracy():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.standard_normal(60) - 4.0, rng.standard_normal(60) + 4.0])
    y = np.array([1] * 60 + [2] * 60)
    data = LabeledDataset(z=np.zeros((120, 0)), x=x[:, None], y=y)
    params = fit_hard(data, FitConfig(l2_penalty=1e-4))
    pred = np.argmax(predict_proba(params, x[:, None]), axis=1) + 1
    assert np.mean(pred == y) == 1.0


def test_single_class_rejected():
    data = LabeledDataset(z=np.zeros((5, 0)), x=np.ones((5, 1)), y=np.ones(5, dtype=int))
    with pytest.raises(ValidationError, match="degenerate"):
        fit_hard(data, FitConfig())


def test_non_finite_features_rejected():
    with pytest.raises(ValidationError):
        LabeledDataset(z=np.zeros((2, 0)), x=np.array([[1.0], [np.nan]]), y=np.array([1, 2]))
    with pytest.raises(ValidationError):
        fit_soft(np.array([[np.inf]]), np.array([[0.5, 0.5]]), FitConfig())


def test_one_hot_soft_fit_matches_hard_fit():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((150, 2))
    y = rng.integers(1, 4, 150)
    data = LabeledDataset(z=np.zeros((150, 0)), x=feats, y=y)
    targets = one_hot(y, 3)
    hard = fit_hard(data, FitConfig())
    soft = fit_soft(feats, targets, FitConfig())
    assert abs(
        log_likelihood(hard, feats, targets) - log_likelihood(soft, feats, targets)
    ) < 1e-6


def test_uniform_targets_give_zero_intercepts():
    targets = np.full((400, 3), 1.0 / 3.0)
    params = fit_soft(np.zeros((400, 0)), targets, FitConfig(l2_penalty=0.0))
    assert np.max(np.abs(params.intercepts)) < 1e-4


def test_constant_soft_targets_fit_their_mean():
    targets = np.tile([0.7, 0.3], (300, 1))
    params = fit_soft(np.zeros((300, 0)), targets, FitConfig(l2_penalty=0.0))
    fitted = predict_proba(params, np.zeros((1, 0)))[0, 0]
    assert fitted == pytest.approx(0.7, abs=1e-4)


def test_bad_target_rows_rejected():
    with pytest.raises(ValidationError, match="sum"):
        fit_soft(np.zeros((2, 1)), np.array([[0.7, 0.2], [0.5, 0.5]]), FitConfig())


def test_log_likelihood_fair_coin():
    params = SoftmaxParams.zeros(2, 0)
    value = log_likelihood(params, np.zeros((1, 0)), np.array([[0.5, 0.5]]))
    assert value == pytest.approx(-math.log(2.0), abs=1e-12)


def test_log_likelihood_one_hot_reference_class():
    params = SoftmaxParams.zeros(4, 0)
    target = np.array([[0.0, 0.0, 0.0, 1.0]])
    value = log_likelihood(params, np.zeros((1, 0)), target)
    assert value == pytest.approx(-math.log(4.0), abs=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(0, 6))
        n_classes = int(rng.integers(2, 5))
        feats = rng.standard_normal((n, d))
        targets = rng.random((n, n_classes)) + 0.05
        targets /= targets.sum(axis=1, keepdims=True)
        flat0 = rng.standard_normal((n_classes - 1) * (d + 1))

        def value(flat):
            w = flat.reshape(n_classes - 1, d + 1)
            params = SoftmaxParams(n_classes, d, w[:, 0], w[:, 1:])
            return log_likelihood(params, feats, targets)

        w0 = flat0.reshape(n_classes - 1, d + 1)
        gi, gs = log_likelihood_grad(
            SoftmaxParams(n_classes, d, w0[:, 0], w0[:, 1:]), feats, targets
        )
        analytic = np.hstack([gi[:, None], gs]).ravel()
        numeric = finite_difference_gradient(value, flat0)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        assert rel < 1e-5


def test_binary_fast_path_matches_general_formula():
    # The two-class objective runs on flat logaddexp scores; check its value
    # and gradient against the K-class formulas on the same inputs.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        d = int(rng.integers(0, 6))
        feats = rng.standard_normal((n, d))
        aug = np.hstack([np.ones((n, 1)), feats])
        targets = rng.random((n, 2)) + 0.05
        targets /= targets.sum(axis=1, keepdims=True)
        weights = rng.random(n) * 2.0
        w = rng.standard_normal((1, 1 + d))
        probs = predict_proba(SoftmaxParams.from_weight_matrix(2, w), feats)
        value, grad = _objective(w, aug, targets, weights, 0.0)
        ref_value = float(np.sum(weights[:, None] * targets * np.log(probs)))
        ref_grad = ((targets[:, :1] - probs[:, :1]) * weights[:, None]).T @ aug
        assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
        assert grad.shape == ref_grad.shape
        assert np.linalg.norm(grad - ref_grad) <= 1e-10 * max(np.linalg.norm(ref_grad), 1e-12)


@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_objective_trace_is_monotone(l2):
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((80, 3))
    targets = rng.random((80, 3)) + 0.1
    targets /= targets.sum(axis=1, keepdims=True)
    trace: list = []
    fit_soft(feats, targets, FitConfig(l2_penalty=l2), _trace=trace)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-10)


def test_warm_start_never_hurts_objective():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((60, 2))
    targets = rng.random((60, 2)) + 0.2
    targets /= targets.sum(axis=1, keepdims=True)
    init = SoftmaxParams(2, 2, np.array([0.4]), np.array([[-0.8, 0.3]]))
    fitted = fit_soft(feats, targets, FitConfig(max_iters=25), init=init)
    assert log_likelihood(fitted, feats, targets) >= log_likelihood(init, feats, targets)


def test_sample_weights_reweight_the_fit():
    # Class 1 carries twice the weight, so the intercept-only fit lands at 2/3.
    params = fit_soft(
        np.zeros((2, 0)), one_hot(np.array([1, 2]), 2), FitConfig(l2_penalty=0.0),
        sample_weights=[2, 1],
    )
    fitted = predict_proba(params, np.zeros((1, 0)))[0, 0]
    assert fitted == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_log_likelihood_shape_mismatch_rejected():
    params = SoftmaxParams.zeros(3, 2)
    with pytest.raises(ValidationError):
        log_likelihood(params, np.zeros((2, 2)), np.full((2, 2), 0.5))
    with pytest.raises(ValidationError):
        log_likelihood(params, np.zeros((2, 1)), np.full((2, 3), 1.0 / 3.0))


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(max_iters=0)
    with pytest.raises(ValidationError):
        FitConfig(tolerance=0.0)
    with pytest.raises(ValidationError):
        FitConfig(l2_penalty=-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            FitConfig(tolerance=value)
        with pytest.raises(ValidationError, match="l2_penalty must be nonnegative and finite"):
            FitConfig(l2_penalty=value)
    # `nan < 1` is false, so a NaN passed a plain range test.
    for value in (math.nan, 2.5):
        with pytest.raises(ValidationError, match="max_iters must be an integer"):
            FitConfig(max_iters=value)


def test_params_are_immutable():
    params = SoftmaxParams.zeros(2, 1)
    with pytest.raises(ValueError):
        params.intercepts[0] = 1.0


def test_warm_start_shape_mismatch_rejected():
    init = SoftmaxParams.zeros(2, 3)
    with pytest.raises(ValidationError):
        fit_soft(np.zeros((4, 2)), np.tile([0.5, 0.5], (4, 1)), FitConfig(), init=init)


def test_label_gap_rejected_naming_the_label():
    # Labels {1, 3}: class 2 has no rows, and a fit would drive its intercept
    # towards minus infinity instead of reporting the gap.
    rng = np.random.default_rng(4)
    data = LabeledDataset(
        z=np.zeros((40, 0)), x=rng.standard_normal((40, 2)), y=np.array([1, 3] * 20)
    )
    with pytest.raises(ValidationError, match=r"no rows have label 2\b.*1\.\.3"):
        fit_hard(data, FitConfig())


def test_underflowed_curvature_pair_is_skipped():
    # exp(-w) flattens out as the ascent runs: once the gradient difference
    # y is below about 1e-162, y @ y underflows to 0, and a curvature pair
    # stored with it would divide by zero in the two-loop scaling.
    w, trace = _maximize(
        lambda w: (float(-np.exp(-w[0, 0])), np.exp(-w)), np.zeros((1, 1)), FitConfig()
    )
    assert np.all(np.isfinite(w)) and w[0, 0] > 300.0
    assert np.all(np.diff(trace) >= 0.0)
