import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import (
    LabeledDataset,
    NumericalError,
    SoftmaxParams,
    UnlabeledDataset,
    ValidationError,
    predict_proba,
    softmax,
)
from cpsm.softmax import (
    FitConfig,
    _augment,
    _newton,
    _objective,
    _softmax,
    _two_class_log_probs,
    fit_hard,
    fit_soft,
    log_likelihood,
    log_likelihood_grad,
    one_hot,
)

from helpers import finite_difference_gradient, zero_params


def test_zero_params_give_uniform_probs():
    params = zero_params(3, 2)
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
    params = zero_params(2, 3)
    with pytest.raises(ValidationError):
        predict_proba(params, np.zeros((4, 2)))
    # Parameters of the wrong size or type, and a class count that is no
    # integer, each built directly.
    for args, message in [
        ((3, 2, [0, 0], [1, 2, 3]), "slopes must be a 2-D matrix, got ndim=1"),
        ((2, 1, ["a"], [[1]]), "intercepts must be a vector of numbers"),
        ((2.5, 1, [0], [[1]]), "n_classes must be an integer, got 2.5"),
    ]:
        with pytest.raises(ValidationError, match=message):
            SoftmaxParams(*args)


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


@pytest.mark.parametrize("l2", [0.0, 1e-6, 1e-4])
def test_separable_data_reaches_full_accuracy(l2, monkeypatch):
    # With no ridge the likelihood rises without bound along the separating
    # direction; the eigenvalue floor keeps Newton's steps finite, and the
    # fit stops on its step tolerance, not on `max_iters`.
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.standard_normal(60) - 4.0, rng.standard_normal(60) + 4.0])
    y = np.array([1] * 60 + [2] * 60)
    data = LabeledDataset(z=np.zeros((120, 0)), x=x[:, None], y=y)
    traces = []

    def newton(*args):
        w, trace = _newton(*args)
        traces.append(trace)
        return w, trace

    monkeypatch.setattr(softmax, "_newton", newton)
    config = FitConfig(l2_penalty=l2)
    params = fit_hard(data, config)
    assert np.all(np.isfinite(params.weight_matrix()))
    pred = np.argmax(predict_proba(params, x[:, None]), axis=1) + 1
    assert np.mean(pred == y) == 1.0
    [trace] = traces
    if l2 == 0.0:
        assert len(trace) - 1 < config.max_iters


def test_single_class_rejected():
    data = LabeledDataset(z=np.zeros((5, 0)), x=np.ones((5, 1)), y=np.ones(5, dtype=int))
    with pytest.raises(ValidationError, match="degenerate"):
        fit_hard(data, FitConfig())


def test_non_finite_features_rejected():
    with pytest.raises(ValidationError):
        LabeledDataset(z=np.zeros((2, 0)), x=np.array([[1.0], [np.nan]]), y=np.array([1, 2]))
    # Nor are cells that are no numbers, or rows of unequal length.
    for z in [[["a"]], [[1.0], [1.0, 2.0]]]:
        with pytest.raises(ValidationError, match="z must be a matrix of numbers"):
            UnlabeledDataset(z=z, x=np.zeros((len(z), 1)))
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
    # A NaN target row is bad input, not a non-finite objective.
    with pytest.raises(ValidationError, match="soft targets contains non-finite values"):
        fit_soft(np.zeros((2, 1)), np.array([[np.nan, np.nan], [0.5, 0.5]]), FitConfig())


def test_log_likelihood_fair_coin():
    params = zero_params(2, 0)
    value = log_likelihood(params, np.zeros((1, 0)), np.array([[0.5, 0.5]]))
    assert value == pytest.approx(-math.log(2.0), abs=1e-12)


def test_log_likelihood_one_hot_reference_class():
    params = zero_params(4, 0)
    target = np.array([[0.0, 0.0, 0.0, 1.0]])
    value = log_likelihood(params, np.zeros((1, 0)), target)
    assert value == pytest.approx(-math.log(4.0), abs=1e-12)


def _gradient_cases():
    """(features, targets, flat weights) at which to check the gradient."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(0, 6))
        n_classes = int(rng.integers(2, 5))
        feats = rng.standard_normal((n, d))
        targets = rng.random((n, n_classes)) + 0.05
        targets /= targets.sum(axis=1, keepdims=True)
        yield feats, targets, rng.standard_normal((n_classes - 1) * (d + 1))
    # K = 3 with class 1, every row's target, at probability 4e-18 and at
    # one that underflows to 0: a value taken from probabilities clamped at
    # 1e-12 would not move with its intercept, whose gradient is 2.
    for intercept in (-40.0, -800.0):
        yield np.zeros((2, 0)), np.tile([1.0, 0.0, 0.0], (2, 1)), np.array([intercept, 0.0])


def test_gradient_matches_central_differences():
    for feats, targets, flat0 in _gradient_cases():
        d, n_classes = feats.shape[1], targets.shape[1]

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
        value, grad, _ = _objective(w, aug, targets, weights, 0.0)
        ref_value = float(np.sum(weights[:, None] * targets * np.log(probs)))
        ref_grad = ((targets[:, :1] - probs[:, :1]) * weights[:, None]).T @ aug
        assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
        assert grad.shape == ref_grad.shape
        assert np.linalg.norm(grad - ref_grad) <= 1e-10 * max(np.linalg.norm(ref_grad), 1e-12)


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
    params = zero_params(3, 2)
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
    params = zero_params(2, 1)
    with pytest.raises(ValueError):
        params.intercepts[0] = 1.0


def test_warm_start_shape_mismatch_rejected():
    init = zero_params(2, 3)
    with pytest.raises(ValidationError):
        fit_soft(np.zeros((4, 2)), np.tile([0.5, 0.5], (4, 1)), FitConfig(), init=init)


@pytest.mark.parametrize(
    "intercepts, message",
    [([0.5], r"intercepts shape \(1,\) != \(2,\)"), ([0.5, math.nan], "intercepts contains non-finite values")],
    ids=["intercepts-shape", "intercept-nan"],
)
def test_bad_parameters_rejected(intercepts, message):
    with pytest.raises(ValidationError, match=message):
        SoftmaxParams(3, 1, np.array(intercepts), np.zeros((2, 1)))


@pytest.mark.parametrize(
    "sample_weights, message",
    [([1.0, 1.0], r"sample_weights shape \(2,\) != \(3,\)"),
     ([1.0, -1.0, 1.0], "sample_weights must be finite and nonnegative")],
    ids=["length", "negative"],
)
def test_bad_sample_weights_rejected(sample_weights, message):
    with pytest.raises(ValidationError, match=message):
        fit_soft(np.zeros((3, 1)), np.full((3, 2), 0.5), FitConfig(), sample_weights=sample_weights)


def test_newton_rejects_a_non_finite_start():
    objective = lambda w: (math.nan, np.zeros_like(w), np.zeros((w.size, w.size)))
    with pytest.raises(NumericalError, match="non-finite objective at initialization"):
        _newton(objective, np.zeros((1, 2)), FitConfig())


def test_label_gap_rejected_naming_the_label():
    # Labels {1, 3}: class 2 has no rows, and a fit would drive its intercept
    # towards minus infinity instead of reporting the gap.
    rng = np.random.default_rng(4)
    data = LabeledDataset(
        z=np.zeros((40, 0)), x=rng.standard_normal((40, 2)), y=np.array([1, 3] * 20)
    )
    with pytest.raises(ValidationError, match=r"no rows have label 2\b.*1\.\.3"):
        fit_hard(data, FitConfig())


@pytest.mark.parametrize(
    "labels, named",
    [
        ([1, 4], "2, 3"),
        ([1, 2, 7], "3, 4, 5, 6"),
        ([2, 9], "1, 3, 4, 5, 6, ... (7 labels in all)"),
    ],
)
def test_label_gap_message_names_only_missing_labels(labels, named):
    # Only labels in 1..K are missing; none above the largest is named.
    y = np.array(labels * 2)
    data = LabeledDataset(z=np.zeros((y.size, 0)), x=np.zeros((y.size, 1)), y=y)
    with pytest.raises(ValidationError) as caught:
        fit_hard(data, FitConfig())
    assert str(caught.value) == f"no rows have label {named}: labels must cover 1..{max(labels)}"


def test_label_gap_check_is_sized_by_the_rows_not_the_largest_label():
    # Labels {1, 2, 10^7}: counting every label up to the largest would
    # allocate 10^7 counts and name 9,999,997 labels in the error.
    data = LabeledDataset(z=np.zeros((3, 0)), x=np.zeros((3, 1)), y=np.array([1, 2, 10_000_000]))
    # numpy keeps about 1 MB from the first np.unique call in a process,
    # whatever its input; make that call before measuring.
    with pytest.raises(ValidationError):
        fit_hard(data, FitConfig())
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"no rows have label 3, 4,") as caught:
            fit_hard(data, FitConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(caught.value)
    assert "9999997" in message and len(message) < 200
    assert peak < 2**20


def _soft_problem(rng, n, d, n_classes):
    """Random features, soft targets kept away from 0 and positive weights."""
    feats = rng.standard_normal((n, d))
    targets = rng.random((n, n_classes)) + 0.05
    targets /= targets.sum(axis=1, keepdims=True)
    return _augment(feats), targets, rng.random(n) * 2.0 + 0.1


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_hessian_matches_finite_differences_of_the_gradient(n_classes, l2):
    # As acceptance criterion 03 checks the gradient against the value:
    # each Hessian column against central differences of the gradient.
    rng = np.random.default_rng(100 + n_classes)
    for _ in range(10):
        n, d = int(rng.integers(2, 51)), int(rng.integers(0, 6))
        aug, targets, weights = _soft_problem(rng, n, d, n_classes)
        flat0 = rng.standard_normal((n_classes - 1) * (d + 1))
        shape = (n_classes - 1, d + 1)

        def grad(flat):
            return _objective(flat.reshape(shape), aug, targets, weights, l2)[1].ravel()

        hess = _objective(flat0.reshape(shape), aug, targets, weights, l2)[2]()
        assert hess.shape == (flat0.size, flat0.size)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
        numeric = np.column_stack([
            finite_difference_gradient(lambda flat: grad(flat)[i], flat0) for i in range(flat0.size)
        ])
        rel = np.linalg.norm(hess - numeric) / max(np.linalg.norm(hess), 1e-12)
        assert rel < 1e-5


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_newton_trace_is_non_decreasing(n_classes, l2):
    # The solver behind `fit_soft`, from a start far from the optimum.
    rng = np.random.default_rng(17)
    aug, targets, weights = _soft_problem(rng, 80, 3, n_classes)
    objective = lambda w: _objective(w, aug, targets, weights, l2)
    w0 = 5.0 * rng.standard_normal((n_classes - 1, 4))
    _, trace = _newton(objective, w0, FitConfig(l2_penalty=l2))
    assert len(trace) > 2
    assert np.all(np.diff(trace) >= 0.0)


@pytest.mark.parametrize(
    "targets_neg, targets_pos",
    [([1.0, 0.0], [0.0, 1.0]), ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5])],
)
def test_separated_soft_targets_give_finite_weights(targets_neg, targets_pos):
    # The sign of x separates class 1 from the rest, so with no ridge the
    # likelihood rises without bound along one direction. Newton's eigenvalue
    # floor keeps every step finite, and the fit stops with finite weights.
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.standard_normal(60) - 4.0, rng.standard_normal(60) + 4.0])
    targets = np.array([targets_neg] * 60 + [targets_pos] * 60)
    params = fit_soft(x[:, None], targets, FitConfig(l2_penalty=0.0))
    assert np.all(np.isfinite(params.weight_matrix()))
    probs = predict_proba(params, x[:, None])
    assert np.all(probs[:60, 0] > 0.999) and np.all(probs[60:, 0] < 0.001)


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_warm_start_at_the_optimum_stays_put(n_classes):
    rng = np.random.default_rng(19)
    feats = rng.standard_normal((120, 3))
    targets = rng.random((120, n_classes)) + 0.1
    targets /= targets.sum(axis=1, keepdims=True)
    config = FitConfig(l2_penalty=0.0)
    fitted = fit_soft(feats, targets, config)
    again = fit_soft(feats, targets, config, init=fitted)
    moved = np.max(np.abs(again.weight_matrix() - fitted.weight_matrix()))
    assert moved < config.tolerance


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_intercept_only_soft_fit_matches_closed_form(n_classes):
    # With no features the optimum is known: intercept k is
    # log(mean t_k / mean t_K), whatever the spread of the rows.
    rng = np.random.default_rng(29)
    targets = rng.random((500, n_classes)) ** 3 + 0.01
    targets /= targets.sum(axis=1, keepdims=True)
    params = fit_soft(np.zeros((500, 0)), targets, FitConfig(l2_penalty=0.0))
    mean = targets.mean(axis=0)
    assert np.max(np.abs(params.intercepts - np.log(mean[:-1] / mean[-1]))) < 1e-12


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_hard_fit_stops_at_a_stationary_point(n_classes):
    # The penalized gradient vanishes at the optimum, well below the step
    # tolerance: Newton converges quadratically near it.
    rng = np.random.default_rng(31)
    feats = rng.standard_normal((3000, 4))
    slopes = rng.standard_normal((n_classes, 4))
    gumbel = -np.log(-np.log(rng.random((3000, n_classes))))
    y = np.argmax(feats @ slopes.T + gumbel, axis=1) + 1
    data = LabeledDataset(z=feats[:, :1], x=feats[:, 1:], y=y)
    config = FitConfig()
    params = fit_hard(data, config)
    _, g, _ = _objective(
        params.weight_matrix(), _augment(feats), one_hot(y, n_classes), np.ones(3000),
        config.l2_penalty,
    )
    assert np.max(np.abs(g)) < 1e-7


@pytest.mark.parametrize("n_classes", [2, 3])
def test_objective_memory_is_below_one_copy_of_the_rows(n_classes):
    # The Hessian sums its rows in blocks: one call's temporaries stay below
    # the n x (1+d) doubles of one weighted copy of the augmented rows.
    rng = np.random.default_rng(37)
    n, d = 50_000, 16
    aug, targets, weights = _soft_problem(rng, n, d, n_classes)
    w = 0.1 * rng.standard_normal((n_classes - 1, 1 + d))
    tracemalloc.start()
    try:
        _objective(w, aug, targets, weights, 1e-6)[2]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (1 + d) * 8


def test_newton_stops_cleanly_where_the_hessian_underflows():
    # At a score of 800, p1 p2 = exp(-800) underflows to 0, so the Hessian
    # is exactly zero while the gradient is not: no finite Newton step
    # exists. The solver stops there, with no numpy warning (an error under
    # this suite's settings) and no NaN.
    aug, targets = _augment(np.zeros((1, 0))), np.array([[0.5, 0.5]])
    objective = lambda w: _objective(w, aug, targets, np.ones(1), 0.0)
    assert np.all(objective(np.array([[800.0]]))[2]() == 0.0)
    w, trace = _newton(objective, np.array([[800.0]]), FitConfig(l2_penalty=0.0))
    assert np.all(np.isfinite(w)) and np.all(np.diff(trace) >= 0.0)


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_softmax_kernel_matches_the_axis_reductions(n_classes):
    # The row max and sum are folded column by column. numpy's axis=1 sum
    # is pairwise over 8 accumulators from K = 8 on, so only K <= 7 is
    # bitwise; every K sums to 1 within a few ulps.
    rng = np.random.default_rng(n_classes)
    head = rng.standard_normal((500, n_classes - 1)) * 10.0 ** rng.uniform(-3, 2.5, (500, 1))
    probs = _softmax(head)
    scores = np.hstack([head, np.zeros((500, 1))])
    scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    reference = scores / scores.sum(axis=1, keepdims=True)
    if n_classes <= 7:
        assert np.array_equal(probs, reference)
    else:
        assert np.max(np.abs(probs - reference)) <= 4 * np.finfo(float).eps
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-15


def test_two_class_log_probs_match_logaddexp():
    # One log1p(exp(-|s|)) pass gives both log-probabilities, within 2 ulp of
    # the two logaddexp passes it replaced, with no overflow, invalid value
    # or division by zero from the tiny to the far out scores.
    mags = np.array([0.0, 1e-300, 1.0, 20.0, 37.0, 40.0, 709.0, 745.0, 800.0])
    scores = np.concatenate([mags, -mags])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        log_p1, log_p2 = _two_class_log_probs(scores)
        total = np.exp(log_p1) + np.exp(log_p2)
    for got, want in ((log_p1, -np.logaddexp(0.0, -scores)), (log_p2, -np.logaddexp(0.0, scores))):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    assert np.max(np.abs(total - 1.0)) <= 1e-15


@pytest.mark.parametrize("n_classes", [2, 3])
def test_log_likelihood_builds_no_hessian(n_classes, monkeypatch):
    # `log_likelihood` and its gradient take `_objective`'s value and
    # gradient, bit for bit, without its Hessian sums.
    rng = np.random.default_rng(41 + n_classes)
    n, d = 200, 4
    feats = rng.standard_normal((n, d))
    targets = rng.random((n, n_classes)) + 0.05
    targets /= targets.sum(axis=1, keepdims=True)
    params = SoftmaxParams.from_weight_matrix(n_classes, rng.standard_normal((n_classes - 1, 1 + d)))
    w, aug, weights = params.weight_matrix(), _augment(feats), rng.random(n) + 0.1
    full = _objective(w, aug, targets, np.ones(n), 0.0)
    ridged = _objective(w, aug, targets, weights, 1e-3)

    def no_gram(*args):
        raise AssertionError("the Hessian was built")

    monkeypatch.setattr(softmax, "_gram", no_gram)
    assert log_likelihood(params, feats, targets) == full[0]
    gi, gs = log_likelihood_grad(params, feats, targets)
    assert np.array_equal(np.hstack([gi[:, None], gs]), full[1])
    value, grad, hessian = _objective(w, aug, targets, weights, 1e-3)
    assert value == ridged[0] and np.array_equal(grad, ridged[1])
    with pytest.raises(AssertionError, match="the Hessian was built"):
        hessian()


def _far_start(n_classes):
    """Features, soft targets and a warm start far from their optimum, from
    which the line search rejects trials."""
    rng = np.random.default_rng(43)
    feats = rng.standard_normal((80, 3))
    targets = rng.random((80, n_classes)) + 0.05
    targets /= targets.sum(axis=1, keepdims=True)
    init = SoftmaxParams.from_weight_matrix(
        n_classes, 8.0 * rng.standard_normal((n_classes - 1, 4))
    )
    return feats, targets, init


@pytest.mark.parametrize("n_classes", [2, 3])
def test_newton_builds_one_hessian_per_step_it_solves(n_classes, monkeypatch):
    # From a far start the line search rejects trials. Only the points whose
    # step is solved build a Hessian, (K-1)K/2 `_gram` sums each: no rejected
    # trial and not the last iterate. The log-likelihood routes build none.
    feats, targets, init = _far_start(n_classes)
    counts = {"_gram": 0, "_newton_direction": 0, "_objective": 0}

    def counted(name):
        fn = getattr(softmax, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(softmax, name, counted(name))
    fitted = fit_soft(feats, targets, FitConfig(), init=init)
    # Each search accepts at most one trial, so more evaluations than the
    # start plus one per search means some trial was rejected.
    assert counts["_objective"] > 1 + counts["_newton_direction"] > 2
    assert counts["_gram"] == counts["_newton_direction"] * (n_classes - 1) * n_classes // 2
    counts["_gram"] = 0
    log_likelihood(fitted, feats, targets)
    log_likelihood_grad(fitted, feats, targets)
    assert counts["_gram"] == 0


@pytest.mark.parametrize("route", ["fit_soft", "log_likelihood", "log_likelihood_grad"])
@pytest.mark.parametrize("n_classes, n_features", [(3, 2), (2, 3)], ids=["classes", "features"])
def test_a_model_of_another_shape_is_rejected_naming_both(route, n_classes, n_features):
    # The problem has 2 classes and 2 features; the model differs in one.
    feats, targets = np.zeros((4, 2)), np.full((4, 2), 0.5)
    model = SoftmaxParams.from_weight_matrix(n_classes, np.zeros((n_classes - 1, 1 + n_features)))
    calls = {
        "fit_soft": lambda: fit_soft(feats, targets, FitConfig(), init=model),
        "log_likelihood": lambda: log_likelihood(model, feats, targets),
        "log_likelihood_grad": lambda: log_likelihood_grad(model, feats, targets),
    }
    # The model's sizes fix the shapes read: the array it differs on is named.
    message = f"{'soft targets' if n_classes == 3 else 'features'} shape (4, 2) != (4, 3)"
    with pytest.raises(ValidationError) as caught:
        calls[route]()
    assert str(caught.value) == message


@pytest.mark.parametrize("n_classes", [2, 3])
def test_no_hessian_builder_lives_on_into_the_next_evaluation(n_classes, monkeypatch):
    # A builder holds arrays of the rows (log p1 p2, or p). Neither the
    # current point's builder, once built, nor a rejected trial's may stay
    # alive while the line search evaluates its next trial.
    feats, targets, init = _far_start(n_classes)
    objective, builders, alive = softmax._objective, [], []

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in builders))
        value, grad, hessian = objective(*args)
        builders.append(weakref.ref(hessian))
        return value, grad, hessian

    monkeypatch.setattr(softmax, "_objective", tracked)
    fit_soft(feats, targets, FitConfig(), init=init)
    assert len(alive) > 2 and alive == [0] * len(alive)
