import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import (
    FitConfig,
    LabeledDataset,
    SynthConfig,
    ValidationError,
    approximation_error,
    balanced_accuracy,
    classify,
    fit_oracle,
    generate_pair,
)


def test_threshold_half_splits_on_larger_probability():
    posterior = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert classify(posterior, 0.5).tolist() == [1, 2]


def test_low_threshold_flags_rare_class():
    # Imbalance-aware rule: class-1 probability 0.07 beats a 0.05 threshold.
    posterior = np.array([[0.07, 0.93]])
    assert classify(posterior, 0.05).tolist() == [1]


def test_exact_threshold_goes_to_class_two():
    posterior = np.array([[0.05, 0.95]])
    assert classify(posterior, 0.05).tolist() == [2]


def test_argmax_rule_breaks_ties_low():
    posterior = np.array([[0.4, 0.4, 0.2], [0.2, 0.3, 0.5]])
    assert classify(posterior).tolist() == [1, 3]


def test_threshold_requires_binary():
    posterior = np.array([[0.2, 0.3, 0.5]])
    with pytest.raises(ValidationError):
        classify(posterior, 0.5)
    with pytest.raises(ValidationError):
        classify(np.array([[0.5, 0.5]]), 1.5)


@pytest.mark.parametrize("threshold", [None, 0.5])
def test_a_nan_posterior_row_is_rejected_not_labeled(threshold):
    # Every comparison with NaN is false, so a NaN row used to pass the
    # posterior check and come out as label 2.
    with pytest.raises(ValidationError, match="posterior contains non-finite values"):
        classify(np.array([[0.6, 0.4], [np.nan, np.nan]]), threshold)


def test_threshold_half_agrees_with_argmax_off_boundary():
    rng = np.random.default_rng(4)
    p1 = rng.random(200)
    p1 = np.where(np.abs(p1 - 0.5) < 1e-6, 0.25, p1)
    posterior = np.column_stack([p1, 1.0 - p1])
    assert np.array_equal(classify(posterior, 0.5), classify(posterior))


def test_perfect_predictions_score_one():
    y = np.array([1, 2, 1, 2, 2])
    assert balanced_accuracy(y, y) == 1.0


def test_constant_predictor_scores_half():
    y_true = np.array([1, 1, 2, 2, 2, 2])
    y_pred = np.ones(6, dtype=int)
    assert balanced_accuracy(y_true, y_pred) == 0.5


def test_mean_of_recalls():
    # Class-1 recall 0.9 (9 of 10), class-2 recall 0.7 (7 of 10).
    y_true = np.array([1] * 10 + [2] * 10)
    y_pred = np.array([1] * 9 + [2] + [2] * 7 + [1] * 3)
    assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.8, abs=1e-12)


def test_missing_true_class_is_an_error():
    with pytest.raises(ValidationError, match="undefined recall"):
        balanced_accuracy(np.array([1, 1, 1]), np.array([1, 2, 1]))


@pytest.mark.parametrize(
    "y_true, y_pred, message",
    [([1, 2, 1], [1, 2], r"^y_pred shape \(2,\) != \(3,\)$"), ([], [], "y_true are empty")],
    ids=["unequal-length", "empty"],
)
def test_balanced_accuracy_rejects(y_true, y_pred, message):
    with pytest.raises(ValidationError, match=message):
        balanced_accuracy(np.array(y_true), np.array(y_pred))


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    y_true = rng.integers(1, 3, 60)
    y_true[:2] = [1, 2]
    y_pred = rng.integers(1, 3, 60)
    y_pred[:2] = [2, 1]
    swapped = lambda v: np.where(v == 1, 2, 1)
    assert balanced_accuracy(y_true, y_pred) == pytest.approx(
        balanced_accuracy(swapped(y_true), swapped(y_pred)), abs=1e-12
    )


def test_identical_posteriors_have_zero_error():
    p = np.array([[0.3, 0.7], [0.9, 0.1]])
    assert approximation_error(p, p) == 0.0


def test_constant_gap():
    a = np.tile([0.5, 0.5], (5, 1))
    b = np.tile([0.6, 0.4], (5, 1))
    assert approximation_error(a, b) == pytest.approx(0.1, abs=1e-12)


def test_mean_of_row_gaps():
    a = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    b = np.array([[0.7, 0.3], [0.5, 0.5], [0.6, 0.4]])
    assert approximation_error(a, b) == pytest.approx(0.1, abs=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        approximation_error(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        p = rng.random((6, 2)) + 0.01
        mats.append(p / p.sum(axis=1, keepdims=True))
    a, b, c = mats
    assert approximation_error(a, c) <= (
        approximation_error(a, b) + approximation_error(b, c) + 1e-12
    )


def test_oracle_against_itself_is_exact():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=300, n_target=300, shift_slope=1.0,
        target_prior=0.3, seed=13,
    )
    _, target = generate_pair(config)
    oracle = fit_oracle(target, FitConfig())
    assert approximation_error(oracle, oracle) == 0.0


def test_oracle_requires_labels_with_both_classes():
    data = LabeledDataset(z=np.zeros((4, 1)), x=np.ones((4, 1)), y=np.array([2, 2, 2, 2]))
    with pytest.raises(ValidationError):
        fit_oracle(data, FitConfig())


def test_without_shift_corrected_and_uncorrected_errors_are_close():
    import numpy as np

    from cpsm import EmConfig, SoftmaxParams
    from cpsm.bench import run_single
    from helpers import GaussianGenConfig, generate_gaussian_family

    cond = SoftmaxParams(2, 3, np.array([-0.5]), np.array([[0.6, -0.4, 0.2]]))
    family = GaussianGenConfig(
        mixing_matrix=np.array(
            [[0.3, 0.1, 0.0], [0.0, 0.2, -0.1], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ),
        class_offsets=np.array([[1.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        conditional_params=cond,
    )
    source = generate_gaussian_family(family, 5000, seed=2)
    target = generate_gaussian_family(family, 5000, seed=1002)
    results = run_single(source, target, ["naive", "cpsm"], EmConfig(), False)
    assert abs(results["naive"][1] - results["cpsm"][1]) < 0.02
