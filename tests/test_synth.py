import math
from fractions import Fraction

import numpy as np
import pytest

from cpsm import (
    EmConfig,
    FitConfig,
    LabeledDataset,
    ShiftProtocolConfig,
    SoftmaxParams,
    SynthConfig,
    ValidationError,
    calibrate_intercept,
    generate_pair,
    induce_conditional_shift,
    predict_proba,
)
from cpsm.data import read_dataset_csv, read_labels_csv, write_dataset_csv, write_labels_csv

from helpers import (
    GaussianGenConfig,
    enumerate_bernoulli_expectation,
    gaussian_bayes_posterior,
    gaussian_family_posterior,
    gaussian_ramp_expectation,
    generate_gaussian_family,
)

# Frozen output of the quadrature calibration (slope 5, prior 0.05, 5 Gaussian
# conditioning dims); guards against regressions in the rule or the
# bisection. Derived independently with scipy, which the tests do not use:
# brentq(lambda t: quad(lambda z: norm.pdf(z) * expit(t + 5 * sqrt(5) * z),
# -12, 12, points=[-t / (5 * sqrt(5))], epsabs=1e-15, epsrel=1e-13)[0] - 0.05,
# -30, 30, xtol=1e-14) gives -18.63026049373167.
GAUSSIAN_THETA0_K5_P05 = -18.630260493732038


@pytest.mark.parametrize("prior", [0.05, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("kind", ["bernoulli_z", "gaussian_z"])
def test_zero_slope_calibration_is_plain_logit(kind, prior):
    theta0 = calibrate_intercept(0.0, prior, kind, 5)
    assert theta0 == pytest.approx(math.log(prior / (1.0 - prior)), abs=1e-6)


def test_bernoulli_symmetry_gives_minus_half_range():
    theta0 = calibrate_intercept(1.0, 0.5, "bernoulli_z", 5)
    assert theta0 == pytest.approx(-2.5, abs=1e-8)
    assert enumerate_bernoulli_expectation(theta0, 1.0, 5) == pytest.approx(0.5, abs=1e-6)


def test_bernoulli_calibration_hits_target_by_enumeration():
    for prior in (0.05, 0.3, 0.8):
        for slope in (0.5, 2.0, 5.0):
            theta0 = calibrate_intercept(slope, prior, "bernoulli_z", 5)
            assert enumerate_bernoulli_expectation(theta0, slope, 5) == pytest.approx(
                prior, abs=1e-4
            )


def _exact_bernoulli_expectation(theta0, slope, d_z):
    """E[sigmoid(theta0 + slope * sum(z))] over d_z fair bits, summed exactly
    over the d_z + 1 ones-counts."""
    total = Fraction(0)
    for s in range(d_z + 1):
        t = theta0 + slope * s
        ramp = 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))
        total += Fraction(math.comb(d_z, s), 2**d_z) * Fraction(ramp)
    return total


@pytest.mark.parametrize("d_z", [1024, 1100])
def test_bernoulli_calibration_past_the_float_range_of_two_to_the_d_z(d_z):
    # 2.0**d_z overflows a double from d_z = 1024 on; the pattern weights
    # must not. The slope keeps slope * d_z / 2 inside the root's bracket.
    for prior in (0.05, 0.3):
        theta0 = calibrate_intercept(0.02, prior, "bernoulli_z", d_z)
        assert abs(_exact_bernoulli_expectation(theta0, 0.02, d_z) - Fraction(prior)) < 1e-9


def test_gaussian_calibration_regression_constant():
    theta0 = calibrate_intercept(5.0, 0.05, "gaussian_z", 5)
    assert theta0 == pytest.approx(GAUSSIAN_THETA0_K5_P05, abs=1e-9)


@pytest.mark.parametrize("slope", [0.5, 2.0, 5.0, 20.0, 50.0, 1000.0])
def test_gaussian_calibration_hits_target_by_fine_simpson(slope):
    # The reference integrates over u = t0 + slope * sqrt(5) * z, not z, on a
    # far finer mesh, its spacing in u at most 0.1; a prior it puts outside
    # the bracket must be rejected. At slope 1,000 the quadrature's spacing
    # is 1 / (2 slope sqrt(5)), not the 0.05 cap, and only priors near 0.5
    # are reachable.
    scale = slope * math.sqrt(5)
    intervals = max(400_000, 2 * math.ceil(125.0 * scale))
    for prior in (0.05, 0.3, 0.45, 0.497, 0.8):
        reachable = (
            gaussian_ramp_expectation(-30.0, scale, intervals)
            < prior
            < gaussian_ramp_expectation(30.0, scale, intervals)
        )
        if not reachable:
            with pytest.raises(ValidationError, match="unreachable"):
                calibrate_intercept(slope, prior, "gaussian_z", 5)
            continue
        theta0 = calibrate_intercept(slope, prior, "gaussian_z", 5)
        assert abs(gaussian_ramp_expectation(theta0, scale, intervals) - prior) < 1e-9


@pytest.mark.parametrize("slope", [0.5, 2.0, 5.0, 20.0, 50.0])
def test_gaussian_calibration_is_odd_in_the_prior(slope):
    # sigmoid(-t) = 1 - sigmoid(t) and Z is symmetric, so prior 1 - p needs
    # intercept -t0, and prior 0.5 needs 0.
    assert abs(calibrate_intercept(slope, 0.5, "gaussian_z", 5)) < 1e-11
    for prior in (0.05, 0.3, 0.45):
        try:
            low = calibrate_intercept(slope, prior, "gaussian_z", 5)
        except ValidationError:
            continue
        high = calibrate_intercept(slope, 1.0 - prior, "gaussian_z", 5)
        assert abs(low + high) < 1e-11


@pytest.mark.parametrize("kind", ["bernoulli_z", "gaussian_z"])
def test_calibration_rejects_a_non_finite_slope(kind):
    # A NaN slope made every expectation NaN, and the bisection returned 0.
    for slope in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="shift_slope"):
            calibrate_intercept(slope, 0.3, kind, 5)


def test_gaussian_calibration_is_even_in_the_slope():
    # The grid's spacing follows |slope|, so a falling ramp is as exact as
    # a rising one.
    rising = calibrate_intercept(50.0, 0.45, "gaussian_z", 5)
    assert abs(calibrate_intercept(-50.0, 0.45, "gaussian_z", 5) - rising) < 1e-11


def test_unreachable_prior_rejected():
    with pytest.raises(ValidationError, match="unreachable"):
        calibrate_intercept(0.0, 1e-14, "bernoulli_z", 5)
    with pytest.raises(ValidationError):
        calibrate_intercept(0.0, 1.5, "bernoulli_z", 5)


def test_generation_is_seed_deterministic():
    config = SynthConfig(
        dataset_kind="gaussian_z", n_source=300, n_target=200, shift_slope=2.0,
        target_prior=0.3, seed=7,
    )
    a_src, a_tgt = generate_pair(config)
    b_src, b_tgt = generate_pair(config)
    assert np.array_equal(a_src.x, b_src.x)
    assert np.array_equal(a_src.y, b_src.y)
    assert np.array_equal(a_tgt.z, b_tgt.z)
    assert np.array_equal(a_tgt.y, b_tgt.y)


def test_no_shift_pair_shares_one_law():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=5000, n_target=5000, shift_slope=0.0,
        target_prior=0.3, source_cond_prob=0.3, seed=5,
    )
    source, target = generate_pair(config)
    diff = abs(source.x[:, 0].mean() - target.x[:, 0].mean())
    stderr = math.sqrt(source.x[:, 0].var() / 5000 + target.x[:, 0].var() / 5000)
    assert diff < 4.0 * stderr


def test_label_shift_regime():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=5000, n_target=5000, shift_slope=0.0,
        target_prior=0.5, source_cond_prob=0.05, seed=6,
    )
    source, target = generate_pair(config)
    assert np.mean(target.y == 1) == pytest.approx(0.5, abs=0.02)
    assert np.mean(source.y == 1) == pytest.approx(0.05, abs=0.01)
    # Feature law given the class is unchanged: compare x means per class.
    for label in (1, 2):
        s = source.x[source.y == label][:, 0]
        t = target.x[target.y == label][:, 0]
        stderr = math.sqrt(s.var() / s.size + t.var() / t.size)
        assert abs(s.mean() - t.mean()) < 4.0 * stderr


def test_conditional_shift_without_label_shift():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=5000, n_target=20000, shift_slope=5.0,
        target_prior=0.05, source_cond_prob=0.05, seed=9,
    )
    _, target = generate_pair(config)
    assert np.mean(target.y == 1) == pytest.approx(0.05, abs=0.02)
    ones = target.z.sum(axis=1)
    high = np.mean(target.y[ones >= 3] == 1)
    low = np.mean(target.y[ones <= 2] == 1)
    assert high > low + 0.05


def test_calibration_accuracy_invariant():
    for kind in ("bernoulli_z", "gaussian_z"):
        config = SynthConfig(
            dataset_kind=kind, n_source=100, n_target=8000, shift_slope=3.0,
            target_prior=0.3, seed=12,
        )
        _, target = generate_pair(config)
        rate = np.mean(target.y == 1)
        assert abs(rate - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / 8000)


def test_strata_feature_law_is_preserved():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=6000, n_target=6000, shift_slope=2.0,
        target_prior=0.5, source_cond_prob=0.3, d_z=2, d_x=4, seed=14,
    )
    source, target = generate_pair(config)

    def strata_key(data):
        return data.y * 10 + (data.z[:, 0] * 2 + data.z[:, 1]).astype(int)

    s_keys, t_keys = strata_key(source), strata_key(target)
    for key in np.unique(s_keys):
        s_rows = source.x[s_keys == key]
        t_rows = target.x[t_keys == key]
        if len(s_rows) < 30 or len(t_rows) < 30:
            continue
        for col in range(source.d_x):
            stderr = math.sqrt(
                s_rows[:, col].var() / len(s_rows) + t_rows[:, col].var() / len(t_rows)
            )
            assert abs(s_rows[:, col].mean() - t_rows[:, col].mean()) < 4.0 * stderr


def test_mean_layout_requires_room_for_indicator():
    with pytest.raises(ValidationError, match="d_x"):
        SynthConfig(dataset_kind="bernoulli_z", n_source=10, n_target=10, d_z=5, d_x=5)


@pytest.mark.parametrize(
    "make, field, value",
    [
        (SynthConfig, "n_source", math.nan),
        (SynthConfig, "n_target", 2.5),
        (SynthConfig, "d_z", math.nan),
        (SynthConfig, "seed", 1.5),
        (ShiftProtocolConfig, "conditioning_column", math.nan),
        (ShiftProtocolConfig, "n_target", 2.5),
        (ShiftProtocolConfig, "seed", -1),
    ],
)
def test_integer_fields_reject_nan_fractions_and_negatives(make, field, value):
    # `nan < 1` is false, so a NaN size passed a plain range test and
    # generation failed later with a TypeError.
    if make is SynthConfig:
        settings = dict(dataset_kind="bernoulli_z", n_source=10, n_target=10)
    else:
        settings = dict(base_rate=0.3, shift_delta=0.2, n_source=10, n_target=10)
    make(**settings)
    with pytest.raises(ValidationError, match=f"{field} must be"):
        make(**{**settings, field: value})


_SYNTH = dict(dataset_kind="bernoulli_z", n_source=10, n_target=10)
_SHIFT = dict(base_rate=0.3, shift_delta=0.2, n_source=10, n_target=10)


@pytest.mark.parametrize(
    "make, settings, field",
    [
        (FitConfig, {}, "tolerance"),
        (FitConfig, {}, "l2_penalty"),
        (EmConfig, {}, "em_tolerance"),
        (SynthConfig, _SYNTH, "source_cond_prob"),
        (SynthConfig, _SYNTH, "shift_slope"),
        (SynthConfig, _SYNTH, "target_prior"),
        (ShiftProtocolConfig, _SHIFT, "base_rate"),
        (ShiftProtocolConfig, _SHIFT, "shift_delta"),
    ],
)
@pytest.mark.parametrize("value", [True, False, "1e-8", None])
def test_real_fields_reject_booleans_strings_and_none(make, settings, field, value):
    # A bool is a number to Python, so True passed each range test as 1.0;
    # a string or None failed the first comparison with a bare TypeError.
    make(**settings)
    with pytest.raises(ValidationError, match=f"{field} must be a real number"):
        make(**{**settings, field: value})


@pytest.mark.parametrize("slope", [math.nan, math.inf])
def test_shift_slope_must_be_finite_and_nonnegative(slope):
    # A NaN slope fails `slope < 0` and would generate a target whose
    # class-1 rate is 0.0 whatever target_prior asks for.
    with pytest.raises(ValidationError, match="shift_slope"):
        SynthConfig(dataset_kind="bernoulli_z", n_source=10, n_target=10, shift_slope=slope)


def _toy_family():
    cond = SoftmaxParams(2, 1, np.array([0.0]), np.array([[0.7]]))
    return GaussianGenConfig(
        mixing_matrix=np.array([[0.5], [0.0]]),
        class_offsets=np.array([[1.0, -0.5], [0.0, 0.0]]),
        conditional_params=cond,
    )


def test_uninformative_features_reduce_posterior_to_conditional():
    cond = SoftmaxParams(3, 2, np.array([0.3, -0.2]), np.array([[0.5, 0.0], [0.1, -0.4]]))
    config = GaussianGenConfig(
        mixing_matrix=np.zeros((2, 2)),
        class_offsets=np.tile([0.7, -0.3], (3, 1)),
        conditional_params=cond,
    )
    posterior = gaussian_family_posterior(config)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((50, 2))
    x = rng.standard_normal((50, 2))
    expected = predict_proba(cond, z)
    got = predict_proba(posterior, np.hstack([z, x]))
    assert np.max(np.abs(expected - got)) < 1e-12


def test_two_class_posterior_at_half_point():
    cond = SoftmaxParams(2, 1, np.array([0.0]), np.zeros((1, 1)))
    config = GaussianGenConfig(
        mixing_matrix=np.zeros((1, 1)),
        class_offsets=np.array([[1.0], [0.0]]),
        conditional_params=cond,
    )
    posterior = gaussian_family_posterior(config)
    probs = predict_proba(posterior, np.array([[0.0, 0.5]]))
    assert probs[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_closed_form_matches_density_bayes():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d, p, n_classes = 2, 3, 3
        cond = SoftmaxParams(
            n_classes, d, rng.standard_normal(n_classes - 1),
            rng.standard_normal((n_classes - 1, d)),
        )
        config = GaussianGenConfig(
            mixing_matrix=rng.standard_normal((p, d)),
            class_offsets=rng.standard_normal((n_classes, p)),
            conditional_params=cond,
        )
        posterior = gaussian_family_posterior(config)
        z = rng.standard_normal(d)
        x = rng.standard_normal(p)
        prior = predict_proba(cond, z[None, :])[0]
        expected = gaussian_bayes_posterior(z, x, config.mixing_matrix, config.class_offsets, prior)
        got = predict_proba(posterior, np.hstack([z, x])[None, :])[0]
        assert np.max(np.abs(expected - got)) < 1e-10


def test_family_sampling_matches_closed_form_posterior():
    config = _toy_family()
    data = generate_gaussian_family(config, 20000, seed=3)
    assert data.n_classes == 2
    from cpsm.softmax import FitConfig, fit_hard

    fitted = fit_hard(data, FitConfig(), "zx")
    truth = gaussian_family_posterior(config)
    feats = data.features("zx")
    gap = np.mean(np.abs(predict_proba(fitted, feats)[:, 0] - predict_proba(truth, feats)[:, 0]))
    assert gap < 0.015


def test_family_sampling_is_deterministic():
    config = _toy_family()
    a = generate_gaussian_family(config, 500, seed=11)
    b = generate_gaussian_family(config, 500, seed=11)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def _standin_data(n=40000, seed=100):
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(float)
    rate = 0.3 + 0.2 * z
    y = np.where(rng.random(n) < rate, 1, 2)
    x = rng.standard_normal((n, 2))
    x[:, 0] += (y == 1)
    x[:, 1] += 0.5 * z
    return LabeledDataset(z=z[:, None], x=x, y=y)


def test_shift_protocol_hits_requested_rates():
    data = _standin_data()
    config = ShiftProtocolConfig(
        base_rate=0.05, shift_delta=0.7, n_source=5000, n_target=5000, seed=4
    )
    source, target = induce_conditional_shift(data, config)
    for dataset, rates in ((source, (0.05, 0.05)), (target, (0.05, 0.75))):
        for zval, wanted in zip((0, 1), rates):
            mask = dataset.z[:, 0] == zval
            assert np.mean(dataset.y[mask] == 1) == pytest.approx(wanted, abs=0.02)


def test_shift_protocol_marginal_prior():
    data = _standin_data()
    config = ShiftProtocolConfig(
        base_rate=0.2, shift_delta=0.3, n_source=4000, n_target=4000, seed=4
    )
    _, target = induce_conditional_shift(data, config)
    p_z1 = np.mean(data.z[:, 0] == 1)
    expected = 0.2 + 0.3 * p_z1
    assert np.mean(target.y == 1) == pytest.approx(expected, abs=0.02)


def test_shift_protocol_zero_delta_keeps_both_rates_at_base():
    data = _standin_data()
    config = ShiftProtocolConfig(
        base_rate=0.3, shift_delta=0.0, n_source=5000, n_target=5000, seed=5
    )
    source, target = induce_conditional_shift(data, config)
    for dataset in (source, target):
        for zval in (0, 1):
            mask = dataset.z[:, 0] == zval
            assert np.mean(dataset.y[mask] == 1) == pytest.approx(0.3, abs=0.02)


def test_shift_protocol_preserves_feature_law_per_stratum():
    data = _standin_data()
    config = ShiftProtocolConfig(
        base_rate=0.3, shift_delta=0.4, n_source=8000, n_target=8000, seed=6
    )
    source, target = induce_conditional_shift(data, config)
    for label in (1, 2):
        for zval in (0, 1):
            s = source.x[(source.y == label) & (source.z[:, 0] == zval)]
            t = target.x[(target.y == label) & (target.z[:, 0] == zval)]
            for col in range(2):
                stderr = math.sqrt(s[:, col].var() / len(s) + t[:, col].var() / len(t))
                assert abs(s[:, col].mean() - t[:, col].mean()) < 4.0 * stderr


def test_shift_protocol_empty_stratum_is_named():
    rng = np.random.default_rng(0)
    z = np.repeat([0.0, 1.0], 50)
    # No class-1 rows in the z=0 stratum.
    y = np.where((z == 1) & (rng.random(100) < 0.5), 1, 2)
    data = LabeledDataset(z=z[:, None], x=rng.standard_normal((100, 1)), y=y)
    config = ShiftProtocolConfig(
        base_rate=0.3, shift_delta=0.2, n_source=50, n_target=50, seed=1
    )
    with pytest.raises(ValidationError, match="y=1, z=0"):
        induce_conditional_shift(data, config)


def test_shift_protocol_is_deterministic():
    data = _standin_data(n=5000)
    config = ShiftProtocolConfig(
        base_rate=0.2, shift_delta=0.4, n_source=1000, n_target=1000, seed=9
    )
    a_src, a_tgt = induce_conditional_shift(data, config)
    b_src, b_tgt = induce_conditional_shift(data, config)
    assert np.array_equal(a_src.x, b_src.x)
    assert np.array_equal(a_tgt.y, b_tgt.y)


def test_dataset_csv_round_trip(tmp_path):
    config = SynthConfig(
        dataset_kind="gaussian_z", n_source=50, n_target=40, shift_slope=1.0,
        target_prior=0.3, d_z=2, d_x=3, seed=2,
    )
    source, target = generate_pair(config)
    labeled = tmp_path / "source.csv"
    unlabeled = tmp_path / "target.csv"
    write_dataset_csv(labeled, source.z, source.x, source.y)
    write_dataset_csv(unlabeled, target.z, target.x, None)

    z, x, y = read_dataset_csv(labeled)
    assert np.array_equal(z, source.z)
    assert np.array_equal(x, source.x)
    assert np.array_equal(y, source.y)
    z2, x2, y2 = read_dataset_csv(unlabeled)
    assert y2 is None
    assert np.array_equal(x2, target.x)

    rewrite = tmp_path / "again.csv"
    write_dataset_csv(rewrite, z, x, y)
    assert rewrite.read_bytes() == labeled.read_bytes()


def test_labels_csv_round_trip(tmp_path):
    y = np.array([1, 2, 2, 3, 1])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, y)
    back = read_labels_csv(path)
    assert back.dtype.kind == "i"
    assert np.array_equal(back, y)
    again = tmp_path / "again.csv"
    write_labels_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("y\n1\n0\n", "line 3: field 'y': bad label '0'"),
        ("y\n2\n-1\n", "line 3: field 'y': bad label '-1'"),
        ("y\n", "line 2: no data rows"),
    ],
    ids=["zero-label", "negative-label", "header-only"],
)
def test_labels_csv_rejects_what_every_label_path_rejects(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text(body)
    with pytest.raises(ValidationError, match=message):
        read_labels_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("y,x1\n1,0.5\n", "line 1: expected the lone column 'y'"),
        ('y\n""\n""\n', "line 2: every label is empty"),
        ("y\n1\n1" + "0" * 30 + "\n", "line 3: field 'y': bad label"),
    ],
    ids=["feature-column", "all-empty", "huge-label"],
)
def test_labels_csv_is_the_dataset_format_with_a_lone_y_column(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text(body)
    with pytest.raises(ValidationError, match=f"labels.csv: {message}"):
        read_labels_csv(path)


@pytest.mark.parametrize(
    "labels",
    [[1, math.nan], [1, math.inf], [1, 1e30], [1.5, 2], ["x", "1"], [1, None]],
    ids=["nan", "inf", "huge", "fraction", "string", "none"],
)
def test_labels_that_are_not_whole_numbers_are_rejected(labels):
    with pytest.raises(ValidationError, match="labels must be integers"):
        LabeledDataset(z=np.zeros((2, 1)), x=np.zeros((2, 1)), y=labels)
