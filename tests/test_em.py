import json
import math
import re

import numpy as np
import pytest

from cpsm import (
    EmConfig,
    LabeledDataset,
    NumericalError,
    SoftmaxParams,
    SourceModels,
    SynthConfig,
    UnlabeledDataset,
    ValidationError,
    fit_cpsm,
    fit_mlls,
    generate_pair,
    naive_posterior,
    params_from_dict,
    params_from_prior,
    params_to_dict,
)
from cpsm import em
from cpsm.em import load_fit_json, save_fit_json
from cpsm.softmax import FitConfig, fit_hard, fit_soft, predict_proba

from helpers import (
    GaussianGenConfig,
    bayes_posterior_from_joint,
    generate_gaussian_family,
    row_wise_e_step,
    row_wise_em,
    zero_params,
)


def _sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


@pytest.fixture(scope="module")
def small_pair():
    config = SynthConfig(
        dataset_kind="bernoulli_z",
        n_source=1500,
        n_target=1200,
        shift_slope=1.0,
        target_prior=0.3,
        source_cond_prob=0.2,
        seed=3,
    )
    return generate_pair(config)


@pytest.fixture(scope="module")
def small_models(small_pair):
    source, _ = small_pair
    fit = FitConfig()
    return SourceModels(
        posterior_model=fit_hard(source, fit, "zx"),
        conditional_model=fit_hard(source, fit, "z"),
    )


def test_e_step_prior_only_reduces_to_classic_update():
    # Empty conditioning block: the responsibilities must be the classic
    # prior-ratio rescaling of the source posteriors.
    source_prior = np.array([0.3, 0.7])
    target_prior = np.array([0.6, 0.4])
    wanted = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    # Feature value whose sigmoid is the wanted posterior.
    feats = np.array([[math.log(w / (1.0 - w))] for w in wanted[:, 0]])
    posterior_model = SoftmaxParams(2, 1, np.array([0.0]), np.array([[1.0]]))
    models = SourceModels(
        posterior_model=posterior_model,
        conditional_model=params_from_prior(source_prior),
    )
    target = UnlabeledDataset(z=np.zeros((3, 0)), x=feats)
    resp = row_wise_e_step(models, target, params_from_prior(target_prior)).posterior

    p = predict_proba(posterior_model, feats)
    ratio = target_prior / source_prior
    expected = p * ratio
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.max(np.abs(resp - expected)) < 1e-12


def test_e_step_matches_brute_force_on_discrete_joint():
    # Binary x and z; the posterior model defines p(y | x, z), the joint is
    # built from it, and the conditional models encode the marginalized
    # p(y | z) and a chosen q(y | z) exactly.
    posterior_model = SoftmaxParams(2, 2, np.array([-0.3]), np.array([[0.8, -1.1]]))
    p_z1, q_z1 = 0.6, 0.5
    p_x1_given_z = {0: 0.3, 1: 0.7}
    theta = SoftmaxParams(2, 1, np.array([0.4]), np.array([[-0.9]]))

    p_joint = {}
    for x in (0, 1):
        for z in (0, 1):
            p_y1 = predict_proba(posterior_model, np.array([[float(z), float(x)]]))[0, 0]
            pz = p_z1 if z == 1 else 1.0 - p_z1
            px = p_x1_given_z[z] if x == 1 else 1.0 - p_x1_given_z[z]
            p_joint[(x, z, 1)] = pz * px * p_y1
            p_joint[(x, z, 2)] = pz * px * (1.0 - p_y1)

    p_y1_given_z = {}
    for z in (0, 1):
        num = sum(p_joint[(x, z, 1)] for x in (0, 1))
        den = sum(p_joint[(x, z, y)] for x in (0, 1) for y in (1, 2))
        p_y1_given_z[z] = num / den
    logit = lambda v: math.log(v / (1.0 - v))
    conditional_model = SoftmaxParams(
        2,
        1,
        np.array([logit(p_y1_given_z[0])]),
        np.array([[logit(p_y1_given_z[1]) - logit(p_y1_given_z[0])]]),
    )

    q_joint = {}
    for x in (0, 1):
        for z in (0, 1):
            q_y1 = _sigmoid(0.4 - 0.9 * z)
            p_yz = {y: sum(p_joint[(xx, z, y)] for xx in (0, 1)) for y in (1, 2)}
            qz = q_z1 if z == 1 else 1.0 - q_z1
            q_joint[(x, z, 1)] = qz * q_y1 * (p_joint[(x, z, 1)] / p_yz[1])
            q_joint[(x, z, 2)] = qz * (1.0 - q_y1) * (p_joint[(x, z, 2)] / p_yz[2])

    cells = [(x, z) for x in (0, 1) for z in (0, 1)]
    target = UnlabeledDataset(
        z=np.array([[float(z)] for _, z in cells]),
        x=np.array([[float(x)] for x, _ in cells]),
    )
    models = SourceModels(posterior_model=posterior_model, conditional_model=conditional_model)
    resp = row_wise_e_step(models, target, theta).posterior
    expected = np.array([bayes_posterior_from_joint(q_joint, x, z) for x, z in cells])
    assert np.max(np.abs(resp - expected)) < 1e-12


def test_m_step_uniform_responsibilities_give_zero_intercepts():
    resp = np.full((300, 2), 0.5)
    params = fit_soft(np.zeros((300, 0)), resp, FitConfig(l2_penalty=0.0))
    assert abs(params.intercepts[0]) < 1e-6


def test_m_step_constant_responsibilities_fit_their_mean():
    resp = np.tile([0.8, 0.2], (400, 1))
    params = fit_soft(np.zeros((400, 0)), resp, FitConfig(l2_penalty=0.0))
    fitted = predict_proba(params, np.zeros((1, 0)))[0, 0]
    assert fitted == pytest.approx(0.8, abs=1e-4)


def test_first_prior_only_round_is_mean_of_source_posteriors(small_pair):
    source, target = small_pair
    fit = FitConfig()
    posterior_model = fit_hard(source, fit, "zx")
    counts = np.bincount(source.y, minlength=3)[1:]
    source_prior = counts / counts.sum()
    unlabeled = target.unlabeled()

    result = fit_mlls(
        posterior_model,
        source_prior,
        unlabeled,
        EmConfig(max_em_iters=1),
    )
    naive_mean = predict_proba(posterior_model, unlabeled.features("zx")).mean(axis=0)
    fitted_prior = predict_proba(result.theta_hat, np.zeros((1, 0)))[0]
    assert np.max(np.abs(fitted_prior - naive_mean)) < 1e-6


def test_no_shift_em_stays_near_start():
    cond = SoftmaxParams(2, 3, np.array([-0.5]), np.array([[0.6, -0.4, 0.2]]))
    gen = GaussianGenConfig(
        mixing_matrix=np.array(
            [[0.3, 0.1, 0.0], [0.0, 0.2, -0.1], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ),
        class_offsets=np.array([[1.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        conditional_params=cond,
    )
    source = generate_gaussian_family(gen, 5000, seed=2)
    target = generate_gaussian_family(gen, 5000, seed=1002)
    fit = FitConfig()
    models = SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z"))
    result = fit_cpsm(models, target.unlabeled(), EmConfig())
    drift = max(
        float(np.max(np.abs(result.theta_hat.intercepts - models.conditional_model.intercepts))),
        float(np.max(np.abs(result.theta_hat.slopes - models.conditional_model.slopes))),
    )
    assert drift < 0.15
    source_prior = np.bincount(source.y, minlength=3)[1:] / source.n_rows
    assert np.max(np.abs(result.estimated_prior - source_prior)) < 0.02


def test_identical_source_and_target_rows_are_a_fixed_point(small_pair):
    source, _ = small_pair
    tight = FitConfig(max_iters=5000, tolerance=1e-12, l2_penalty=0.0)
    models = SourceModels(fit_hard(source, tight, "zx"), fit_hard(source, tight, "z"))
    result = fit_cpsm(models, source.unlabeled(), EmConfig(max_em_iters=1))
    drift = max(
        float(np.max(np.abs(result.theta_hat.intercepts - models.conditional_model.intercepts))),
        float(np.max(np.abs(result.theta_hat.slopes - models.conditional_model.slopes))),
    )
    assert drift < 1e-7


def test_surrogate_trace_is_monotone(small_pair, small_models):
    _, target = small_pair
    result = fit_cpsm(small_models, target.unlabeled(), EmConfig())
    assert np.all(np.diff(result.loglik_trace) >= -1e-9)
    assert result.loglik_trace[0] == pytest.approx(0.0, abs=1e-9)


def test_estimated_prior_is_column_mean(small_pair, small_models):
    _, target = small_pair
    result = fit_cpsm(small_models, target.unlabeled(), EmConfig())
    assert np.array_equal(result.estimated_prior, result.target_posterior.mean(axis=0))
    assert result.estimated_prior.sum() == pytest.approx(1.0, abs=1e-9)


def test_fit_is_deterministic(small_pair, small_models):
    _, target = small_pair
    first = fit_cpsm(small_models, target.unlabeled(), EmConfig())
    second = fit_cpsm(small_models, target.unlabeled(), EmConfig())
    assert np.array_equal(first.loglik_trace, second.loglik_trace)
    assert np.array_equal(first.target_posterior, second.target_posterior)
    assert np.array_equal(first.theta_hat.intercepts, second.theta_hat.intercepts)
    assert np.array_equal(first.theta_hat.slopes, second.theta_hat.slopes)


def test_zero_em_iterations_reproduce_naive(small_pair, small_models):
    _, target = small_pair
    unlabeled = target.unlabeled()
    result = fit_cpsm(small_models, unlabeled, EmConfig(max_em_iters=0))
    raw = predict_proba(small_models.posterior_model, unlabeled.features("zx"))
    assert np.max(np.abs(result.target_posterior - raw)) < 1e-14
    assert result.iterations_run == 0
    assert np.array_equal(
        result.theta_hat.intercepts, small_models.conditional_model.intercepts
    )


def test_naive_is_the_zero_round_em_posterior_bitwise(small_pair, small_models):
    # One definition of the uncorrected baseline: the benchmark's naive rows
    # and `cpsm adapt --method naive` must carry the same bits.
    _, target = small_pair
    unlabeled = target.unlabeled()
    zero_round = fit_cpsm(small_models, unlabeled, EmConfig(max_em_iters=0))
    assert np.array_equal(naive_posterior(small_models, unlabeled), zero_round.target_posterior)


def test_prior_only_path_is_bitwise_identical(small_pair):
    source, target = small_pair
    fit = FitConfig()
    posterior_model = fit_hard(source, fit, "zx")
    counts = np.bincount(source.y, minlength=3)[1:]
    source_prior = counts / counts.sum()
    unlabeled = target.unlabeled()

    via_mlls = fit_mlls(posterior_model, source_prior, unlabeled, EmConfig())
    merged = UnlabeledDataset(z=np.zeros((target.n_rows, 0)), x=unlabeled.features("zx"))
    models = SourceModels(
        posterior_model=posterior_model, conditional_model=params_from_prior(source_prior)
    )
    via_cpsm = fit_cpsm(models, merged, EmConfig())

    assert np.array_equal(via_mlls.loglik_trace, via_cpsm.loglik_trace)
    assert np.array_equal(via_mlls.estimated_prior, via_cpsm.estimated_prior)
    assert np.array_equal(via_mlls.target_posterior, via_cpsm.target_posterior)


def test_prior_only_estimate_tracks_true_label_shift():
    config = SynthConfig(
        dataset_kind="bernoulli_z",
        n_source=5000,
        n_target=5000,
        shift_slope=0.0,
        target_prior=0.4,
        source_cond_prob=0.2,
        seed=8,
    )
    source, target = generate_pair(config)
    posterior_model = fit_hard(source, FitConfig(), "zx")
    counts = np.bincount(source.y, minlength=3)[1:]
    source_prior = counts / counts.sum()
    result = fit_mlls(posterior_model, source_prior, target.unlabeled(), EmConfig())
    true_prior = np.array([0.4, 0.6])
    assert np.abs(result.estimated_prior - true_prior).sum() < np.abs(
        source_prior - true_prior
    ).sum()


def test_shift_recovery_beats_uncorrected_posteriors():
    config = SynthConfig(
        dataset_kind="bernoulli_z",
        n_source=2000,
        n_target=2000,
        shift_slope=5.0,
        target_prior=0.5,
        seed=23,
    )
    source, target = generate_pair(config)
    fit = FitConfig()
    models = SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z"))
    unlabeled = target.unlabeled()
    result = fit_cpsm(models, unlabeled, EmConfig())

    oracle_params = fit_hard(target, fit, "zx")
    oracle = predict_proba(oracle_params, target.features("zx"))
    cpsm_err = np.mean(np.abs(result.target_posterior[:, 0] - oracle[:, 0]))
    naive_err = np.mean(np.abs(naive_posterior(models, unlabeled)[:, 0] - oracle[:, 0]))
    assert cpsm_err < naive_err


def _shifted_pair(kind, seed, n=2000):
    config = SynthConfig(
        dataset_kind=kind, n_source=n, n_target=n, shift_slope=5.0, target_prior=0.05, seed=seed
    )
    source, target = generate_pair(config)
    fit = FitConfig()
    models = SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z"))
    return models, target.unlabeled()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouped_em_matches_row_wise_em_on_discrete_z(seed):
    models, target = _shifted_pair("bernoulli_z", seed)
    theta, posterior, trace = row_wise_em(models, target, EmConfig())
    result = fit_cpsm(models, target, EmConfig())
    assert result.iterations_run == trace.size - 1
    assert np.max(np.abs(result.target_posterior - posterior)) <= 1e-6
    assert np.all(np.diff(result.loglik_trace) >= -1e-9)


def test_grouped_em_is_bitwise_row_wise_em_when_every_z_row_is_distinct():
    models, target = _shifted_pair("gaussian_z", 3)
    theta, posterior, trace = row_wise_em(models, target, EmConfig())
    result = fit_cpsm(models, target, EmConfig())
    assert np.array_equal(result.loglik_trace, trace)
    assert np.array_equal(result.target_posterior, posterior)
    assert np.array_equal(result.theta_hat.weight_matrix(), theta.weight_matrix())


def _three_class_pair(discrete):
    """Source models and a shifted target of a three-class Gaussian family,
    with z rounded to {0, 1} when `discrete`."""
    def draw(intercepts, seed):
        gen = GaussianGenConfig(
            mixing_matrix=np.array([[0.3, 0.1], [0.0, 0.2], [0.1, 0.0]]),
            class_offsets=np.array([[1.5, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 0.0]]),
            conditional_params=SoftmaxParams(3, 2, intercepts, [[1.0, -0.5], [0.2, 0.8]]),
        )
        data = generate_gaussian_family(gen, 1500, seed=seed)
        z = (data.z > 0.0).astype(float) if discrete else data.z
        return LabeledDataset(z=z, x=data.x, y=data.y)

    source, target = draw([0.3, -0.2], 5), draw([-1.0, 0.8], 6)
    fit = FitConfig()
    models = SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z"))
    return models, target.unlabeled()


@pytest.mark.parametrize("case", ["bernoulli_z", "gaussian_z", "three-discrete", "three-continuous"])
def test_e_step_checked_once_is_bitwise_the_checked_e_step_every_round(case):
    # `fit_cpsm` scores both conditionals once per z pattern and passes their
    # ratio to the unchecked kernel; the reference scores them on every row
    # and runs the public, checked `adjust_posterior` in every round. With
    # the same grouped M-step, the two give the same fit bit for bit, for
    # discrete and continuous z and for two and three classes.
    if case.startswith("three"):
        models, target = _three_class_pair(case == "three-discrete")
    else:
        models, target = _shifted_pair(case, 1)
    config = EmConfig(max_em_iters=30)
    result = fit_cpsm(models, target, config)
    patterns = em._distinct_rows(target.z)
    theta, posterior, trace = row_wise_em(
        models, target, config, lambda post, init: em._fit_patterns(patterns, post, init)
    )
    assert trace.size > 2
    assert result.iterations_run == trace.size - 1
    assert np.array_equal(result.loglik_trace, trace)
    assert np.array_equal(result.target_posterior, posterior)
    assert np.array_equal(result.estimated_prior, posterior.mean(axis=0))
    assert np.array_equal(result.theta_hat.weight_matrix(), theta.weight_matrix())


def test_a_round_with_non_finite_ratios_raises_numerical_error(small_pair, small_models, monkeypatch):
    # The E-step inputs are checked before the first round only; a later
    # round whose q(y | z) is NaN still stops on its row normalizer.
    _, target = small_pair
    calls = []

    def nan_from_the_first_round(params, features):
        calls.append(params)
        probs = predict_proba(params, features)
        # p(y | z, x) on the rows, then p(y | z) and round 1's q per pattern.
        return np.full_like(probs, np.nan) if len(calls) > 2 else probs

    monkeypatch.setattr(em, "predict_proba", nan_from_the_first_round)
    with pytest.raises(NumericalError, match="non-finite normalizer at row 0"):
        fit_cpsm(small_models, target.unlabeled(), EmConfig(max_em_iters=5))
    assert len(calls) == 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuting_target_rows_permutes_the_posterior(seed):
    models, target = _shifted_pair("bernoulli_z", seed)
    perm = np.random.default_rng(0).permutation(target.n_rows)
    shuffled = UnlabeledDataset(z=target.z[perm], x=target.x[perm])
    result = fit_cpsm(models, target, EmConfig())
    permuted = fit_cpsm(models, shuffled, EmConfig())
    assert permuted.iterations_run == result.iterations_run
    # Reordered sums change only the rounding of each M-step. The Newton
    # M-step converges quadratically, so its last step, below the 1e-7
    # tolerance, leaves the fit far closer to the optimum than that: the
    # posteriors move by 3.1e-10, 5.1e-13 and 2.8e-14 on seeds 1-3.
    assert np.max(np.abs(permuted.target_posterior - result.target_posterior[perm])) <= 1e-8


def test_one_row_target_matches_row_wise_em(small_models, small_pair):
    _, target = small_pair
    one = UnlabeledDataset(z=target.z[:1], x=target.x[:1])
    config = EmConfig(max_em_iters=20)
    theta, posterior, trace = row_wise_em(small_models, one, config)
    result = fit_cpsm(small_models, one, config)
    assert np.array_equal(result.loglik_trace, trace)
    assert np.array_equal(result.target_posterior, posterior)


def test_negative_zero_in_z_is_the_same_pattern_as_zero(small_models, small_pair):
    _, target = small_pair
    unlabeled = target.unlabeled()
    signed_z = unlabeled.z.copy()
    signed_z[1::2][signed_z[1::2] == 0.0] = -0.0
    assert np.any(np.signbit(signed_z) & (signed_z == 0.0))
    signed = UnlabeledDataset(z=signed_z, x=unlabeled.x)
    config = EmConfig(max_em_iters=30)
    result = fit_cpsm(small_models, unlabeled, config)
    with_signed_zeros = fit_cpsm(small_models, signed, config)
    assert np.array_equal(with_signed_zeros.loglik_trace, result.loglik_trace)
    assert np.array_equal(with_signed_zeros.target_posterior, result.target_posterior)


def test_mlls_follows_the_classic_prior_only_em(small_pair):
    # Saerens, Latinne & Decaestecker (Neural Computation 2002): reweight the
    # source posteriors by prior / source prior, then set the prior to the
    # mean of the reweighted posteriors.
    source, target = small_pair
    posterior_model = fit_hard(source, FitConfig(), "zx")
    source_prior = source.class_prior()
    unlabeled = target.unlabeled()
    result = fit_mlls(posterior_model, source_prior, unlabeled, EmConfig(max_em_iters=20))

    p = predict_proba(posterior_model, unlabeled.features("zx"))
    prior = source_prior
    for _ in range(result.iterations_run + 1):
        reweighted = p * (prior / source_prior)
        reweighted /= reweighted.sum(axis=1, keepdims=True)
        prior = reweighted.mean(axis=0)
    assert result.iterations_run >= 5
    assert np.max(np.abs(result.estimated_prior - prior)) <= 1e-6


@pytest.mark.parametrize("value", [math.nan, 2.5, -1])
def test_em_round_budget_must_be_a_nonnegative_integer(value):
    with pytest.raises(ValidationError, match="max_em_iters must be"):
        EmConfig(max_em_iters=value)


def test_mismatched_models_rejected(small_models):
    with pytest.raises(ValidationError):
        SourceModels(
            posterior_model=zero_params(2, 3),
            conditional_model=zero_params(3, 2),
        )
    with pytest.raises(ValidationError):
        fit_cpsm(
            small_models,
            UnlabeledDataset(z=np.zeros((4, 1)), x=np.zeros((4, 2))),
            EmConfig(),
        )


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda models: SourceModels(posterior_model=zero_params(2, 1),
                                     conditional_model=zero_params(2, 2)),
         "posterior model must cover at least the conditioning features"),
        (lambda models: fit_cpsm(models, UnlabeledDataset(z=np.zeros((4, 5)), x=np.zeros((4, 9))),
                                 EmConfig()),
         "features shape (4, 14) != (4, 15)"),
        (lambda models: fit_mlls(models.posterior_model, np.array([0.5, 0.3, 0.2]),
                                 UnlabeledDataset(z=np.zeros((4, 5)), x=np.zeros((4, 10))),
                                 EmConfig()),
         "prior shape (3,) != (2,)"),
    ],
    ids=["posterior-narrower", "posterior-width", "prior-length"],
)
def test_models_of_other_shapes_are_rejected(small_models, fault, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fault(small_models)


def test_empty_target_rejected(small_models):
    with pytest.raises(ValidationError, match="empty"):
        fit_cpsm(
            small_models,
            UnlabeledDataset(z=np.zeros((0, 5)), x=np.zeros((0, 10))),
            EmConfig(),
        )


def test_params_json_round_trip():
    params = SoftmaxParams(3, 2, np.array([0.5, -1.25]), np.array([[1.0, 2.0], [-0.5, 0.25]]))
    doc = params_to_dict(params)
    assert set(doc) == {"n_classes", "n_features", "intercepts", "slopes"}
    back = params_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(back.intercepts, params.intercepts)
    assert np.array_equal(back.slopes, params.slopes)


def test_fit_json_round_trip(tmp_path, small_pair, small_models):
    _, target = small_pair
    result = fit_cpsm(small_models, target.unlabeled(), EmConfig(max_em_iters=3))
    path = tmp_path / "fit.json"
    save_fit_json(path, result)
    doc = load_fit_json(path)
    assert doc["format_version"] == 1
    assert doc["iterations_run"] == result.iterations_run
    assert np.array_equal(np.array(doc["loglik_trace"]), result.loglik_trace)
    assert np.array_equal(np.array(doc["estimated_prior"]), result.estimated_prior)
    theta = params_from_dict(doc["theta_hat"])
    assert np.array_equal(theta.intercepts, result.theta_hat.intercepts)
    assert np.array_equal(theta.slopes, result.theta_hat.slopes)


_ABSENT = object()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_classes", 2.9, "n_classes must be an integer"),
        ("n_classes", "2", "n_classes must be a JSON number"),
        ("slopes", [[1.0, 2.0, 3.0]], r"slopes shape \(1, 3\) != \(1, 2\)"),
        ("intercepts", _ABSENT, "model document missing field: 'intercepts'"),
    ],
    ids=["fraction", "string", "slopes-size", "missing-field"],
)
def test_model_document_faults_are_validation_errors(field, value, message):
    doc = params_to_dict(SoftmaxParams(2, 2, np.array([0.5]), np.array([[1.0, 2.0]])))
    if value is _ABSENT:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(ValidationError, match=message):
        params_from_dict(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]\n", "must be an object"),
        ('{"format_version": 1', "invalid JSON"),
        ('{"format_version": 2}', "unsupported fit document version: 2"),
        ('{"format_version": true}', "format_version must be a JSON number, got True"),
        ("{}", "fit document missing field: 'format_version'"),
    ],
    ids=["list", "truncated", "other-version", "boolean-version", "no-version"],
)
def test_fit_file_faults_are_validation_errors(tmp_path, text, message):
    path = tmp_path / "fit.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        load_fit_json(path)


def test_bad_prior_rejected():
    with pytest.raises(ValidationError):
        params_from_prior(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        params_from_prior(np.array([1.0]))
