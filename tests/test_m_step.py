"""The EM's M-step is generalized: one Armijo-guarded Newton step from the
last round's model where z has columns, and the exact closed form, the
logit of the mean responsibilities, where it has none."""
import numpy as np
import pytest

from cpsm import (
    EmConfig,
    LabeledDataset,
    SoftmaxParams,
    SourceModels,
    SynthConfig,
    fit_cpsm,
    fit_mlls,
    generate_pair,
)
from cpsm import em, softmax
from cpsm.softmax import FitConfig, _objective, _problem, fit_hard, fit_soft

from helpers import GaussianGenConfig, generate_gaussian_family, row_wise_em

# The M-step that `fit_cpsm` ran before it took one Newton step per round:
# Newton run to its step tolerance from the warm start.
FULL_M_STEP = FitConfig(max_iters=200, l2_penalty=0.0)


def _pair(kind, a, seed, k=5.0, n=2000):
    source, target = generate_pair(SynthConfig(
        dataset_kind=kind, n_source=n, n_target=n, shift_slope=k, target_prior=a, seed=seed,
    ))
    fit = FitConfig()
    return SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z")), target.unlabeled()


def _multi_class_pair(n_classes, seed):
    """Source models and a target of a K-class Gaussian family whose class
    given z shifts between the two."""
    rng = np.random.default_rng(seed)
    offsets = np.vstack([2.0 * rng.standard_normal((n_classes - 1, 3)), np.zeros((1, 3))])

    def draw(intercepts, draw_seed):
        gen = GaussianGenConfig(
            mixing_matrix=np.array([[0.3, 0.1], [0.0, 0.2], [0.1, 0.0]]),
            class_offsets=offsets,
            conditional_params=SoftmaxParams(
                n_classes, 2, intercepts, rng.standard_normal((n_classes - 1, 2))
            ),
        )
        data = generate_gaussian_family(gen, 1500, seed=draw_seed)
        return LabeledDataset(z=data.z, x=data.x, y=data.y)

    source = draw(np.zeros(n_classes - 1), seed + 1)
    target = draw(np.linspace(-1.0, 1.0, n_classes - 1), seed + 2)
    fit = FitConfig()
    models = SourceModels(fit_hard(source, fit, "zx"), fit_hard(source, fit, "z"))
    return models, target.unlabeled()


# Two of criterion 02's cells, for two classes: a healthy one and one whose
# theta runs off. And a shifted Gaussian family for three and four.
_CELLS = {
    "K2-healthy": lambda: _pair("bernoulli_z", 0.5, 1001),
    "K2-runaway": lambda: _pair("bernoulli_z", 0.05, 1),
    "K3": lambda: _multi_class_pair(3, 7),
    "K4": lambda: _multi_class_pair(4, 8),
}


def test_every_round_with_z_runs_one_newton_iteration(monkeypatch):
    models, target = _CELLS["K2-healthy"]()
    iterations = []

    def counting_newton(*args, **kwargs):
        w, trace = newton(*args, **kwargs)
        iterations.append(len(trace) - 1)
        return w, trace

    newton = softmax._newton
    monkeypatch.setattr(softmax, "_newton", counting_newton)
    result = fit_cpsm(models, target, EmConfig())
    assert result.iterations_run > 5
    assert iterations == [1] * result.iterations_run


@pytest.mark.parametrize("cell", _CELLS)
def test_no_m_step_lowers_its_objective(cell, monkeypatch):
    models, target = _CELLS[cell]()
    gains = []

    def checked_fit_soft(features, targets, config, init=None, sample_weights=None):
        fitted = fit_soft(features, targets, config, init=init, sample_weights=sample_weights)
        values = [
            _objective(*_problem(features, targets, model, sample_weights), 0.0)[0]
            for model in (init, fitted)
        ]
        gains.append(values[1] - values[0])
        return fitted

    monkeypatch.setattr(em, "fit_soft", checked_fit_soft)
    result = fit_cpsm(models, target, EmConfig(max_em_iters=60))
    assert len(gains) == result.iterations_run >= 5
    assert min(gains) >= 0.0 < max(gains)
    assert np.all(np.diff(result.loglik_trace) >= -1e-9)


@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_the_prior_only_m_step_is_the_logit_of_the_mean_responsibilities(n_classes, monkeypatch):
    rng = np.random.default_rng(n_classes)
    responsibilities = rng.random((300, n_classes)) + 1e-3
    responsibilities /= responsibilities.sum(axis=1, keepdims=True)
    monkeypatch.setattr(em, "fit_soft", None)  # the closed form calls no solver
    patterns = em._distinct_rows(np.zeros((300, 0)))
    init = SoftmaxParams.from_weight_matrix(n_classes, np.ones((n_classes - 1, 1)))
    theta = em._fit_patterns(patterns, responsibilities, init)

    mean = responsibilities.mean(axis=0)
    assert theta.n_features == 0
    np.testing.assert_allclose(theta.intercepts, np.log(mean[:-1] / mean[-1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        softmax.predict_proba(theta, np.zeros((1, 0)))[0], mean, rtol=0, atol=1e-14
    )
    # It maximizes the M-step objective: its gradient vanishes there.
    gradient = _objective(*_problem(np.zeros((300, 0)), responsibilities, theta), 0.0)[1]
    assert np.max(np.abs(gradient)) < 1e-10


def test_mlls_calls_no_solver(monkeypatch):
    models, target = _CELLS["K2-healthy"]()
    monkeypatch.setattr(em, "fit_soft", None)
    prior = softmax.predict_proba(models.conditional_model, target.z).mean(axis=0)
    result = fit_mlls(models.posterior_model, prior, target, EmConfig())
    assert result.iterations_run > 1


# The most the one-step EM's converged posteriors lie from those of the EM
# whose every M-step runs Newton to its step tolerance, on healthy cells.
# Both stop on the same 1e-8 surrogate tolerance, short of the optimum, so
# they stop at slightly different points.
CONVERGED_POSTERIOR_TOLERANCE = 1e-5


@pytest.mark.parametrize("kind, a, k, seed", [
    ("bernoulli_z", 0.5, 5.0, 1001),
    ("bernoulli_z", 0.3, 2.0, 2002),
    ("gaussian_z", 0.5, 5.0, 1001),
    ("gaussian_z", 0.8, 5.0, 3004),
])
def test_converged_posteriors_match_the_full_m_step_em(kind, a, k, seed):
    models, target = _pair(kind, a, seed, k)
    result = fit_cpsm(models, target, EmConfig())
    _, posterior, trace = row_wise_em(
        models, target, EmConfig(),
        lambda post, theta: fit_soft(target.z, post, FULL_M_STEP, init=theta),
    )
    assert result.iterations_run < EmConfig().max_em_iters
    assert trace.size - 1 < EmConfig().max_em_iters
    assert np.max(np.abs(result.target_posterior - posterior)) <= CONVERGED_POSTERIOR_TOLERANCE
    assert abs(result.loglik_trace[-1] - trace[-1]) <= 1e-6

