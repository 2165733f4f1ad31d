"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are fixed here and must not
be loosened.
"""
import itertools
import json
import time

import numpy as np
import pytest

import cpsm
from cpsm import (
    EmConfig,
    LabeledDataset,
    ShiftProtocolConfig,
    SoftmaxParams,
    SourceModels,
    SynthConfig,
    UnlabeledDataset,
    adjust_posterior,
    calibrate_intercept,
    fit_cpsm,
    fit_mlls,
    generate_pair,
    induce_conditional_shift,
    params_from_prior,
    predict_proba,
)
from cpsm.bench import run_single
from cpsm.cli import main as cli_main
from cpsm.softmax import FitConfig, fit_hard, log_likelihood, log_likelihood_grad

from helpers import (
    GaussianGenConfig,
    bayes_posterior_from_joint,
    enumerate_bernoulli_expectation,
    finite_difference_gradient,
    gaussian_family_posterior,
    generate_gaussian_family,
    random_discrete_joint,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _cell(kind: str, a: float, k: float, n: int, seed: int, methods):
    config = SynthConfig(
        dataset_kind=kind, n_source=n, n_target=n, shift_slope=k, target_prior=a, seed=seed
    )
    source, target = generate_pair(config)
    return run_single(source, target, list(methods), EmConfig(), False)


def _mean_metrics(kind, a, k, n, seeds, methods):
    sums_ba = {m: 0.0 for m in methods}
    sums_err = {m: 0.0 for m in methods}
    for seed in seeds:
        results = _cell(kind, a, k, n, seed, methods)
        for m in methods:
            sums_ba[m] += results[m][0]
            sums_err[m] += results[m][1]
    count = float(len(seeds))
    return (
        {m: sums_ba[m] / count for m in methods},
        {m: sums_err[m] / count for m in methods},
    )


def test_criterion_01_posterior_transform_is_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
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
        got = adjust_posterior(posterior, num, den).posterior
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"100 random discrete joints, max |error| {worst:.2e} (limit 1e-12), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_02_surrogate_loglik_never_decreases():
    start = time.perf_counter()
    cells = [(0.05, 5.0), (0.5, 5.0), (0.3, 2.0), (0.8, 5.0), (0.5, 0.0)]
    runs = 0
    worst_drop = 0.0
    fit_config = FitConfig()
    for kind in ("bernoulli_z", "gaussian_z"):
        for index, (a, k) in enumerate(cells):
            for rep in range(5):
                seed = 1000 * index + rep
                config = SynthConfig(
                    dataset_kind=kind, n_source=2000, n_target=2000,
                    shift_slope=k, target_prior=a, seed=seed,
                )
                source, target = generate_pair(config)
                models = SourceModels(
                    fit_hard(source, fit_config, "zx"), fit_hard(source, fit_config, "z")
                )
                result = fit_cpsm(models, target.unlabeled(), EmConfig())
                drops = np.diff(result.loglik_trace)
                worst_drop = min(worst_drop, float(drops.min())) if drops.size else worst_drop
                runs += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        runs >= 50 and worst_drop >= -1e-9 and elapsed < 120.0,
        f"{runs} seeded runs (n=2000, both synthetic families), worst trace step "
        f"{worst_drop:.2e} (limit -1e-9), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_03_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(0, 6))
        n_classes = int(rng.integers(2, 5))
        feats = rng.standard_normal((n, d))
        targets = rng.random((n, n_classes)) + 0.05
        targets /= targets.sum(axis=1, keepdims=True)
        flat0 = rng.standard_normal((n_classes - 1) * (d + 1))

        def value(flat):
            w = flat.reshape(n_classes - 1, d + 1)
            return log_likelihood(SoftmaxParams(n_classes, d, w[:, 0], w[:, 1:]), feats, targets)

        w0 = flat0.reshape(n_classes - 1, d + 1)
        gi, gs = log_likelihood_grad(
            SoftmaxParams(n_classes, d, w0[:, 0], w0[:, 1:]), feats, targets
        )
        analytic = np.hstack([gi[:, None], gs]).ravel()
        numeric = finite_difference_gradient(value, flat0, step=1e-6)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst < 1e-5 and elapsed < 10.0,
        f"100 random instances, worst relative gradient error {worst:.2e} (limit 1e-5), "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_criterion_04_no_shift_methods_agree():
    # The oracle rides along: in the no-shift cell all four methods should
    # look alike, not just the three the criterion names.
    methods = ("naive", "mlls", "cpsm", "oracle")
    ba, _ = _mean_metrics("bernoulli_z", 0.05, 0.0, 5000, range(100, 105), methods)
    spread = max(abs(ba[x] - ba[y]) for x, y in itertools.combinations(methods, 2))
    _report(
        4,
        spread <= 0.02,
        "no-shift cell (prior 0.05, slope 0, n=5000, 5 seeds): mean balanced accuracies "
        + ", ".join(f"{m}={ba[m]:.3f}" for m in methods)
        + f", max pairwise gap {spread:.3f} (limit 0.02)",
    )


def test_criterion_05_label_shift_correction_pays_off():
    methods = ("naive", "mlls", "cpsm")
    ba, _ = _mean_metrics("bernoulli_z", 0.5, 0.0, 5000, range(200, 205), methods)
    mlls_gap = ba["mlls"] - ba["naive"]
    cpsm_gap = ba["cpsm"] - ba["naive"]
    _report(
        5,
        mlls_gap >= 0.05 and cpsm_gap >= 0.05,
        f"label-shift cell (prior 0.05 -> 0.5, slope 0): naive={ba['naive']:.3f}, "
        f"mlls=+{mlls_gap:.3f}, cpsm=+{cpsm_gap:.3f} (each must be >= 0.05)",
    )


def test_criterion_06_conditional_shift_is_where_it_wins():
    methods = ("naive", "mlls", "cpsm")
    ba, _ = _mean_metrics("bernoulli_z", 0.05, 5.0, 5000, range(300, 305), methods)
    over_naive = ba["cpsm"] - ba["naive"]
    over_mlls = ba["cpsm"] - ba["mlls"]
    _report(
        6,
        over_naive >= 0.10 and over_mlls >= 0.10,
        f"conditional-shift cell (equal priors 0.05, slope 5): cpsm={ba['cpsm']:.3f}, "
        f"+{over_naive:.3f} over naive, +{over_mlls:.3f} over mlls (each must be >= 0.10)",
    )


def test_criterion_07_approximation_error_trend():
    methods = ("naive", "cpsm")
    sizes = (500, 1000, 2000, 5000, 10000)
    cpsm_err = []
    naive_err = []
    for n in sizes:
        _, err = _mean_metrics("bernoulli_z", 0.5, 5.0, n, range(400, 405), methods)
        cpsm_err.append(err["cpsm"])
        naive_err.append(err["naive"])
    increases = [max(b - a, 0.0) for a, b in zip(cpsm_err, cpsm_err[1:])]
    violations = sum(1 for v in increases if v > 0.0)
    trend_ok = violations <= 1 and max(increases) <= 0.01
    final_gap = naive_err[-1] - cpsm_err[-1]
    _report(
        7,
        trend_ok and final_gap >= 0.05,
        "approximation error over n=500..10000 (slope 5, prior 0.5): cpsm "
        + "->".join(f"{e:.3f}" for e in cpsm_err)
        + f"; naive at n=10000 {naive_err[-1]:.3f}, gap {final_gap:.3f} (>= 0.05); "
        f"{violations} adjacent increase(s), worst {max(increases):.4f} (<= 0.01)",
    )


def test_criterion_08_gaussian_family_oracle_consistency():
    rng = np.random.default_rng(0)
    conditional = SoftmaxParams(
        2, 5, np.array([-1.0]), np.array([[0.4, -0.3, 0.2, 0.1, -0.2]])
    )
    config = GaussianGenConfig(
        mixing_matrix=0.3 * rng.standard_normal((10, 5)),
        class_offsets=np.vstack(
            [np.array([1.2, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(10)]
        ),
        conditional_params=conditional,
    )
    data = generate_gaussian_family(config, 50000, seed=1)
    fitted = fit_hard(data, FitConfig(), "zx")
    truth = gaussian_family_posterior(config)
    feats = data.features("zx")
    gap = float(
        np.mean(np.abs(predict_proba(fitted, feats)[:, 0] - predict_proba(truth, feats)[:, 0]))
    )
    _report(
        8,
        gap < 0.01,
        f"softmax fit on 50000 family samples vs closed-form posterior: mean |gap| {gap:.4f} "
        "(limit 0.01)",
    )


def test_criterion_09_prior_only_reduction_is_bitwise():
    config = SynthConfig(
        dataset_kind="bernoulli_z", n_source=2000, n_target=2000,
        shift_slope=0.0, target_prior=0.4, source_cond_prob=0.2, seed=5,
    )
    source, target = generate_pair(config)
    posterior_model = fit_hard(source, FitConfig(), "zx")
    counts = np.bincount(source.y, minlength=3)[1:]
    prior = counts / counts.sum()
    unlabeled = target.unlabeled()

    via_mlls = fit_mlls(posterior_model, prior, unlabeled, EmConfig())
    merged = UnlabeledDataset(z=np.zeros((target.n_rows, 0)), x=unlabeled.features("zx"))
    models = SourceModels(posterior_model=posterior_model, conditional_model=params_from_prior(prior))
    via_cpsm = fit_cpsm(models, merged, EmConfig())

    same = (
        np.array_equal(via_mlls.loglik_trace, via_cpsm.loglik_trace)
        and np.array_equal(via_mlls.estimated_prior, via_cpsm.estimated_prior)
        and np.array_equal(via_mlls.target_posterior, via_cpsm.target_posterior)
        and np.array_equal(via_mlls.theta_hat.intercepts, via_cpsm.theta_hat.intercepts)
    )
    _report(
        9,
        same,
        f"prior-only fit and empty-conditioning fit agree bitwise over "
        f"{len(via_mlls.loglik_trace)} trace entries",
    )


def test_criterion_10_intercept_calibration_grid():
    worst = 0.0
    for prior in (0.05, 0.3, 0.5, 0.8):
        for slope in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            theta0 = calibrate_intercept(slope, prior, "bernoulli_z", 5)
            achieved = enumerate_bernoulli_expectation(theta0, slope, 5)
            worst = max(worst, abs(achieved - prior))
    _report(
        10,
        worst < 1e-4,
        f"24 calibration cells (priors x slopes), worst |achieved - target| {worst:.2e} "
        "(limit 1e-4, independent enumeration)",
    )


def test_criterion_11_shift_protocol_hits_rates():
    rng = np.random.default_rng(123)
    n_base = 60000
    zcol = (rng.random(n_base) < 0.5).astype(float)
    rate = 0.25 + 0.3 * zcol
    y = np.where(rng.random(n_base) < rate, 1, 2)
    x = rng.standard_normal((n_base, 3))
    x[:, 0] += (y == 1)
    base = LabeledDataset(z=zcol[:, None], x=x, y=y)

    config = ShiftProtocolConfig(
        base_rate=0.05, shift_delta=0.7, n_source=5000, n_target=5000, seed=9
    )
    source, target = induce_conditional_shift(base, config)
    q_z1 = float(np.mean(target.y[target.z[:, 0] == 1] == 1))
    p_z0 = float(np.mean(source.y[source.z[:, 0] == 0] == 1))
    p_z1 = float(np.mean(source.y[source.z[:, 0] == 1] == 1))
    ok = abs(q_z1 - 0.75) <= 0.02 and abs(p_z0 - 0.05) <= 0.01 and abs(p_z1 - 0.05) <= 0.01
    _report(
        11,
        ok,
        f"resampled rates: target rate given z=1 {q_z1:.3f} (want 0.75 +/- 0.02); "
        f"source rates {p_z0:.3f}/{p_z1:.3f} (want 0.05 +/- 0.01)",
    )


def test_criterion_12_benchmark_is_byte_deterministic(tmp_path):
    config = {
        "generator": {
            "kind": "synthetic",
            "dataset_kind": "bernoulli_z",
            "d_z": 3,
            "d_x": 4,
            "source_cond_prob": 0.2,
        },
        "methods": ["naive", "mlls", "cpsm", "oracle"],
        "grid": {"a": [0.4], "k": [0.0, 2.0], "n": [300]},
        "repetitions": 2,
        "base_seed": 7,
        "output_path": str(tmp_path / "metrics.csv"),
        "aggregate_path": str(tmp_path / "aggregate.csv"),
    }
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["benchmark", str(config_path)]) == 0
    first_metrics = (tmp_path / "metrics.csv").read_bytes()
    first_aggregate = (tmp_path / "aggregate.csv").read_bytes()
    assert cli_main(["benchmark", str(config_path)]) == 0
    same = (
        first_metrics == (tmp_path / "metrics.csv").read_bytes()
        and first_aggregate == (tmp_path / "aggregate.csv").read_bytes()
    )
    _report(
        12,
        same,
        f"repeated benchmark over 16 runs: metrics and aggregate CSVs byte-identical "
        f"({len(first_metrics)} bytes)",
    )
