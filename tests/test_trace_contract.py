"""The benchmark's trace contract: perfbench/tracing.py wraps cpsm functions by
name and reads the row count of an objective evaluation from its arguments,
so a rename or a signature change here would silently zero its per-layer
counters. These checks make such a change fail instead."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cpsm import em, softmax, synth
from cpsm.em import EmConfig, SourceModels
from cpsm.softmax import FitConfig, fit_hard

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_on_the_package():
    tracing = _tracing()
    for target in tracing.TARGETS:
        module_name, attr = target.split(".", 1)
        module = importlib.import_module(f"cpsm.{module_name}")
        assert callable(getattr(module, attr, None)), target
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing == []


def test_traced_fit_soft_records_objective_rows():
    rng = np.random.default_rng(5)
    n = 37
    feats = rng.standard_normal((n, 3))
    targets = rng.random((n, 3)) + 0.1
    targets /= targets.sum(axis=1, keepdims=True)
    tracer = _tracing().Tracer()
    with tracer.installed():
        softmax.fit_soft(feats, targets, FitConfig())
    fits = [i for i, span in enumerate(tracer.spans) if span[0] == "softmax.fit_soft"]
    evals = [span for span in tracer.spans if span[0] == "softmax._objective"]
    assert len(fits) == 1
    assert len(evals) > 1
    for name, _, _, parent, count in evals:
        assert parent == fits[0]
        assert count == n


def test_traced_em_rounds_count_the_rounds_of_a_fit():
    # perfbench's em.rounds counts the M-step fit_soft calls under a traced
    # em.fit_cpsm, as the CLI reaches it through the package; a fit_cpsm
    # bound before the tracer was installed is not traced, and reads 0.
    source, target = synth.generate_pair(synth.SynthConfig(
        dataset_kind="bernoulli_z", n_source=2000, n_target=2000, shift_slope=5.0,
        target_prior=0.05, seed=1,
    ))
    models = SourceModels(fit_hard(source, FitConfig(), "zx"), fit_hard(source, FitConfig(), "z"))
    config = EmConfig(max_em_iters=12)
    tracing = _tracing()
    fit_cpsm = em.fit_cpsm  # bound here, before the tracer patches em

    def traced_rounds(through_module):
        tracer = tracing.Tracer()
        with tracer.installed():
            fit = (em.fit_cpsm if through_module else fit_cpsm)(models, target.unlabeled(), config)
        assert fit.iterations_run == 12
        return tracing.em_rounds(tracer.spans)

    assert traced_rounds(through_module=True) == (12, 0)
    assert traced_rounds(through_module=False) == (0, 0)
