"""The benchmark's trace contract: perfbench/tracing.py wraps cpsm functions by
name and reads the row count of an objective evaluation from its arguments,
so a rename or a signature change here would silently zero its per-layer
counters. These checks make such a change fail instead."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cpsm import softmax
from cpsm.softmax import FitConfig

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
