"""Span recording from outside the program: wrap cpsm functions where they
are bound, record (name, start, end, parent) per call, and reduce the spans
to per-layer self times and counts.

Nothing in `src/` knows about this module. `install` replaces module
attributes of already-imported `cpsm` modules, so a call is traced when it
goes through one of the patched names; a call through a name that was not
patched is part of its caller's self time.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# Functions wrapped in the traced run, keyed by "<module>.<function>" under
# the `cpsm` package. Every cpsm module attribute bound to the function is
# replaced, so both its import sites and calls inside its own module are
# seen. `softmax._objective` is private: the package has no public counter
# of objective evaluations yet.
TARGETS = (
    "cli.main",
    "bench.run_benchmark",
    "bench.run_single",
    "data.read_dataset_csv",
    "data.write_dataset_csv",
    "synth.generate_pair",
    "synth.calibrate_intercept",
    "softmax.fit_hard",
    "softmax.fit_soft",
    "softmax.predict_proba",
    "softmax._objective",
    "adjust.adjust_posterior",
    "em.fit_cpsm",
    "em.fit_mlls",
    "em.naive_posterior",
    "metrics.fit_oracle",
    "metrics.classify",
    "metrics.balanced_accuracy",
    "metrics.approximation_error",
)


def _work_count(name: str, args) -> int:
    """A work count carried on the span: rows for an objective evaluation,
    bytes for a CSV read."""
    if name == "softmax._objective":
        return int(args[1].shape[0])
    if name == "data.read_dataset_csv":
        try:
            return os.path.getsize(args[0])
        except OSError:
            return 0  # the traced call reports the unreadable file itself
    return 0


class Tracer:
    """In-memory span list. Spans are [name, start, end, parent, count];
    `parent` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, clock(), 0.0, parent, _work_count(name, args)]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        """Patch every loaded cpsm module attribute bound to a target."""
        self.missing = []
        modules = [m for key, m in sys.modules.items() if key == "cpsm" or key.startswith("cpsm.")]
        for target in TARGETS:
            module_name, attr = target.split(".", 1)
            module = sys.modules.get(f"cpsm.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(target)
                continue
            traced = self.wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "missing": self.missing, "spans": self.spans}, fh)


def load_spans(path) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, summed count.

    Two names are split by the work they serve: `softmax.fit_soft` under
    `fit_hard` is part of a hard-label fit and is reported as
    `softmax.fit_soft@hard`, and `em.fit_cpsm` under `em.fit_mlls` is the
    prior-only EM and is reported as `em.fit_cpsm@mlls`.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        key = name
        if name == "softmax.fit_soft" and "softmax.fit_hard" in _ancestors(spans, i):
            key = "softmax.fit_soft@hard"
        elif name == "em.fit_cpsm" and "em.fit_mlls" in _ancestors(spans, i):
            key = "em.fit_cpsm@mlls"
        row = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["count"] += count
    return out


def em_rounds(spans) -> tuple[int, int]:
    """(cpsm rounds, prior-only rounds): M-step `fit_soft` calls whose
    nearest EM driver is `fit_cpsm` or `fit_mlls`."""
    cpsm = mlls = 0
    for i, span in enumerate(spans):
        if span[0] != "softmax.fit_soft":
            continue
        chain = list(_ancestors(spans, i))
        if "softmax.fit_hard" in chain:
            continue
        if "em.fit_mlls" in chain:
            mlls += 1
        elif "em.fit_cpsm" in chain:
            cpsm += 1
    return cpsm, mlls
