"""Run driver of the CLI commands: generator blocks, the adaptation methods
and the grid benchmark.

Each grid cell (a, k, n) is run `repetitions` times; the run seed is
base_seed plus the flat run index, so any single run can be reproduced in
isolation. All methods within a run see the same generated pair. A config
that no run can use is rejected before the first run; a run that fails on
its data is recorded as a row with NaN metrics and the sweep continues.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import typing
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, read_labeled_csv, write_csv
from .em import CpsmFit, EmConfig, fit_cpsm, fit_mlls, SourceModels
from .errors import CpsmError, ValidationError, json_number
from .metrics import MetricRow, approximation_error, balanced_accuracy, classify, fit_oracle
from .softmax import FitConfig, SoftmaxParams, fit_hard
from .synth import ShiftProtocolConfig, SynthConfig, induce_conditional_shift, generate_pair

ADAPT_METHODS = ("naive", "mlls", "cpsm")
METHODS = ADAPT_METHODS + ("oracle",)
METRICS_HEADER = [f.name for f in fields(MetricRow)]
AGGREGATE_HEADER = [
    "method",
    "a",
    "k",
    "n",
    "runs",
    "balanced_accuracy_mean",
    "balanced_accuracy_std",
    "approx_error_mean",
    "approx_error_std",
]

# Per generator kind: its config class, and the fields that a benchmark run
# sets from its (a, k, n, n, seed); a generator block sets only the others.
_KINDS = {
    "synthetic": (SynthConfig, ("target_prior", "shift_slope", "n_source", "n_target", "seed")),
    "resample": (ShiftProtocolConfig, ("base_rate", "shift_delta", "n_source", "n_target", "seed")),
}


@contextlib.contextmanager
def _config_errors(what: str):
    """Report a key missing from a JSON config, or a value of the wrong type
    or form, as a ValidationError."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what} missing field: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} malformed: {exc}") from None


_JSON_TYPES = {dict: "object", list: "list", bool: "boolean", str: "string"}


def _as_json(value, kind: type, name: str):
    """`value` if it has the JSON type `kind`. Nothing else is coerced to
    it: bool("false") is True, list("cpsm") is four one-letter methods, and
    `open` takes an integer path as a file descriptor."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _read(name: str, value, hint):
    """The JSON `value` of the setting `name` read as its field type `hint`:
    a list item by item, `X | None` as null or an X, and a config dataclass
    as an object of its fields. Raises TypeError or ValueError."""
    args = typing.get_args(hint)
    if hint in (int, float):
        return json_number(name, value, hint)
    if hint in (bool, str, dict):
        return _as_json(value, hint, name)
    if typing.get_origin(hint) is list:
        return [_read(name, item, args[0]) for item in _as_json(value, list, name)]
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        return None if value is None else _read(name, value, inner)
    if is_dataclass(hint):
        return hint(**config_fields(hint, value, prefix=f"{name}."))
    raise TypeError(f"{name} has a field type that no JSON value reads as: {hint}")


def config_fields(cls, doc, supplied=(), extra=(), prefix: str = "") -> dict:
    """Keyword arguments for the config dataclass `cls` from a JSON object,
    each field read by `_read` and named `prefix` plus its key. An omitted
    field keeps its default; a required one raises KeyError. Fields in
    `supplied` are the caller's and ignored. A key naming no field and not
    in `extra` raises ValueError, lest a misspelt key leave its setting at
    the default without a word."""
    _as_json(doc, dict, prefix.rstrip(".") or "a config section")
    allowed = {f.name for f in fields(cls)}.union(extra)
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ValueError(
            f"unknown key {', '.join(map(repr, unknown))}, expected one of {sorted(allowed)}"
        )
    types = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in supplied:
            continue
        if f.name in doc:
            out[f.name] = _read(prefix + f.name, doc[f.name], types[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(prefix + f.name)
    return out


@dataclass(frozen=True)
class Generator:
    """A parsed generator block: its kind, the config fields it sets and,
    for the resample kind, the labeled input it draws from."""

    kind: str
    settings: dict
    base: LabeledDataset | None = None

    def config(self, **run) -> SynthConfig | ShiftProtocolConfig:
        """The kind's config from the block's fields plus the per-run `run`,
        checked against the resample input."""
        config = _KINDS[self.kind][0](**self.settings, **run)
        if self.base is not None:
            config.check_input(self.base)
        return config

    def pair(self, **run) -> tuple[LabeledDataset, LabeledDataset]:
        """A (source, target) pair; target labels are for evaluation only."""
        config = self.config(**run)
        if self.base is None:
            return generate_pair(config)
        return induce_conditional_shift(self.base, config)


def parse_generator(doc, grid: bool = False, extra=()) -> Generator:
    """Read and check a generator block, which may also hold the keys in
    `extra`. With `grid`, each benchmark run supplies the per-run fields,
    and the block's own values for them are ignored."""
    with _config_errors("benchmark config" if grid else "generation config"):
        kind = _as_json(doc, dict, "the generator").get("kind", "synthetic")
        if kind not in _KINDS:
            raise ValidationError(f"unknown generator kind {kind!r}")
        cls, run_fields = _KINDS[kind]
        extra = ("kind", "input_csv", *extra) if kind == "resample" else ("kind", *extra)
        settings = config_fields(cls, doc, supplied=run_fields if grid else (), extra=extra)
        base = None
        if kind == "resample":
            base = read_labeled_csv(_read("input_csv", doc["input_csv"], str), "resample input")
    return Generator(kind, settings, base)


def parse_generation(doc: dict) -> tuple[Generator, str]:
    """A `cpsm generate` config: its generator block and output directory."""
    with _config_errors("generation config"):
        generator = parse_generator(doc, extra=("output_dir",))
        return generator, _read("output_dir", doc.get("output_dir", "."), str)


@dataclass
class Grid:
    """The benchmark's cells: every (a, k, n) of the three lists."""

    a: list[float]
    k: list[float]
    n: list[int]

    def __post_init__(self):
        if not (self.a and self.k and self.n):
            raise ValidationError("grid lists must be nonempty")


@dataclass
class ExperimentConfig:
    generator: Generator
    methods: list[str]
    grid: Grid
    repetitions: int
    base_seed: int
    output_path: str
    aggregate_path: str | None = None
    measure_wall_clock: bool = False
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if not self.methods:
            raise ValidationError("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r}, expected one of {METHODS}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        for _, run in self.runs():
            self.generator.config(**run)

    def runs(self):
        """Each run in order as ((a, k, n, seed), the generator fields it sets)."""
        run_fields = _KINDS[self.generator.kind][1]
        cells = [(a, k, n) for a in self.grid.a for k in self.grid.k for n in self.grid.n]
        for cell_index, (a, k, n) in enumerate(cells):
            for rep in range(self.repetitions):
                seed = self.base_seed + cell_index * self.repetitions + rep
                yield (a, k, n, seed), dict(zip(run_fields, (a, k, n, n, seed)))


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate the benchmark JSON document, including the
    generator config of every run."""
    with _config_errors("benchmark config"):
        return ExperimentConfig(
            generator=parse_generator(doc["generator"], grid=True),
            **config_fields(ExperimentConfig, doc, supplied=("generator",)),
        )


@dataclass
class SourceFit:
    """A labeled source and its models, each fitted on first use and then
    shared by every method; the prior-only correction needs no z-model."""

    data: LabeledDataset

    @functools.cached_property
    def posterior_model(self) -> SoftmaxParams:
        return fit_hard(self.data, FitConfig(), feature_block="zx")

    @functools.cached_property
    def models(self) -> SourceModels:
        return SourceModels(
            posterior_model=self.posterior_model,
            conditional_model=fit_hard(self.data, FitConfig(), feature_block="z"),
        )


def adapt(method: str, source: SourceFit, target: UnlabeledDataset, em: EmConfig) -> CpsmFit:
    """One adaptation method on the target rows. `naive` is the zero-round
    EM, which reproduces the uncorrected source posterior."""
    if method == "mlls":
        return fit_mlls(source.posterior_model, source.data.class_prior(), target, em)
    if method == "naive":
        em = replace(em, max_em_iters=0)
    elif method != "cpsm":
        raise ValidationError(f"unknown method {method!r}, expected one of {ADAPT_METHODS}")
    return fit_cpsm(source.models, target, em)


def run_single(
    source: LabeledDataset,
    target: LabeledDataset,
    methods: list[str],
    em: EmConfig,
    measure_wall_clock: bool,
) -> dict[str, tuple[float, float, float]]:
    """All requested methods on one generated pair.

    Returns per method (balanced_accuracy, approx_error, wall_clock_seconds).
    Wall clock covers only the method-specific computation; the shared source
    model fits are excluded.
    """
    if source.n_classes != 2 or target.n_classes != 2:
        raise ValidationError("benchmark supports binary labels only")
    clock = time.perf_counter if measure_wall_clock else (lambda: 0.0)
    unlabeled = target.unlabeled()
    source_fit = SourceFit(source)
    source_fit.models  # both source fits, before any method is timed
    t0 = clock()
    oracle_posterior = fit_oracle(target, FitConfig())
    oracle_seconds = clock() - t0

    out = {}
    for method in methods:
        t0 = clock()
        if method == "oracle":
            posterior, seconds = oracle_posterior, oracle_seconds
        else:
            posterior = adapt(method, source_fit, unlabeled, em).target_posterior
            seconds = clock() - t0
        # Headline accuracy uses the plain Bayes rule for every method; the
        # uncorrected baseline gets no threshold adjustment either, which is
        # what makes shift costly for it.
        ba = balanced_accuracy(target.y, classify(posterior, 0.5))
        err = approximation_error(posterior, oracle_posterior)
        out[method] = (ba, err, seconds)
    return out


def run_benchmark(config: ExperimentConfig) -> list[MetricRow]:
    """Execute the grid, write the metrics CSV (and optional aggregate CSV)."""
    rows: list[MetricRow] = []
    for (a, k, n, seed), run in config.runs():
        try:
            source, target = config.generator.pair(**run)
            results = run_single(
                source, target, config.methods, config.em, config.measure_wall_clock
            )
            for method in config.methods:
                ba, err, seconds = results[method]
                rows.append(MetricRow(method, a, k, n, seed, ba, err, seconds))
        except CpsmError as exc:
            print(
                f"benchmark: run failed (a={a}, k={k}, n={n}, seed={seed}): {exc}",
                file=sys.stderr,
            )
            nan = float("nan")
            for method in config.methods:
                rows.append(MetricRow(method, a, k, n, seed, nan, nan, nan))
    rows.sort(key=lambda r: (r.a, r.k, r.n, r.method, r.seed))
    write_metrics_csv(config.output_path, rows)
    if config.aggregate_path:
        write_aggregate_csv(config.aggregate_path, rows)
    return rows


def _cell(value) -> str:
    """A metrics or aggregate CSV cell: a float by `repr`, a string or an
    int as it is."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_metrics_csv(path, rows: list[MetricRow]) -> None:
    write_csv(path, METRICS_HEADER, (map(_cell, astuple(r)) for r in rows))


def aggregate_rows(rows: list[MetricRow]) -> list[tuple]:
    """Per-cell mean and sample standard deviation, NaN runs excluded."""
    groups: dict[tuple, list[MetricRow]] = {}
    for r in rows:
        groups.setdefault((r.a, r.k, r.n, r.method), []).append(r)
    out = []
    for (a, k, n, method) in sorted(groups):
        cell = [r for r in groups[(a, k, n, method)] if np.isfinite(r.balanced_accuracy)]
        if not cell:
            out.append((method, a, k, n, 0, float("nan"), float("nan"), float("nan"), float("nan")))
            continue
        ba = np.array([r.balanced_accuracy for r in cell])
        err = np.array([r.approx_error for r in cell])
        std = (lambda v: float(np.std(v, ddof=1)) if v.size > 1 else 0.0)
        out.append(
            (
                method, a, k, n, len(cell),
                float(ba.mean()), std(ba), float(err.mean()), std(err),
            )
        )
    return out


def write_aggregate_csv(path, rows: list[MetricRow]) -> None:
    write_csv(path, AGGREGATE_HEADER, (map(_cell, row) for row in aggregate_rows(rows)))
