"""Grid benchmark harness: generators x methods x repetitions to a metrics CSV.

Each grid cell (a, k, n) is run `repetitions` times; the run seed is
base_seed plus the flat run index, so any single run can be reproduced in
isolation. All methods within a run see the same generated pair. A failing
run is recorded as a row with NaN metrics and the sweep continues.
"""
from __future__ import annotations

import csv
import sys
import time
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .data import LabeledDataset, read_dataset_csv
from .em import EmConfig, fit_cpsm, fit_mlls, naive_posterior, SourceModels
from .errors import CpsmError, ValidationError
from .metrics import MetricRow, approximation_error, balanced_accuracy, classify, fit_oracle
from .softmax import FitConfig, fit_hard
from .synth import ShiftProtocolConfig, SynthConfig, induce_conditional_shift, generate_pair

METHODS = ("naive", "mlls", "cpsm", "oracle")
METRICS_HEADER = [
    "method",
    "a",
    "k",
    "n",
    "seed",
    "balanced_accuracy",
    "approx_error",
    "wall_clock_seconds",
]
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


# Generator fields that each grid cell or run fills in; a generator block
# sets only the others.
_SYNTH_CELL_FIELDS = ("n_source", "n_target", "shift_slope", "target_prior", "seed")
_RESAMPLE_CELL_FIELDS = ("base_rate", "shift_delta", "n_source", "n_target", "seed")


@dataclass
class SyntheticGeneratorSpec:
    """`SynthConfig` keyword arguments shared by every run of the grid."""

    settings: dict


@dataclass
class ResampleGeneratorSpec:
    """The labeled input plus `ShiftProtocolConfig` keyword arguments shared
    by every run of the grid."""

    input_csv: str
    settings: dict


@dataclass
class ExperimentConfig:
    generator: SyntheticGeneratorSpec | ResampleGeneratorSpec
    methods: list[str]
    grid_a: list[float]
    grid_k: list[float]
    grid_n: list[int]
    repetitions: int
    base_seed: int
    output_path: str
    aggregate_path: str | None = None
    measure_wall_clock: bool = False
    em: EmConfig = field(default_factory=EmConfig)
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not self.methods:
            raise ValidationError("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r}, expected one of {METHODS}")
        if not (self.grid_a and self.grid_k and self.grid_n):
            raise ValidationError("grid lists must be nonempty")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")


def config_fields(cls, doc: dict, supplied=()) -> dict:
    """Keyword arguments for the config dataclass `cls` read from a JSON object.

    A key naming an int or float field is converted to that type, other
    values are taken as they are. A field the document omits is left out,
    so the dataclass default applies; a required one raises KeyError.
    Fields named in `supplied`, which the caller fills in, and keys naming
    no field are ignored.
    """
    types = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in supplied:
            continue
        if f.name in doc:
            value = doc[f.name]
            out[f.name] = types[f.name](value) if types[f.name] in (int, float) else value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return out


def _em_config_from(doc: dict) -> EmConfig:
    settings = config_fields(EmConfig, doc, supplied=("inner",))
    if "inner" in doc:
        # A partial inner block keeps the M-step defaults, not FitConfig's.
        settings["inner"] = replace(EmConfig().inner, **config_fields(FitConfig, doc["inner"]))
    return EmConfig(**settings)


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate the benchmark JSON document."""
    try:
        gen_doc = doc["generator"]
        kind = gen_doc.get("kind", "synthetic")
        if kind == "synthetic":
            generator = SyntheticGeneratorSpec(
                config_fields(SynthConfig, gen_doc, supplied=_SYNTH_CELL_FIELDS)
            )
        elif kind == "resample":
            generator = ResampleGeneratorSpec(
                input_csv=gen_doc["input_csv"],
                settings=config_fields(
                    ShiftProtocolConfig, gen_doc, supplied=_RESAMPLE_CELL_FIELDS
                ),
            )
        else:
            raise ValidationError(f"unknown generator kind {kind!r}")
        grid = doc["grid"]
        return ExperimentConfig(
            generator=generator,
            methods=list(doc["methods"]),
            grid_a=[float(v) for v in grid["a"]],
            grid_k=[float(v) for v in grid["k"]],
            grid_n=[int(v) for v in grid["n"]],
            repetitions=int(doc["repetitions"]),
            base_seed=int(doc["base_seed"]),
            output_path=doc["output_path"],
            aggregate_path=doc.get("aggregate_path"),
            measure_wall_clock=bool(doc.get("measure_wall_clock", False)),
            em=_em_config_from(doc.get("em", {})),
            fit=FitConfig(**config_fields(FitConfig, doc.get("fit", {}))),
        )
    except KeyError as exc:
        raise ValidationError(f"benchmark config missing field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"benchmark config malformed: {exc}") from None


def _generate(config: ExperimentConfig, base_data, a: float, k: float, n: int, seed: int):
    gen = config.generator
    if isinstance(gen, SyntheticGeneratorSpec):
        return generate_pair(
            SynthConfig(
                n_source=n,
                n_target=n,
                shift_slope=k,
                target_prior=a,
                seed=seed,
                **gen.settings,
            )
        )
    proto = ShiftProtocolConfig(
        base_rate=a,
        shift_delta=k,
        n_source=n,
        n_target=n,
        seed=seed,
        **gen.settings,
    )
    return induce_conditional_shift(base_data, proto)


def run_single(
    source: LabeledDataset,
    target: LabeledDataset,
    methods: list[str],
    em: EmConfig,
    fit: FitConfig,
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
    models = SourceModels(
        posterior_model=fit_hard(source, fit, feature_block="zx"),
        conditional_model=fit_hard(source, fit, feature_block="z"),
    )
    t0 = clock()
    oracle_posterior = fit_oracle(target, fit)
    oracle_seconds = clock() - t0

    out = {}
    for method in methods:
        t0 = clock()
        if method == "naive":
            posterior = naive_posterior(models, unlabeled)
        elif method == "mlls":
            posterior = fit_mlls(
                models.posterior_model, source.class_prior(), unlabeled, em
            ).target_posterior
        elif method == "cpsm":
            posterior = fit_cpsm(models, unlabeled, em).target_posterior
        elif method == "oracle":
            posterior = oracle_posterior
        else:
            raise ValidationError(f"unknown method {method!r}")
        seconds = oracle_seconds if method == "oracle" else clock() - t0
        # Headline accuracy uses the plain Bayes rule for every method; the
        # uncorrected baseline gets no threshold adjustment either, which is
        # what makes shift costly for it.
        ba = balanced_accuracy(target.y, classify(posterior, 0.5))
        err = approximation_error(posterior, oracle_posterior)
        out[method] = (ba, err, seconds)
    return out


def run_benchmark(config: ExperimentConfig) -> list[MetricRow]:
    """Execute the grid, write the metrics CSV (and optional aggregate CSV)."""
    base_data = None
    if isinstance(config.generator, ResampleGeneratorSpec):
        z, x, y = read_dataset_csv(config.generator.input_csv)
        if y is None:
            raise ValidationError(f"{config.generator.input_csv}: resample input must be labeled")
        base_data = LabeledDataset(z=z, x=x, y=y)

    cells = [(a, k, n) for a in config.grid_a for k in config.grid_k for n in config.grid_n]
    rows: list[MetricRow] = []
    for cell_index, (a, k, n) in enumerate(cells):
        for rep in range(config.repetitions):
            seed = config.base_seed + cell_index * config.repetitions + rep
            try:
                source, target = _generate(config, base_data, a, k, n, seed)
                results = run_single(
                    source, target, config.methods, config.em, config.fit,
                    config.measure_wall_clock,
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


def write_metrics_csv(path, rows: list[MetricRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.method,
                    repr(float(r.a)),
                    repr(float(r.k)),
                    str(r.n),
                    str(r.seed),
                    repr(float(r.balanced_accuracy)),
                    repr(float(r.approx_error)),
                    repr(float(r.wall_clock_seconds)),
                ]
            )


def read_metrics_csv(path) -> list[MetricRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValidationError(f"{path}: unexpected metrics header {header}")
        for line in reader:
            rows.append(
                MetricRow(
                    method=line[0],
                    a=float(line[1]),
                    k=float(line[2]),
                    n=int(line[3]),
                    seed=int(line[4]),
                    balanced_accuracy=float(line[5]),
                    approx_error=float(line[6]),
                    wall_clock_seconds=float(line[7]),
                )
            )
    return rows


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for method, a, k, n, runs, ba_m, ba_s, err_m, err_s in aggregate_rows(rows):
            writer.writerow(
                [
                    method,
                    repr(float(a)),
                    repr(float(k)),
                    str(n),
                    str(runs),
                    repr(ba_m),
                    repr(ba_s),
                    repr(err_m),
                    repr(err_s),
                ]
            )
