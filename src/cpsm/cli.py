"""Command-line entry point: dataset generation, adaptation, benchmark sweeps.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench
from .data import (
    UnlabeledDataset,
    read_dataset_csv,
    read_labeled_csv,
    write_dataset_csv,
    write_labels_csv,
    write_posterior_csv,
)
from .em import EmConfig, save_fit_json
from .errors import NumericalError, ValidationError
from .softmax import FitConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return doc


def cmd_generate(args) -> int:
    doc = _load_json(args.config)
    generator, out_dir = bench.parse_generation(doc)
    source, target = generator.pair()
    out_dir = args.output_dir or out_dir
    os.makedirs(out_dir, exist_ok=True)
    source_path = os.path.join(out_dir, "source.csv")
    target_path = os.path.join(out_dir, "target.csv")
    labels_path = os.path.join(out_dir, "target_labels.csv")
    write_dataset_csv(source_path, source.z, source.x, source.y)
    write_dataset_csv(target_path, target.z, target.x, None)
    write_labels_csv(labels_path, target.y)
    print(f"wrote {source_path}: {source.n_rows} rows, class-1 rate {np.mean(source.y == 1):.4f}")
    print(f"wrote {target_path}: {target.n_rows} rows (labels withheld)")
    print(f"wrote {labels_path}: evaluation-only labels, class-1 rate {np.mean(target.y == 1):.4f}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    source = read_labeled_csv(args.source, "source")
    z_t, x_t, y_t = read_dataset_csv(args.target)
    if y_t is not None:
        raise ValidationError(f"{args.target}: target must have empty y cells")
    if z_t.shape[1] != source.d_z or x_t.shape[1] != source.d_x:
        raise ValidationError(
            f"schema mismatch: source has z1..z{source.d_z},x1..x{source.d_x}, "
            f"target has z1..z{z_t.shape[1]},x1..x{x_t.shape[1]}"
        )
    target = UnlabeledDataset(z=z_t, x=x_t)

    em_config = EmConfig(max_em_iters=args.max_em_iters, em_tolerance=args.em_tolerance)
    fit = bench.adapt(args.method, bench.SourceFit(source, FitConfig()), target, em_config)

    json_path = f"{args.output}.fit.json"
    posterior_path = f"{args.output}.posterior.csv"
    save_fit_json(json_path, fit)
    write_posterior_csv(posterior_path, fit.target_posterior)
    print(f"method={args.method} iterations={fit.iterations_run} "
          f"estimated_prior={fit.estimated_prior.round(6).tolist()}")
    print(f"wrote {json_path} and {posterior_path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    config = bench.experiment_config_from_dict(_load_json(args.config))
    rows = bench.run_benchmark(config)
    n_failed = sum(1 for r in rows if not np.isfinite(r.balanced_accuracy))
    print(f"wrote {config.output_path}: {len(rows)} rows ({n_failed} failed)")
    if config.aggregate_path:
        print(f"wrote {config.aggregate_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsm",
        description="Shift-aware posterior adaptation: generate data, adapt classifiers, run benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write source.csv/target.csv/target_labels.csv from a JSON config")
    gen.add_argument("config", help="JSON generation config")
    gen.add_argument("--output-dir", default=None, help="override the config's output_dir")
    gen.set_defaults(func=cmd_generate)

    adapt = sub.add_parser("adapt", help="fit source models and adapt posteriors to a target CSV")
    adapt.add_argument("source", help="labeled source CSV")
    adapt.add_argument("target", help="unlabeled target CSV (empty y cells)")
    adapt.add_argument("--method", choices=bench.ADAPT_METHODS, default="cpsm")
    adapt.add_argument("--max-em-iters", type=int, default=EmConfig().max_em_iters)
    adapt.add_argument("--em-tolerance", type=float, default=EmConfig().em_tolerance)
    adapt.add_argument("--output", default="adapt", help="output prefix for .fit.json/.posterior.csv")
    adapt.set_defaults(func=cmd_adapt)

    benchp = sub.add_parser("benchmark", help="run a grid benchmark from a JSON config")
    benchp.add_argument("config", help="JSON benchmark config")
    benchp.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"cpsm: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"cpsm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"cpsm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
