import csv
import json

import dataclasses

import numpy as np
import pytest

from cpsm import bench
from cpsm.bench import read_metrics_csv
from cpsm.cli import main
from cpsm.data import read_dataset_csv
from cpsm.em import EmConfig
from cpsm.softmax import FitConfig
from cpsm.synth import SynthConfig


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _gen_config(tmp_path, out_name, **overrides):
    doc = {
        "kind": "synthetic",
        "dataset_kind": "bernoulli_z",
        "n_source": 120,
        "n_target": 80,
        "d_z": 2,
        "d_x": 3,
        "source_cond_prob": 0.3,
        "shift_slope": 1.0,
        "target_prior": 0.4,
        "seed": 7,
        "output_dir": str(tmp_path / out_name),
    }
    doc.update(overrides)
    return _write_json(tmp_path / f"{out_name}.json", doc)


def test_generate_writes_expected_files(tmp_path, capsys):
    config = _gen_config(tmp_path, "out")
    assert main(["generate", config]) == 0
    out = tmp_path / "out"
    source_lines = (out / "source.csv").read_text().splitlines()
    target_lines = (out / "target.csv").read_text().splitlines()
    assert len(source_lines) == 121
    assert len(target_lines) == 81
    assert source_lines[0] == "y,z1,z2,x1,x2,x3"
    # Unlabeled rows have an empty leading y field.
    assert all(line.startswith(",") for line in target_lines[1:])
    labels = (out / "target_labels.csv").read_text().splitlines()
    assert labels[0] == "y"
    assert len(labels) == 81
    assert "wrote" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    first = _gen_config(tmp_path, "a")
    second = _gen_config(tmp_path, "b")
    assert main(["generate", first]) == 0
    assert main(["generate", second]) == 0
    for name in ("source.csv", "target.csv", "target_labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_resample_kind(tmp_path):
    base = _gen_config(tmp_path, "base")
    assert main(["generate", base]) == 0
    doc = {
        "kind": "resample",
        "input_csv": str(tmp_path / "base" / "source.csv"),
        "base_rate": 0.2,
        "shift_delta": 0.3,
        "n_source": 60,
        "n_target": 60,
        "conditioning_column": 0,
        "seed": 3,
        "output_dir": str(tmp_path / "resampled"),
    }
    config = _write_json(tmp_path / "resample.json", doc)
    assert main(["generate", config]) == 0
    z, x, y = read_dataset_csv(tmp_path / "resampled" / "source.csv")
    assert y is not None and len(y) == 60


def test_generate_bad_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", str(bad)]) == 2
    assert "validation" in capsys.readouterr().err


def _generated_pair(tmp_path):
    config = _gen_config(tmp_path, "data", n_source=400, n_target=300)
    assert main(["generate", config]) == 0
    out = tmp_path / "data"
    return str(out / "source.csv"), str(out / "target.csv")


def test_adapt_naive_equals_zero_iteration_cpsm(tmp_path):
    source, target = _generated_pair(tmp_path)
    assert main(["adapt", source, target, "--method", "naive",
                 "--output", str(tmp_path / "naive")]) == 0
    assert main(["adapt", source, target, "--method", "cpsm", "--max-em-iters", "0",
                 "--output", str(tmp_path / "zero")]) == 0
    naive = (tmp_path / "naive.posterior.csv").read_bytes()
    zero = (tmp_path / "zero.posterior.csv").read_bytes()
    assert naive == zero


def test_adapt_rerun_is_identical(tmp_path):
    source, target = _generated_pair(tmp_path)
    for name in ("one", "two"):
        assert main(["adapt", source, target, "--method", "cpsm",
                     "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "one.fit.json").read_bytes() == (tmp_path / "two.fit.json").read_bytes()
    assert (
        tmp_path / "one.posterior.csv"
    ).read_bytes() == (tmp_path / "two.posterior.csv").read_bytes()


def test_adapt_mlls_and_fit_json_schema(tmp_path):
    source, target = _generated_pair(tmp_path)
    assert main(["adapt", source, target, "--method", "mlls",
                 "--output", str(tmp_path / "mlls")]) == 0
    doc = json.loads((tmp_path / "mlls.fit.json").read_text())
    assert doc["format_version"] == 1
    # Prior-only correction: the shifted model carries no conditioning slopes.
    assert doc["theta_hat"]["n_features"] == 0
    assert len(doc["estimated_prior"]) == 2
    with open(tmp_path / "mlls.posterior.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p1", "p2"]
    assert len(rows) == 301


def test_adapt_schema_mismatch_exits_2(tmp_path):
    source, _ = _generated_pair(tmp_path)
    other = _gen_config(tmp_path, "other", d_z=3, d_x=4)
    assert main(["generate", other]) == 0
    rc = main(["adapt", source, str(tmp_path / "other" / "target.csv"),
               "--output", str(tmp_path / "bad")])
    assert rc == 2


def test_adapt_labeled_target_rejected(tmp_path):
    source, _ = _generated_pair(tmp_path)
    assert main(["adapt", source, source, "--output", str(tmp_path / "bad")]) == 2


def test_adapt_missing_file_exits_4(tmp_path):
    source, target = _generated_pair(tmp_path)
    assert main(["adapt", str(tmp_path / "nope.csv"), target,
                 "--output", str(tmp_path / "x")]) == 4


def _bench_config(tmp_path, name="bench", **overrides):
    doc = {
        "generator": {
            "kind": "synthetic",
            "dataset_kind": "bernoulli_z",
            "d_z": 2,
            "d_x": 3,
            "source_cond_prob": 0.3,
        },
        "methods": ["naive", "oracle"],
        "grid": {"a": [0.3, 0.5], "k": [1.0], "n": [150]},
        "repetitions": 2,
        "base_seed": 11,
        "output_path": str(tmp_path / f"{name}.csv"),
        "aggregate_path": str(tmp_path / f"{name}_agg.csv"),
    }
    doc.update(overrides)
    return _write_json(tmp_path / f"{name}.json", doc)


def test_benchmark_row_count_and_order(tmp_path):
    config = _bench_config(tmp_path)
    assert main(["benchmark", config]) == 0
    rows = read_metrics_csv(tmp_path / "bench.csv")
    # 2 cells x 2 methods x 2 repetitions.
    assert len(rows) == 8
    keys = [(r.a, r.k, r.n, r.method, r.seed) for r in rows]
    assert keys == sorted(keys)
    assert all(np.isfinite(r.balanced_accuracy) for r in rows)
    assert all(r.wall_clock_seconds == 0.0 for r in rows)


def test_benchmark_is_byte_deterministic(tmp_path):
    config = _bench_config(tmp_path, name="det")
    assert main(["benchmark", config]) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert main(["benchmark", config]) == 0
    assert (tmp_path / "det.csv").read_bytes() == first


def test_benchmark_aggregate_matches_row_means(tmp_path):
    config = _bench_config(tmp_path, name="agg")
    assert main(["benchmark", config]) == 0
    rows = read_metrics_csv(tmp_path / "agg.csv")
    with open(tmp_path / "agg_agg.csv") as fh:
        agg = list(csv.DictReader(fh))
    for record in agg:
        cell = [
            r
            for r in rows
            if r.method == record["method"]
            and r.a == float(record["a"])
            and r.k == float(record["k"])
            and r.n == int(record["n"])
        ]
        mean = np.mean([r.balanced_accuracy for r in cell])
        assert abs(mean - float(record["balanced_accuracy_mean"])) < 1e-12


def test_benchmark_wall_clock_measurement_optional(tmp_path):
    config = _bench_config(
        tmp_path, name="timed", measure_wall_clock=True,
        grid={"a": [0.3], "k": [1.0], "n": [150]}, repetitions=1,
    )
    assert main(["benchmark", config]) == 0
    rows = read_metrics_csv(tmp_path / "timed.csv")
    assert any(r.wall_clock_seconds > 0.0 for r in rows)


def test_benchmark_records_failed_cells_and_continues(tmp_path, capsys):
    base = _gen_config(tmp_path, "rbase", n_source=200)
    assert main(["generate", base]) == 0
    # Strip all class-1 rows from the z1=1 stratum so resampling must fail.
    z, x, y = read_dataset_csv(tmp_path / "rbase" / "source.csv")
    keep = ~((y == 1) & (z[:, 0] == 1.0))
    from cpsm.data import write_dataset_csv

    write_dataset_csv(tmp_path / "broken.csv", z[keep], x[keep], y[keep])
    config = _bench_config(
        tmp_path,
        name="fail",
        generator={"kind": "resample", "input_csv": str(tmp_path / "broken.csv"),
                   "conditioning_column": 0},
        methods=["naive"],
        grid={"a": [0.2], "k": [0.3], "n": [50]},
        repetitions=2,
    )
    assert main(["benchmark", config]) == 0
    rows = read_metrics_csv(tmp_path / "fail.csv")
    assert len(rows) == 2
    assert all(np.isnan(r.balanced_accuracy) for r in rows)
    assert "run failed" in capsys.readouterr().err


def test_benchmark_config_missing_field_exits_2(tmp_path):
    config = _write_json(tmp_path / "bad.json", {"methods": ["naive"]})
    assert main(["benchmark", config]) == 2


def test_benchmark_unknown_method_exits_2(tmp_path, capsys):
    config = _bench_config(tmp_path, name="badm", methods=["naive", "bogus"])
    assert main(["benchmark", config]) == 2
    assert "bogus" in capsys.readouterr().err


def test_benchmark_config_defaults_come_from_the_config_classes():
    doc = {
        "generator": {"dataset_kind": "gaussian_z"},
        "methods": ["cpsm"],
        "grid": {"a": [0.3], "k": [1.0], "n": [50]},
        "repetitions": 1,
        "base_seed": 4,
        "output_path": "unused.csv",
    }
    config = bench.experiment_config_from_dict(doc)
    assert config.fit == FitConfig()
    assert config.em == EmConfig()
    [(cell, run)] = list(config.runs())
    assert cell == (0.3, 1.0, 50, 4)
    assert config.generator.config(**run) == SynthConfig(
        dataset_kind="gaussian_z", n_source=50, n_target=50,
        shift_slope=1.0, target_prior=0.3, seed=4,
    )

    # A partial inner block keeps the M-step defaults (200 iterations, no
    # ridge), and keys naming no setting, such as a fit seed or the former
    # step_size, are ignored.
    doc["em"] = {"inner": {"tolerance": 1e-6, "step_size": 0.5}}
    doc["fit"] = {"seed": 5, "step_size": 0.5, "max_iters": 50}
    config = bench.experiment_config_from_dict(doc)
    assert config.em.inner == dataclasses.replace(EmConfig().inner, tolerance=1e-6)
    assert config.em.inner.max_iters == 200 and config.em.inner.l2_penalty == 0.0
    assert config.fit == FitConfig(max_iters=50)


def _labeled_csv(tmp_path):
    base = _gen_config(tmp_path, "labeled")
    assert main(["generate", base]) == 0
    return str(tmp_path / "labeled" / "source.csv")


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("generate", {"kind": "resample", "base_rate": "abc", "shift_delta": 0.3}),
        ("generate", {"n_source": "many"}),
        ("benchmark", {"generator": ["bernoulli_z"]}),
        ("benchmark", {"em": {"inner": [1]}}),
        ("benchmark", {"fit": "fast"}),
        # A path must be a string: `open` takes an integer as a file
        # descriptor. An unopened descriptor number keeps a failure of the
        # check away from the test's own standard streams.
        ("generate", {"kind": "resample", "base_rate": 0.3, "shift_delta": 0.3,
                      "input_csv": 987654}),
        ("generate", {"output_dir": 987654}),
        ("generate", {"output_dir": ["out"]}),
        ("benchmark", {"generator": {"kind": "resample", "input_csv": ["labeled.csv"]}}),
        ("benchmark", {"output_path": 987654}),
        ("benchmark", {"aggregate_path": ["agg.csv"]}),
    ],
    ids=["resample-rate-not-a-number", "size-not-a-number", "generator-not-an-object",
         "inner-not-an-object", "fit-not-an-object", "input-csv-not-a-path",
         "output-dir-fd", "output-dir-list", "benchmark-input-csv-not-a-path",
         "output-path-fd", "aggregate-path-list"],
)
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, command, overrides):
    if overrides.get("kind") == "resample":
        overrides.setdefault("input_csv", _labeled_csv(tmp_path))
    # Both commands would write under tmp_path/out: the generated files in
    # that directory, or the metrics CSV out.csv next to it.
    make_config = _gen_config if command == "generate" else _bench_config
    config = make_config(tmp_path, "out", **overrides)
    capsys.readouterr()
    assert main([command, config]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert ("generation config" if command == "generate" else "benchmark config") in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"generator": {"dataset_kind": "bogus"}},
        {"grid": {"a": [1.5], "k": [1.0], "n": [150]}},
        {"grid": {"a": [0.3], "k": [-1.0], "n": [150]}},
        {"grid": {"a": [0.3], "k": [1.0], "n": [0]}},
        {"generator": {"kind": "resample"}, "grid": {"a": [0.2], "k": [0.9], "n": [50]}},
        {"generator": {"kind": "resample", "conditioning_column": 99},
         "grid": {"a": [0.2], "k": [0.3], "n": [50]}},
    ],
    ids=["bad-kind", "prior-out-of-range", "negative-slope", "zero-rows",
         "rate-plus-shift-out-of-range", "conditioning-column-out-of-range"],
)
def test_benchmark_rejects_unusable_generator_or_grid_before_any_run(tmp_path, capsys, overrides):
    if overrides.get("generator", {}).get("kind") == "resample":
        overrides["generator"]["input_csv"] = _labeled_csv(tmp_path)
    config = _bench_config(tmp_path, name="unusable", **overrides)
    capsys.readouterr()
    assert main(["benchmark", config]) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err and "run failed" not in captured.err
    assert not (tmp_path / "unusable.csv").exists()
    assert not (tmp_path / "unusable_agg.csv").exists()
