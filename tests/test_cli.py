import csv
import json
import math
import pathlib
import typing

import numpy as np
import pytest

from cpsm import bench
from cpsm.cli import main
from cpsm.data import read_dataset_csv
from cpsm.em import EmConfig
from cpsm.errors import ValidationError
from cpsm.metrics import MetricRow
from cpsm.synth import ShiftProtocolConfig, SynthConfig


def _read_metrics(path):
    """The rows of a benchmark metrics CSV, after checking its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == bench.METRICS_HEADER
        return [
            MetricRow(
                r["method"], float(r["a"]), float(r["k"]), int(r["n"]), int(r["seed"]),
                float(r["balanced_accuracy"]), float(r["approx_error"]),
                float(r["wall_clock_seconds"]),
            )
            for r in reader
        ]


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


def test_generate_with_more_than_1023_bernoulli_bits_exits_0(tmp_path):
    config = _gen_config(tmp_path, "wide", d_z=1024, d_x=1025, n_source=50, n_target=50,
                         shift_slope=0.02)
    assert main(["generate", config]) == 0
    z, x, y = read_dataset_csv(tmp_path / "wide" / "source.csv")
    assert z.shape == (50, 1024) and x.shape == (50, 1025) and y.shape == (50,)


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


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_adapt_non_finite_em_tolerance_exits_2_and_writes_nothing(tmp_path, capsys, tolerance):
    # A NaN tolerance fails every `gain < tolerance` test, so the EM would
    # run all its rounds with the stop rule silently off.
    source, target = _generated_pair(tmp_path)
    capsys.readouterr()
    assert main(["adapt", source, target, "--em-tolerance", tolerance,
                 "--output", str(tmp_path / "tol")]) == 2
    assert "em_tolerance must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "tol.fit.json").exists()
    assert not (tmp_path / "tol.posterior.csv").exists()


_HEADER = "y,z1,x1,x2\n"
_ROW = "1,0.0,0.5,1.0\n"
_UNLABELED = ",0.0,0.5,1.0\n"
_SOURCE_CSV = _HEADER + _ROW + "2,1.0,-0.5,0.0\n1,1.0,0.1,0.2\n"
_TARGET_CSV = _HEADER + _UNLABELED + ",1.0,-0.5,0.0\n"


@pytest.mark.parametrize(
    "role, text, fault",
    [
        ("source", _HEADER + _ROW + "2,1.0,-0.5\n", "line 3: expected 4 fields, got 3"),
        ("source", _HEADER + _ROW + "\n2,1.0,-0.5,0.0\n", "line 3: expected 4 fields, got 0"),
        ("source", _HEADER + _ROW + "x,1.0,-0.5,0.0\n", "line 3: field 'y': bad label 'x'"),
        ("source", _HEADER + _ROW + "1.0,1.0,-0.5,0.0\n", "line 3: field 'y': bad label"),
        ("source", _HEADER + _ROW + "0,1.0,-0.5,0.0\n", "line 3: field 'y': bad label '0'"),
        ("source", _HEADER + _ROW + "2,1.0,abc,0.0\n", "line 3: non-numeric feature value"),
        ("target", _HEADER + _UNLABELED + ",1.0,nan,0.0\n", "line 3: non-finite feature value"),
        ("source", _HEADER + _ROW + ",1.0,-0.5,0.0\n", "line 3: mixed labeled"),
        ("target", _HEADER + _UNLABELED + "2,1.0,-0.5,0.0\n", "line 3: mixed labeled"),
        ("target", _HEADER, "line 2: no data rows"),
        ("source", "", "line 1: empty file"),
        ("target", "y,z1,w1,x1\n" + _UNLABELED, "line 1: unexpected column 'w1'"),
    ],
    ids=["short-row", "blank-line", "label-x", "label-float", "label-zero", "non-numeric-feature",
         "nan-feature", "mixed-in-source", "mixed-in-target", "header-only", "empty-file",
         "unexpected-column"],
)
def test_adapt_names_the_file_and_line_of_a_malformed_csv(tmp_path, capsys, role, text, fault):
    files = {"source": _SOURCE_CSV, "target": _TARGET_CSV, role: text}
    for name, content in files.items():
        (tmp_path / f"{name}.csv").write_text(content)
    bad = tmp_path / f"{role}.csv"
    rc = main(["adapt", str(tmp_path / "source.csv"), str(tmp_path / "target.csv"),
               "--output", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "out.fit.json").exists()
    assert not (tmp_path / "out.posterior.csv").exists()


@pytest.mark.parametrize("role", ["source", "target"])
def test_adapt_rejects_a_csv_that_is_not_utf8(tmp_path, capsys, role):
    files = {"source": _SOURCE_CSV, "target": _TARGET_CSV}
    for name, content in files.items():
        (tmp_path / f"{name}.csv").write_text(content)
    bad = tmp_path / f"{role}.csv"
    bad.write_bytes(bad.read_bytes().replace(b"0.5", b"0.\xff"))
    rc = main(["adapt", str(tmp_path / "source.csv"), str(tmp_path / "target.csv"),
               "--output", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out.fit.json").exists()
    assert not (tmp_path / "out.posterior.csv").exists()


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
    rows = _read_metrics(tmp_path / "bench.csv")
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
    rows = _read_metrics(tmp_path / "agg.csv")
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
    rows = _read_metrics(tmp_path / "timed.csv")
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
    rows = _read_metrics(tmp_path / "fail.csv")
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
    assert config.em == EmConfig()
    [(cell, run)] = list(config.runs())
    assert cell == (0.3, 1.0, 50, 4)
    assert config.generator.config(**run) == SynthConfig(
        dataset_kind="gaussian_z", n_source=50, n_target=50,
        shift_slope=1.0, target_prior=0.3, seed=4,
    )

    # Keys naming no setting, such as a seed or the former step_size, are
    # rejected rather than left at a default.
    for em, key in [({"max_em_iters": 3, "seed": 5}, "seed"), ({"step_size": 0.5}, "step_size")]:
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            bench.experiment_config_from_dict({**doc, "em": em})


_MINIMAL_BENCHMARK = {
    "generator": {"dataset_kind": "gaussian_z"},
    "methods": ["cpsm"],
    "grid": {"a": [0.3], "k": [1.0], "n": [50]},
    "repetitions": 1,
    "base_seed": 4,
    "output_path": "unused.csv",
}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"methods": [1]}, "methods must be a JSON string"),
        ({"generator": {"dataset_kind": 5}}, "dataset_kind must be a JSON string"),
        ({"em": [1]}, "em must be a JSON object"),
        ({"grid": {"a": [0.3], "k": [1.0]}}, "missing field: 'grid.n'"),
    ],
    ids=["method-number", "dataset-kind-number", "em-list", "grid-n-missing"],
)
def test_benchmark_settings_are_read_as_their_field_types(overrides, message):
    with pytest.raises(ValidationError, match=message):
        bench.experiment_config_from_dict({**_MINIMAL_BENCHMARK, **overrides})


def test_benchmark_aggregate_path_may_be_null():
    doc = {**_MINIMAL_BENCHMARK, "aggregate_path": None}
    assert bench.experiment_config_from_dict(doc).aggregate_path is None


@pytest.mark.parametrize(
    "cls", [SynthConfig, ShiftProtocolConfig, EmConfig, bench.Grid, bench.ExperimentConfig]
)
def test_every_config_field_type_has_a_json_reader(cls):
    # A value of no JSON type fails the JSON type check of each field type
    # the reader handles; a type it does not handle fails with another message.
    for name, hint in typing.get_type_hints(cls).items():
        if cls is bench.ExperimentConfig and name == "generator":
            continue  # parsed as a generator block, not read as a field
        with pytest.raises(TypeError, match=f"^{name} must be a JSON "):
            bench._read(name, object(), hint)


@pytest.mark.parametrize("command", ["generate", "benchmark"])
def test_config_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys, command):
    make_config = _gen_config if command == "generate" else _bench_config
    config = pathlib.Path(make_config(tmp_path, "out"))
    config.write_bytes(config.read_bytes().replace(b"bernoulli_z", b"bernoulli_\xff"))
    capsys.readouterr()
    assert main([command, str(config)]) == 2
    assert f"{config}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.csv").exists()


def _labeled_csv(tmp_path):
    base = _gen_config(tmp_path, "labeled")
    assert main(["generate", base]) == 0
    return str(tmp_path / "labeled" / "source.csv")


@pytest.mark.parametrize(
    "command, overrides, names",
    [
        ("generate", {"kind": "resample", "base_rate": "abc", "shift_delta": 0.3}, "base_rate"),
        ("generate", {"n_source": "many"}, None),
        ("benchmark", {"generator": ["bernoulli_z"]}, None),
        # The former solver blocks name no setting.
        ("benchmark", {"em": {"inner": [1]}}, "'inner'"),
        ("benchmark", {"fit": "fast"}, "'fit'"),
        # A path must be a string: `open` takes an integer as a file
        # descriptor. An unopened descriptor number keeps a failure of the
        # check away from the test's own standard streams.
        ("generate", {"kind": "resample", "base_rate": 0.3, "shift_delta": 0.3,
                      "input_csv": 987654}, "input_csv"),
        ("generate", {"output_dir": 987654}, None),
        ("generate", {"output_dir": ["out"]}, None),
        ("benchmark", {"generator": {"kind": "resample", "input_csv": ["labeled.csv"]}}, None),
        ("benchmark", {"output_path": 987654}, None),
        ("benchmark", {"aggregate_path": ["agg.csv"]}, None),
        # Numbers must be finite: a NaN slope fails no comparison, and int()
        # of an infinity overflows.
        ("generate", {"shift_slope": math.nan}, None),
        ("benchmark", {"fit": {"l2_penalty": math.nan}}, "'fit'"),
        ("benchmark", {"em": {"em_tolerance": math.inf}}, None),
        ("generate", {"n_source": math.inf}, None),
        ("benchmark", {"grid": {"a": [0.3], "k": [1.0], "n": [math.inf]}}, None),
        # A key naming no setting would leave that setting at its default.
        ("generate", {"shift_slop": 5.0}, "'shift_slop'"),
        ("benchmark", {"em": {"max_em_iter": 2}}, "'max_em_iter'"),
        ("benchmark", {"grid": {"a": [0.3], "k": [1.0], "n": [150], "m": [1]}}, "'m'"),
        ("benchmark", {"generator": {"dataset_kind": "bernoulli_z", "d_y": 2}}, "'d_y'"),
        ("benchmark", {"repetition": 3}, "'repetition'"),
        ("benchmark", {"generator": {"kind": "synthetic", "input_csv": "labeled.csv"}},
         "'input_csv'"),
        # Integer settings take whole numbers only; a fraction is not truncated.
        ("generate", {"n_source": 120.5}, "n_source must be an integer"),
        ("benchmark", {"em": {"max_em_iters": 2.5}}, "max_em_iters must be an integer"),
        ("benchmark", {"grid": {"a": [0.3], "k": [1.0], "n": [150.5]}}, "n must be an integer"),
        # No value is coerced to a boolean or a list: "false" is a true
        # string, and the string "cpsm" would be the methods c, p, s and m.
        ("benchmark", {"measure_wall_clock": "false"}, "measure_wall_clock must be a JSON boolean"),
        ("benchmark", {"measure_wall_clock": 0}, "measure_wall_clock must be a JSON boolean"),
        ("benchmark", {"methods": "cpsm"}, "methods must be a JSON list"),
        ("benchmark", {"grid": {"a": 0.3, "k": [1.0], "n": [150]}}, "grid.a must be a JSON list"),
        ("benchmark", {"grid": {"a": [0.3], "k": "5", "n": [150]}}, "grid.k must be a JSON list"),
        ("benchmark", {"grid": {"a": [0.3], "k": [1.0], "n": 150}}, "grid.n must be a JSON list"),
        # A number must be a JSON number: float("5") reads a string as one,
        # and a boolean is an int to Python.
        ("generate", {"n_source": "120"}, "n_source must be a JSON number"),
        ("generate", {"shift_slope": "5"}, "shift_slope must be a JSON number"),
        ("benchmark", {"grid": {"a": ["0.3"], "k": [1.0], "n": [150]}}, "a must be a JSON number"),
        ("benchmark", {"grid": {"a": [0.3], "k": [True], "n": [150]}}, "k must be a JSON number"),
        ("generate", {"seed": True}, "seed must be a JSON number"),
        ("benchmark", {"repetitions": True}, "repetitions must be a JSON number"),
    ],
    ids=["resample-rate-not-a-number", "size-not-a-number", "generator-not-an-object",
         "inner-not-an-object", "fit-not-an-object", "input-csv-not-a-path",
         "output-dir-fd", "output-dir-list", "benchmark-input-csv-not-a-path",
         "output-path-fd", "aggregate-path-list", "slope-nan", "ridge-nan",
         "em-tolerance-infinite", "size-infinite", "grid-size-infinite",
         "unknown-generation-key", "unknown-em-key", "unknown-grid-key",
         "unknown-generator-key", "unknown-top-level-key", "synthetic-input-csv",
         "size-fraction", "em-rounds-fraction", "grid-size-fraction", "wall-clock-string",
         "wall-clock-number", "methods-string", "grid-a-number", "grid-k-string",
         "grid-n-number", "size-string", "slope-string", "grid-a-item-string",
         "grid-k-item-boolean", "seed-boolean", "repetitions-boolean"],
)
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, command, overrides, names):
    # Both commands would write under tmp_path/out: the generated files in
    # that directory, or the metrics CSV out.csv next to it.
    if overrides.get("kind") == "resample":
        # Resample keys only, so that the case fails for its own fault and
        # not for a synthetic key that the resample kind does not have.
        doc = {"n_source": 60, "n_target": 60, "input_csv": _labeled_csv(tmp_path),
               "output_dir": str(tmp_path / "out"), **overrides}
        config = _write_json(tmp_path / "out.json", doc)
    else:
        make_config = _gen_config if command == "generate" else _bench_config
        config = make_config(tmp_path, "out", **overrides)
    capsys.readouterr()
    assert main([command, config]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert ("generation config" if command == "generate" else "benchmark config") in err
    if names is not None:
        assert names in err
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
        {"grid": {"a": [0.3], "k": [math.nan], "n": [150]}},
        {"grid": {"a": [0.3], "k": [math.inf], "n": [150]}},
    ],
    ids=["bad-kind", "prior-out-of-range", "negative-slope", "zero-rows",
         "rate-plus-shift-out-of-range", "conditioning-column-out-of-range",
         "slope-nan", "slope-infinite"],
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
