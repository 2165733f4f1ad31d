"""One rule per kind of setting, in `cpsm.errors`: a real number's range, a
name among a fixed few, and the files of a command. Each message below is
the exact one a caller sees; each command refuses two of its files that are
one file before it writes anything."""
import json
import math
import os
import pathlib

import numpy as np
import pytest

from cpsm import (
    EmConfig,
    FitConfig,
    ShiftProtocolConfig,
    SynthConfig,
    UnlabeledDataset,
    ValidationError,
    calibrate_intercept,
    classify,
    generate_pair,
)
from cpsm import bench, cli
from cpsm.cli import main
from cpsm.data import write_dataset_csv

_GAUSSIAN = {"dataset_kind": "gaussian_z", "n_source": 10, "n_target": 10}
_PROTOCOL = {"base_rate": 0.2, "shift_delta": 0.1, "n_source": 10, "n_target": 10}
_BENCHMARK = {
    "generator": {"dataset_kind": "gaussian_z"},
    "methods": ["cpsm"],
    "grid": {"a": [0.3], "k": [1.0], "n": [50]},
    "repetitions": 1,
    "base_seed": 4,
    "output_path": "unused.csv",
}
_Z_DISTRIBUTIONS = "('bernoulli_z', 'gaussian_z')"


@pytest.mark.parametrize("call, message", [
    # Ranged reals: each range has one wording, and the message gives the value.
    (lambda: EmConfig(em_tolerance=0.0), "em_tolerance must be positive and finite, got 0.0"),
    (lambda: FitConfig(tolerance=-1.0), "tolerance must be positive and finite, got -1.0"),
    (lambda: FitConfig(l2_penalty=-0.5), "l2_penalty must be nonnegative and finite, got -0.5"),
    (lambda: SynthConfig(**_GAUSSIAN, source_cond_prob=1.0),
     "source_cond_prob must lie in (0, 1), got 1.0"),
    (lambda: SynthConfig(**_GAUSSIAN, target_prior=0.0),
     "target_prior must lie in (0, 1), got 0.0"),
    (lambda: SynthConfig(**_GAUSSIAN, shift_slope=-1.0),
     "shift_slope must be nonnegative and finite, got -1.0"),
    (lambda: SynthConfig(**_GAUSSIAN, shift_slope=math.inf),
     "shift_slope must be nonnegative and finite, got inf"),
    (lambda: calibrate_intercept(1.0, 1.5, "gaussian_z", 5),
     "target_prior must lie in (0, 1), got 1.5"),
    (lambda: calibrate_intercept(math.nan, 0.3, "gaussian_z", 5),
     "shift_slope must be finite, got nan"),
    (lambda: ShiftProtocolConfig(**{**_PROTOCOL, "base_rate": 0.0}),
     "base_rate must lie in (0, 1), got 0.0"),
    (lambda: ShiftProtocolConfig(**{**_PROTOCOL, "shift_delta": math.nan}),
     "shift_delta must be finite, got nan"),
    (lambda: ShiftProtocolConfig(**{**_PROTOCOL, "shift_delta": -math.inf}),
     "shift_delta must be finite, got -inf"),
    (lambda: classify([[0.5, 0.5]], 1.0), "threshold must lie in (0, 1), got 1.0"),
    # Name choices: the name, the value and every valid value.
    (lambda: SynthConfig(**{**_GAUSSIAN, "dataset_kind": "uniform_z"}),
     f"unknown dataset_kind 'uniform_z', expected one of {_Z_DISTRIBUTIONS}"),
    (lambda: calibrate_intercept(1.0, 0.3, "uniform_z", 5),
     f"unknown z distribution 'uniform_z', expected one of {_Z_DISTRIBUTIONS}"),
    (lambda: bench.parse_generator({"kind": "bogus"}),
     "unknown generator kind 'bogus', expected one of ('synthetic', 'resample')"),
    (lambda: bench.experiment_config_from_dict({**_BENCHMARK, "methods": ["cpsm", "bogus"]}),
     "unknown method 'bogus', expected one of ('naive', 'mlls', 'cpsm', 'oracle')"),
    (lambda: bench.adapt("oracle", None, None, EmConfig()),
     "unknown method 'oracle', expected one of ('naive', 'mlls', 'cpsm')"),
    (lambda: UnlabeledDataset(z=[[0.0]], x=[[1.0]]).features("x"),
     "unknown feature block 'x', expected one of ('z', 'zx')"),
], ids=["em_tolerance", "tolerance", "l2_penalty", "source_cond_prob", "target_prior",
        "shift_slope", "shift_slope-infinite", "calibrate-target_prior", "calibrate-shift_slope",
        "base_rate", "shift_delta-nan", "shift_delta-infinite", "threshold", "dataset_kind",
        "z-distribution", "generator-kind", "benchmark-method", "adapt-method", "feature-block"])
def test_each_rule_has_one_message(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def _labeled_csv(path):
    """A small labeled `bernoulli_z` source, whose first z column is binary."""
    source, _ = generate_pair(SynthConfig("bernoulli_z", n_source=80, n_target=10, d_z=2, d_x=3,
                                          source_cond_prob=0.3, seed=1))
    write_dataset_csv(path, source.z, source.x, source.y)
    return path


def _snapshot(directory: pathlib.Path) -> dict:
    """Every file under `directory` with its bytes, and every link with its target."""
    return {str(path.relative_to(directory)): os.readlink(path) if path.is_symlink()
            else path.read_bytes() for path in directory.rglob("*") if not path.is_dir()}


def _refuses(argv, tmp_path, capsys):
    """`cpsm argv` exits 2, naming two settings of one file, and changes no file."""
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert "name the same file" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("linked", [False, True], ids=["direct", "symbolic-link"])
def test_generate_refuses_to_write_over_its_resample_input(tmp_path, capsys, linked):
    (tmp_path / "out").mkdir()
    input_csv = _labeled_csv(tmp_path / "out" / "source.csv")
    if linked:
        (tmp_path / "link.csv").symlink_to(input_csv)
        input_csv = tmp_path / "link.csv"
    config = tmp_path / "resample.json"
    config.write_text(json.dumps({"kind": "resample", "input_csv": str(input_csv),
                                  "base_rate": 0.3, "shift_delta": 0.3, "n_source": 40,
                                  "n_target": 40, "output_dir": str(tmp_path / "out")}))
    _refuses(["generate", str(config)], tmp_path, capsys)


@pytest.mark.parametrize("role", ["source", "target"])
def test_adapt_refuses_to_write_over_an_input(tmp_path, capsys, role):
    # The source named PREFIX.fit.json, or the target PREFIX.posterior.csv.
    names = {"source": "run.fit.json", "target": "run.posterior.csv"}
    if role == "source":
        names["target"] = "target.csv"
    else:
        names["source"] = "source.csv"
    source = _labeled_csv(tmp_path / names["source"])
    _, target = generate_pair(SynthConfig("bernoulli_z", n_source=10, n_target=30, d_z=2, d_x=3))
    write_dataset_csv(tmp_path / names["target"], target.z, target.x, None)
    _refuses(["adapt", str(source), str(tmp_path / names["target"]),
              "--output", str(tmp_path / "run")], tmp_path, capsys)


@pytest.mark.parametrize("setting", ["output_path", "aggregate_path"])
def test_benchmark_with_a_missing_output_directory_fails_before_its_first_run(
        tmp_path, capsys, monkeypatch, setting):
    def never(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "run_single", never)
    paths = {"output_path": str(tmp_path / "metrics.csv"),
             "aggregate_path": str(tmp_path / "aggregate.csv"),
             setting: str(tmp_path / "nodir" / "table.csv")}
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({**_BENCHMARK, **paths}))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["benchmark", str(config)]) == 4
    assert f"i/o error: {paths[setting]}: no such directory" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_adapt_with_a_missing_output_directory_fails_before_reading_a_csv(
        tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a CSV was read")

    monkeypatch.setattr(cli, "read_labeled_csv", never)
    monkeypatch.setattr(cli, "read_dataset_csv", never)
    source = _labeled_csv(tmp_path / "source.csv")
    _, target = generate_pair(SynthConfig("bernoulli_z", n_source=10, n_target=30, d_z=2, d_x=3))
    write_dataset_csv(tmp_path / "target.csv", target.z, target.x, None)
    prefix = tmp_path / "nodir" / "x"
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["adapt", str(source), str(tmp_path / "target.csv"), "--output", str(prefix)]) == 4
    assert f"i/o error: {prefix}.fit.json: no such directory" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before
    assert not (tmp_path / "nodir").exists()


def test_outputs_in_the_current_directory_need_no_directory(tmp_path, monkeypatch):
    # A bare file name has an empty directory part: the current directory.
    monkeypatch.chdir(tmp_path)
    config = bench.experiment_config_from_dict({
        **_BENCHMARK, "generator": {"dataset_kind": "bernoulli_z", "source_cond_prob": 0.3},
        "methods": ["naive"], "grid": {"a": [0.3], "k": [1.0], "n": [200]},
        "output_path": "metrics.csv", "aggregate_path": "aggregate.csv"})
    [row] = bench.run_benchmark(config)
    assert np.isfinite(row.balanced_accuracy)
    assert sorted(os.listdir(tmp_path)) == ["aggregate.csv", "metrics.csv"]
