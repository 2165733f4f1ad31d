"""scripts/bench_layers.py end to end on small inputs: with a baseline, its
cases keep the key trees of the committed BENCH_*.json files, and a baseline
that writes other CSV bytes stops the run."""
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = ROOT / "scripts" / "bench_layers.py"


def _main(argv, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # main puts --src on sys.path for its own generation.
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module.main(argv)


def _tree(value):
    return {k: _tree(v) for k, v in value.items()} if isinstance(value, dict) else None


def _committed_trees():
    """The key tree of each op's first case in the committed files."""
    trees = {}
    for name, ops in (("BENCH_calibration.json", ("read/write", "generate")),
                      ("BENCH_em_round.json", ("fit", "em"))):
        for case in json.loads((ROOT / name).read_text(encoding="utf-8"))["cases"]:
            if case["op"] in ops:
                trees.setdefault(case["op"], _tree(case))
    return trees


def test_a_run_against_a_baseline_keeps_the_committed_key_trees(tmp_path, monkeypatch, capsys):
    out = tmp_path / "layers.json"
    argv = ["--n", "300", "--rounds", "1", "--ops", "csv", "generate", "fit", "em",
            "--baseline", str(ROOT / "src"), "--out", str(out)]
    assert _main(argv, monkeypatch) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == result
    want = _committed_trees()
    assert [case["op"] for case in result["cases"]] == (
        ["read/write", "generate", "fit", "fit", "em"] * 2
    )
    for case in result["cases"]:
        assert _tree(case) == want[case["op"]]
        # Both sides run the same cpsm, so they agree with the first side.
        for key, value in case["src"].items():
            if key.endswith("_equals_first_side"):
                assert value is True
            elif key.startswith("max_abs_"):
                assert value == 0.0
        if case["op"] in ("fit", "em"):
            assert case["src"]["objective_evaluations"] == case["baseline"]["objective_evaluations"]
        if case["op"] == "generate":
            assert case["src"]["calibration_evaluations"] > 0


def test_a_baseline_that_writes_other_bytes_stops_the_run(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "src"
    shutil.copytree(ROOT / "src", baseline, ignore=shutil.ignore_patterns("__pycache__"))
    with open(baseline / "cpsm" / "data.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_write_rows = write_dataset_csv\n\n\n"
            "def write_dataset_csv(path, z, x, y):\n"
            "    _write_rows(path, z, x, y)\n"
            "    with open(path, 'a', encoding='utf-8') as out:\n"
            "        out.write('\\n')\n"
        )
    argv = ["--n", "300", "--rounds", "1", "--ops", "csv", "--baseline", str(baseline)]
    with pytest.raises(SystemExit, match="baseline wrote other bytes for bernoulli_z n=300"):
        _main(argv, monkeypatch)
