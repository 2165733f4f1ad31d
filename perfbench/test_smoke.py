"""Smoke test of the benchmark itself at tiny sizes (n=300 rows).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a wrong output is counted as a failed operation without stopping the run,
and that the benchmark refuses to run without the repository's sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _scratch_dir():
    run.WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_ROOT)


def _bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit():
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                          "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (workload, trace)


def test_corrupted_posterior_counts_as_failure():
    def corrupt_then_check(case, tag, deadline, spans_path=None):
        check = case.check

        def check_corrupted(tag):
            path = case.outputs(tag)[1]
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[1] = "0.5,0.4"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return check(tag)

        case.check = check_corrupted
        return run.run_cli(case, tag, deadline, spans_path)

    result = run.run("adapt-bernoulli-20k", 7, 0.1, trace=False, tiny=True,
                     run_op=corrupt_then_check)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])
    assert result["metrics"]["success_frac"]["value"] == 0.0


def test_posterior_row_not_summing_to_one_is_an_error():
    with _scratch_dir() as tmp:
        path = Path(tmp) / "bad.posterior.csv"
        path.write_text("p1,p2\n0.25,0.75\n0.5,0.4\n", encoding="utf-8")
        errors, posterior = run.check_posterior_csv(path, 2)
        assert posterior is None and "row 2 sums to" in errors[0]
        assert run.check_posterior_csv(path, 3)[0]


def test_grid_row_with_nan_is_an_error():
    with _scratch_dir() as tmp:
        spec = run.WORKLOADS["grid-gaussian-2k"]
        case = run.GridCase(spec, None, Path(tmp), seed=7)
        case.reference = {}
        rows = [",".join(run.GridCase.HEADER)]
        for a, k in case.cells:
            for method in spec.methods:
                rows.append(f"{method},{a!r},{k!r},{spec.n},0,nan,0.1,0.0")
        (Path(tmp) / "op.metrics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        errors, _ = case.check("op")
        assert any("NaN" in e for e in errors)


def test_refuses_to_run_without_the_sources():
    with _scratch_dir() as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "grid-gaussian-2k", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
