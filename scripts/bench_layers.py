"""Per-layer benchmark of the dataset CSV reader and writer, the
synthetic pair generator, the source fits, the EM and a benchmark grid.

    python scripts/bench_layers.py [--src DIR] [--baseline DIR] [--n N ...] [--rounds R]
                                   [--ops OP ...] [--out FILE]

Imports `cpsm` from `--src` (default: the src/ of this checkout). For both
synthetic families and each n (default 2k, 20k and 100k) it times four
ops, and once a fifth, grouped as `--ops` names them (default: all five
groups):

- `csv`, two ops:
  - `read`: `cpsm.data.read_dataset_csv` on the labeled source file of a
    generated pair with n rows;
  - `write`: `cpsm.data.write_dataset_csv` of the same rows;
- `generate`: `cpsm.synth.generate_pair` of a pair with n rows on each
  side (slope 5, prior 0.05, seed 1), its intercept calibration included;
- `fit`: `cpsm.softmax.fit_hard` with the default `FitConfig` on the
  source of the same pair, once on the `zx` block and once on `z`, each
  its own case;
- `em`: `cpsm.em.fit_cpsm` with a cap of EM_ROUNDS rounds on the same
  pair, from source models fitted (untimed) by `fit_hard` with the default
  `FitConfig`;
- `grid`: `cpsm.bench.run_benchmark` on the shape of the end-to-end
  benchmark's `grid-gaussian-2k` workload, whatever `--n`: `gaussian_z`
  pairs of GRID_N rows, prior a in GRID_A, slope k in GRID_K, one seed
  per cell, the four methods of GRID_METHODS and at most GRID_EM_ROUNDS
  EM rounds, its generation, fits and metrics CSV included.

Every timed call runs in a fresh Python process, one at a time, with one
BLAS thread; it reports its own seconds and peak RSS (`VmHWM` on Linux,
else `ru_maxrss`), so the memory is that of the one call plus the
interpreter, numpy and, for a write, the arrays it writes. A generate call
also reports a count that does not depend on the machine: how many times
the intercept calibration evaluated its expectation, and over how many
points in all. A fit or an em call reports machine-independent counts next
to its seconds: the objective evaluations (`softmax._objective` calls) and
the solver iterations (the steps `softmax._newton` took), and for an em
call also the EM rounds and the M-step fits (`fit_soft` calls from `em`);
a grid call reports the same counts over all of its fits. It counts them
in a second, untimed run of the same call, with those functions wrapped,
and checks that the two runs agree bit for bit. A cpsm whose `fit_hard`
runs another solver (the L-BFGS of older checkouts) reports its fit's
solver iterations as null.

With `--baseline DIR`, the `cpsm` under DIR (for example the src/ of a
checkout of the parent commit) runs on the same files, alternating with
`--src` in every round and going first in every other round, so that drift
of the machine falls on both. Each side's arrays from a read must be
bitwise equal, and each written file must equal the input file byte for
byte; a mismatch fails the run. The generated pairs, the fitted weights,
the EM posteriors and the grid's metrics are compared, not required equal:
a case records whether each side's source and target arrays or metrics CSV
equal those of the first side, and how far each side's weights, EM
posterior or metrics lie from the first side's, as the largest absolute
difference.

The JSON result, with the machine it ran on, goes to standard output and,
with `--out`, to a file.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("bernoulli_z", "gaussian_z")
DEFAULT_N = (2_000, 20_000, 100_000)
OPS = ("csv", "generate", "fit", "em", "grid")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 2.0**20

# The EM round cap of an em call, as in the benchmark's adapt-bernoulli-20k
# workload: every side and seed runs the same number of rounds.
EM_ROUNDS = 50

# The grid op's shape: that of the benchmark's grid-gaussian-2k workload.
GRID_FAMILY = "gaussian_z"
GRID_N = 2_000
GRID_A = (0.05, 0.5)
GRID_K = (0.0, 5.0)
GRID_METHODS = ("naive", "mlls", "cpsm", "oracle")
GRID_EM_ROUNDS = 40

# One timed call, run as `python -c _CALL op src arg1 arg2 [out extra]`:
# for a read or a write, arg1 and arg2 are the CSV and NPZ paths, for a
# generate, a fit, an em or a grid call the family and n. A read prints a
# digest of the arrays it returns; a write writes to the CSV path the
# arrays stored in the NPZ file; a generate prints a digest of each side of
# the pair; a fit call fits the feature block `extra` of the source, an em
# call runs at most `extra` EM rounds, and each saves its weights or
# posterior to the .npy path `out` and prints its counts; a grid call runs
# the grid, the JSON document `extra`, with its metrics CSV at `out`, and
# prints its counts.
_CALL = r"""
import hashlib, json, resource, sys, time
op, src, arg1, arg2, *extra = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from cpsm import bench, data, em, softmax, synth

def peak_kb():
    # VmHWM is this process's own high-water mark. ru_maxrss would do
    # elsewhere, but on Linux it keeps the launching process's peak
    # across fork and exec.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

class CountingNumpy:
    # Each evaluation of the intercept calibration's expectation ends in one
    # np.reciprocal over all of its points, and nothing else in
    # synth.generate_pair calls it. The count costs a Python call per
    # evaluation, a few dozen per pair.
    evaluations = points = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def reciprocal(self, a, *args, **kwargs):
        CountingNumpy.evaluations += 1
        CountingNumpy.points += np.size(a)
        return np.reciprocal(a, *args, **kwargs)

def solver_counts(call):
    # Wraps the objective and the Newton solver, where `fit_soft` looks them
    # up, and `fit_soft` where the EM's M-step looks it up, for one run of
    # `call`.
    counts = {"objective_evaluations": 0, "solver_iterations": 0, "solver_runs": 0,
              "m_steps": 0}

    def objective(*args, **kwargs):
        counts["objective_evaluations"] += 1
        return original["_objective"](*args, **kwargs)

    def solver(*args, **kwargs):
        w, trace = original["_newton"](*args, **kwargs)
        counts["solver_runs"] += 1
        counts["solver_iterations"] += len(trace) - 1
        return w, trace

    def m_step(*args, **kwargs):
        counts["m_steps"] += 1
        return original["fit_soft"](*args, **kwargs)

    wrapped = {(softmax, "_objective"): objective, (softmax, "_newton"): solver,
               (em, "fit_soft"): m_step}
    original = {name: getattr(module, name) for module, name in wrapped}
    for (module, name), fn in wrapped.items():
        setattr(module, name, fn)
    try:
        return call(), counts
    finally:
        for module, name in wrapped:
            setattr(module, name, original[name])

if op == "write":
    with np.load(arg2) as arrays:
        z, x, y = arrays["z"], arrays["x"], arrays["y"]
if op in ("generate", "fit", "em"):
    config = synth.SynthConfig(
        dataset_kind=arg1, n_source=int(arg2), n_target=int(arg2), shift_slope=5.0,
        target_prior=0.05, seed=1,
    )
if op == "generate":
    synth.np = CountingNumpy()
if op == "fit":
    source, _ = synth.generate_pair(config)
    fit_source = lambda: softmax.fit_hard(source, softmax.FitConfig(), extra[1])
if op == "em":
    source, target = synth.generate_pair(config)
    fit_config = softmax.FitConfig()
    models = em.SourceModels(
        softmax.fit_hard(source, fit_config, "zx"), softmax.fit_hard(source, fit_config, "z")
    )
    unlabeled = target.unlabeled()
    fit_em = lambda: em.fit_cpsm(models, unlabeled, em.EmConfig(max_em_iters=int(extra[1])))
if op == "grid":
    grid_doc = json.loads(extra[1])
    def run_grid(path):
        doc = dict(grid_doc, output_path=path)
        return bench.run_benchmark(bench.experiment_config_from_dict(doc))
before_kb = peak_kb()
start = time.perf_counter()
if op == "read":
    z, x, y = data.read_dataset_csv(arg1)
elif op == "write":
    data.write_dataset_csv(arg1, z, x, y)
elif op == "generate":
    source, target = synth.generate_pair(config)
elif op == "fit":
    params = fit_source()
elif op == "em":
    fit = fit_em()
else:
    run_grid(extra[0])
seconds = time.perf_counter() - start
peak_kb = peak_kb()
result = {"seconds": seconds, "rss_before_kb": before_kb, "peak_rss_kb": peak_kb,
          "module": data.__file__}
if op == "generate":
    result["source_digest"] = digest(source.z, source.x, source.y)
    result["target_digest"] = digest(target.z, target.x, target.y)
    result["calibration_evaluations"] = CountingNumpy.evaluations
    result["calibration_points"] = CountingNumpy.points
elif op == "fit":
    counted, counts = solver_counts(fit_source)
    weights = params.weight_matrix()
    result["digest"] = digest(weights)
    if digest(counted.weight_matrix()) != result["digest"]:
        raise SystemExit("the counted fit differs from the timed one")
    result["objective_evaluations"] = counts["objective_evaluations"]
    result["solver_iterations"] = counts["solver_iterations"] if counts["solver_runs"] else None
    np.save(extra[0], weights)
elif op == "em":
    counted, counts = solver_counts(fit_em)
    result["digest"] = digest(fit.target_posterior, fit.loglik_trace)
    if digest(counted.target_posterior, counted.loglik_trace) != result["digest"]:
        raise SystemExit("the counted EM run differs from the timed one")
    result.update(counts, em_rounds=fit.iterations_run,
                  final_surrogate=float(fit.loglik_trace[-1]))
    np.save(extra[0], fit.target_posterior)
elif op == "grid":
    with open(extra[0], "rb") as fh:
        result["digest"] = hashlib.sha256(fh.read()).hexdigest()
    counted_path = extra[0] + ".counted"
    _, counts = solver_counts(lambda: run_grid(counted_path))
    with open(counted_path, "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != result["digest"]:
            raise SystemExit("the counted grid run differs from the timed one")
    result.update(counts)
else:
    result["digest"] = digest(z, x, y)
print(json.dumps(result))
"""


def machine() -> dict:
    import numpy as np

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _call(op: str, src: Path, *args) -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    done = subprocess.run(
        [sys.executable, "-c", _CALL, op, str(src), *map(str, args)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_layers.py: {op} with {src} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if Path(result["module"]).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench_layers.py: imported {result['module']}, expected it under {src}")
    return result


def _summary(calls: list[dict], size_mb: float | None = None) -> dict:
    seconds = [c["seconds"] for c in calls]
    median = statistics.median(seconds)
    summary = {
        "median_s": round(median, 4),
        "min_s": round(min(seconds), 4),
        "seconds": [round(s, 4) for s in seconds],
        "peak_rss_mb": round(max(c["peak_rss_kb"] for c in calls) / 1024, 1),
        "rss_before_call_mb": round(max(c["rss_before_kb"] for c in calls) / 1024, 1),
    }
    if size_mb is not None:
        summary["mb_per_s"] = round(size_mb / median, 2)
    return summary


def generate_case(family: str, n: int, sides: dict, rounds: int) -> dict:
    """`generate_pair` timings and calibration counts of each side."""
    calls = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            calls[name].append(_call("generate", sides[name], family, n))
    case = {"op": "generate", "family": family, "n": n}
    first = calls[names[0]][0]
    for name in names:
        for key in ("source_digest", "target_digest"):
            if len({c[key] for c in calls[name]}) != 1:
                raise SystemExit(f"bench_layers.py: {name} generated different {family} n={n} pairs")
        last = calls[name][-1]
        case[name] = {
            **_summary(calls[name]),
            "calibration_evaluations": last["calibration_evaluations"],
            "calibration_points": last["calibration_points"],
            "source_equals_first_side": last["source_digest"] == first["source_digest"],
            "target_equals_first_side": last["target_digest"] == first["target_digest"],
        }
    if "baseline" in sides:
        case["speedup"] = round(case["baseline"]["median_s"] / case["src"]["median_s"], 2)
    return case


def csv_case(family: str, n: int, sides: dict, work: Path, rounds: int) -> dict:
    """Read and write timings of each side on one generated file."""
    import numpy as np
    from cpsm.data import write_dataset_csv
    from cpsm.synth import SynthConfig, generate_pair

    source, _ = generate_pair(SynthConfig(
        dataset_kind=family, n_source=n, n_target=1, shift_slope=5.0, target_prior=0.05, seed=1,
    ))
    csv_path = work / f"{family}-{n}.csv"
    npz_path = work / f"{family}-{n}.npz"
    write_dataset_csv(csv_path, source.z, source.x, source.y)
    np.savez(npz_path, z=source.z, x=source.x, y=source.y)
    size_mb = csv_path.stat().st_size / MB
    want = _sha256(csv_path)
    calls = {name: {"read": [], "write": []} for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            calls[name]["read"].append(_call("read", sides[name], csv_path, npz_path))
            out = work / f"{name}-written.csv"
            calls[name]["write"].append(_call("write", sides[name], out, npz_path))
            if _sha256(out) != want:
                raise SystemExit(f"bench_layers.py: {name} wrote other bytes for {family} n={n}")
    digests = {c["digest"] for side in calls.values() for c in side["read"]}
    if len(digests) != 1:
        raise SystemExit(f"bench_layers.py: reads of {family} n={n} returned different arrays")
    case = {"op": "read/write", "family": family, "n": n, "file_mb": round(size_mb, 2),
            "file_sha256": want}
    for name in names:
        case[name] = {op: _summary(calls[name][op], size_mb) for op in ("read", "write")}
    if "baseline" in sides:
        case["read_speedup"] = round(
            case["baseline"]["read"]["median_s"] / case["src"]["read"]["median_s"], 2
        )
    return case


def fit_case(family: str, n: int, block: str, sides: dict, work: Path, rounds: int) -> dict:
    """`fit_hard` timings and counts of each side on one block of a
    generated source."""
    import numpy as np

    calls = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            out = work / f"{name}-{family}-{n}-{block}-weights.npy"
            calls[name].append(_call("fit", sides[name], family, n, out, block))
    first = np.load(work / f"{names[0]}-{family}-{n}-{block}-weights.npy")
    case = {"op": "fit", "family": family, "n": n, "block": block}
    for name in names:
        if len({c["digest"] for c in calls[name]}) != 1:
            raise SystemExit(f"bench_layers.py: {name} fitted different {family} n={n} {block}")
        last = calls[name][-1]
        weights = np.load(work / f"{name}-{family}-{n}-{block}-weights.npy")
        case[name] = {
            **_summary(calls[name]),
            "solver_iterations": last["solver_iterations"],
            "objective_evaluations": last["objective_evaluations"],
            "max_abs_weight_diff_vs_first_side": float(np.max(np.abs(weights - first))),
        }
    if "baseline" in sides:
        case["speedup"] = round(case["baseline"]["median_s"] / case["src"]["median_s"], 2)
    return case


def em_case(family: str, n: int, sides: dict, work: Path, rounds: int) -> dict:
    """`fit_cpsm` timings and counts of each side on one generated pair."""
    import numpy as np

    calls = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            out = work / f"{name}-{family}-{n}-posterior.npy"
            calls[name].append(_call("em", sides[name], family, n, out, EM_ROUNDS))
    first = np.load(work / f"{names[0]}-{family}-{n}-posterior.npy")
    case = {"op": "em", "family": family, "n": n, "max_em_iters": EM_ROUNDS}
    for name in names:
        if len({c["digest"] for c in calls[name]}) != 1:
            raise SystemExit(f"bench_layers.py: {name} fitted different {family} n={n} EMs")
        last = calls[name][-1]
        posterior = np.load(work / f"{name}-{family}-{n}-posterior.npy")
        case[name] = {
            **_summary(calls[name]),
            **{key: last[key] for key in (
                "em_rounds", "m_steps", "solver_iterations", "objective_evaluations",
                "final_surrogate",
            )},
            "max_abs_posterior_diff_vs_first_side": float(np.max(np.abs(posterior - first))),
        }
    if "baseline" in sides:
        case["speedup"] = round(case["baseline"]["median_s"] / case["src"]["median_s"], 2)
    return case


def _metric_columns(path: Path):
    """The balanced_accuracy and approx_error columns of a metrics CSV."""
    import numpy as np

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r[key]) for key in ("balanced_accuracy", "approx_error")]
                     for r in rows])


def grid_case(sides: dict, work: Path, rounds: int) -> dict:
    """`run_benchmark` timings and counts of each side on the grid op's
    shape."""
    import numpy as np

    doc = {
        "generator": {"kind": "synthetic", "dataset_kind": GRID_FAMILY},
        "methods": list(GRID_METHODS),
        "grid": {"a": list(GRID_A), "k": list(GRID_K), "n": [GRID_N]},
        "repetitions": 1,
        "base_seed": 1,
        "em": {"max_em_iters": GRID_EM_ROUNDS},
    }
    calls = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            out = work / f"{name}-grid-metrics.csv"
            calls[name].append(_call("grid", sides[name], GRID_FAMILY, GRID_N, out, json.dumps(doc)))
    first = calls[names[0]][0]["digest"]
    first_metrics = _metric_columns(work / f"{names[0]}-grid-metrics.csv")
    case = {"op": "grid", "family": GRID_FAMILY, "n": GRID_N, "a": list(GRID_A),
            "k": list(GRID_K), "methods": list(GRID_METHODS), "max_em_iters": GRID_EM_ROUNDS}
    for name in names:
        if len({c["digest"] for c in calls[name]}) != 1:
            raise SystemExit(f"bench_layers.py: {name} wrote different grid metrics")
        last = calls[name][-1]
        metrics = _metric_columns(work / f"{name}-grid-metrics.csv")
        case[name] = {
            **_summary(calls[name]),
            **{key: last[key] for key in ("m_steps", "solver_iterations", "objective_evaluations")},
            "metrics_csv_equals_first_side": last["digest"] == first,
            "max_abs_metric_diff_vs_first_side": float(np.max(np.abs(metrics - first_metrics))),
        }
    if "baseline" in sides:
        case["speedup"] = round(case["baseline"]["median_s"] / case["src"]["median_s"], 2)
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory to import cpsm from (default: this checkout's)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second src/ to compare against, for example the parent commit's")
    parser.add_argument("--n", type=int, nargs="+", default=list(DEFAULT_N),
                        help="row counts (default: 2000 20000 100000)")
    parser.add_argument("--rounds", type=int, default=3, help="timed calls per side and case")
    parser.add_argument("--ops", nargs="+", choices=OPS, default=list(OPS),
                        help="op groups to run (default: all)")
    parser.add_argument("--out", type=Path, default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    if args.rounds < 1 or min(args.n) < 1:
        parser.error("--rounds and every --n must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    sides = {"src": src} if args.baseline is None else {
        "baseline": args.baseline.resolve(), "src": src,
    }
    cases = []
    with tempfile.TemporaryDirectory(prefix="bench_layers-") as tmp:
        for n in args.n:
            for family in FAMILIES:
                if "csv" in args.ops:
                    cases.append(csv_case(family, n, sides, Path(tmp), args.rounds))
                if "generate" in args.ops:
                    cases.append(generate_case(family, n, sides, args.rounds))
                if "fit" in args.ops:
                    for block in ("zx", "z"):
                        cases.append(fit_case(family, n, block, sides, Path(tmp), args.rounds))
                if "em" in args.ops:
                    cases.append(em_case(family, n, sides, Path(tmp), args.rounds))
        if "grid" in args.ops:
            cases.append(grid_case(sides, Path(tmp), args.rounds))
    result = {
        "machine": machine(),
        "sides": {name: str(path) for name, path in sides.items()},
        "rounds": args.rounds,
        "cases": cases,
    }
    text = json.dumps(result, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
