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
BLAS thread, and with nothing in `cpsm` patched; it reports its own seconds
and peak RSS (`VmHWM` on Linux, else `ru_maxrss`), so the memory is that of
the one call plus the interpreter, numpy and, for a write, the arrays it
writes. Every op but a read or a write also reports counts that do not
depend on the machine: a generate call, how many times the intercept
calibration evaluated its expectation, and over how many points in all; a
fit or an em call, the objective evaluations (`softmax._objective` calls)
and the solver iterations (the steps `softmax._newton` took), and for an
em call also the EM rounds and the M-step fits (`fit_soft` calls from
`em`); a grid call, the same counts over all of its fits. The counts come
from a second, untimed run of the same call in the same process, with
those functions wrapped, which must agree with the timed run bit for bit.

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
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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

# One timed call, run as `python -c _CALL SPEC`, SPEC a JSON object with
# the op, the src/ to import cpsm from and the op's named arguments. Each op
# sets up its call untimed and returns it with its report, a function of
# the call's value that returns the value's digests and fields (an op with
# an `out` argument also saves there the array the first-side comparison
# reads), and with the counters to install for the counted run, if any.
_CALL = r"""
import hashlib, json, resource, sys, time
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import numpy as np
from cpsm import bench, data, em, softmax, synth

counts = {}

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

def pair_config(family, n):
    return synth.SynthConfig(dataset_kind=family, n_source=n, n_target=n, shift_slope=5.0,
                             target_prior=0.05, seed=1)

class CountingNumpy:
    # Each evaluation of the intercept calibration's expectation ends in one
    # np.reciprocal over all of its points, and nothing else in
    # synth.generate_pair calls it.
    def __getattr__(self, name):
        return getattr(np, name)

    def reciprocal(self, a, *args, **kwargs):
        counts["calibration_evaluations"] += 1
        counts["calibration_points"] += np.size(a)
        return np.reciprocal(a, *args, **kwargs)

def counting(module, name, key, step=lambda result: 1):
    # module.name wrapped to add step(its result) to counts[key] at each call.
    fn = getattr(module, name)
    counts[key] = 0

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[key] += step(result)
        return result
    return {(module, name): wrapper}

def solver_counters():
    # The objective and the Newton solver where `fit_soft` and `fit_hard`
    # look them up, and `fit_soft` where the EM's M-step looks it up.
    return {**counting(softmax, "_objective", "objective_evaluations"),
            **counting(softmax, "_newton", "solver_iterations", lambda wt: len(wt[1]) - 1),
            **counting(em, "fit_soft", "m_steps")}

def read_call(path):
    return lambda: data.read_dataset_csv(path), lambda zxy: {"digest": digest(*zxy)}, {}

def write_call(path, arrays):
    with np.load(arrays) as npz:
        z, x, y = npz["z"], npz["x"], npz["y"]
    return lambda: data.write_dataset_csv(path, z, x, y), lambda _: {}, {}

def generate_call(family, n):
    config = pair_config(family, n)
    counts.update(calibration_evaluations=0, calibration_points=0)
    return (lambda: synth.generate_pair(config),
            lambda pair: {f"{side}_digest": digest(rows.z, rows.x, rows.y)
                          for side, rows in zip(("source", "target"), pair)},
            {(synth, "np"): CountingNumpy()})

def fit_call(family, n, block, out):
    source, _ = synth.generate_pair(pair_config(family, n))

    def report(params):
        weights = params.weight_matrix()
        np.save(out, weights)
        return {"digest": digest(weights)}
    return lambda: softmax.fit_hard(source, softmax.FitConfig(), block), report, solver_counters()

def em_call(family, n, max_em_iters, out):
    source, target = synth.generate_pair(pair_config(family, n))
    fit_config = softmax.FitConfig()
    models = em.SourceModels(
        softmax.fit_hard(source, fit_config, "zx"), softmax.fit_hard(source, fit_config, "z")
    )
    unlabeled = target.unlabeled()

    def report(fit):
        np.save(out, fit.target_posterior)
        return {"digest": digest(fit.target_posterior, fit.loglik_trace),
                "em_rounds": fit.iterations_run, "final_surrogate": float(fit.loglik_trace[-1])}
    return (lambda: em.fit_cpsm(models, unlabeled, em.EmConfig(max_em_iters=max_em_iters)),
            report, solver_counters())

def grid_call(family, n, a, k, methods, max_em_iters, out):
    doc = {
        "generator": {"kind": "synthetic", "dataset_kind": family}, "methods": methods,
        "grid": {"a": a, "k": k, "n": [n]}, "repetitions": 1, "base_seed": 1,
        "em": {"max_em_iters": max_em_iters}, "output_path": out + ".csv",
    }

    def report(rows):
        np.save(out, [[r.balanced_accuracy, r.approx_error] for r in rows])
        with open(out + ".csv", "rb") as fh:
            return {"digest": hashlib.sha256(fh.read()).hexdigest()}
    return (lambda: bench.run_benchmark(bench.experiment_config_from_dict(doc)), report,
            solver_counters())

call, report, counters = globals()[spec["op"] + "_call"](**spec["args"])
before_kb = peak_kb()
start = time.perf_counter()
value = call()
seconds = time.perf_counter() - start
result = {"seconds": seconds, "rss_before_kb": before_kb, "peak_rss_kb": peak_kb(),
          "module": data.__file__, **report(value)}
if counters:
    # The counted run: untimed, with the counters installed. Its report
    # (which saves the same array again) must equal the timed run's.
    original = {key: getattr(*key) for key in counters}
    for (module, name), fn in counters.items():
        setattr(module, name, fn)
    try:
        counted = report(call())
    finally:
        for (module, name), fn in original.items():
            setattr(module, name, fn)
    if any(counted[key] != result[key] for key in counted):
        raise SystemExit(f"the counted {spec['op']} run differs from the timed one")
print(json.dumps({**result, **counts}))
"""


def machine() -> dict:
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


def _call(op: str, src: Path, args: dict) -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    spec = json.dumps({"op": op, "src": str(src), "args": args})
    done = subprocess.run(
        [sys.executable, "-c", _CALL, spec], env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_layers.py: {op} with {src} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if Path(result["module"]).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench_layers.py: imported {result['module']}, expected it under {src}")
    return result


def _alternate(sides: dict, rounds: int, run) -> dict:
    """The values of `run(name)` for each side name, `rounds` times, with
    the sides going first in turn, so that drift of the machine falls on
    all of them."""
    names = list(sides)
    values = {name: [] for name in names}
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            values[name].append(run(name))
    return values


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


def _case(op: str, args: dict, sides: dict, rounds: int, changed: str, fields: tuple,
          equal: tuple = (), diff: str | None = None, work: Path | None = None) -> dict:
    """The case of `op` on `args`, timed on every side. A side whose digests
    change between rounds fails the run with "{side} {changed}". Each side
    gets the summary of its calls, `fields` of its last call, for each
    (key, digest) of `equal` whether its digest equals the first side's,
    and with `diff`, how far the array its last call saved under `work`
    lies from the first side's."""
    out = {name: work / f"{name}-{op}" for name in sides} if diff else {}
    calls = _alternate(sides, rounds, lambda name: _call(
        op, sides[name], dict(args, out=str(out[name])) if diff else args
    ))
    names = list(sides)
    first = calls[names[0]][0]
    case = {"op": op, **args}
    for name in names:
        digests = {tuple(v for k, v in c.items() if k.endswith("digest")) for c in calls[name]}
        if len(digests) != 1:
            raise SystemExit(f"bench_layers.py: {name} {changed}")
        last = calls[name][-1]
        case[name] = {**_summary(calls[name]), **{key: last[key] for key in fields}}
        for key, digest in equal:
            case[name][key] = last[digest] == first[digest]
        if diff:
            arrays = [np.load(f"{out[side]}.npy") for side in (names[0], name)]
            case[name][f"max_abs_{diff}_diff_vs_first_side"] = float(
                np.max(np.abs(arrays[1] - arrays[0]))
            )
    if "baseline" in sides:
        case["speedup"] = round(case["baseline"]["median_s"] / case["src"]["median_s"], 2)
    return case


def generate_case(family: str, n: int, sides: dict, rounds: int) -> dict:
    """`generate_pair` timings and calibration counts of each side."""
    return _case(
        "generate", {"family": family, "n": n}, sides, rounds,
        f"generated different {family} n={n} pairs",
        ("calibration_evaluations", "calibration_points"),
        equal=(("source_equals_first_side", "source_digest"),
               ("target_equals_first_side", "target_digest")),
    )


def csv_case(family: str, n: int, sides: dict, work: Path, rounds: int) -> dict:
    """Read and write timings of each side on one generated file."""
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

    def read_then_write(name: str) -> dict:
        read = _call("read", sides[name], {"path": str(csv_path)})
        out = work / f"{name}-written.csv"
        write = _call("write", sides[name], {"path": str(out), "arrays": str(npz_path)})
        if _sha256(out) != want:
            raise SystemExit(f"bench_layers.py: {name} wrote other bytes for {family} n={n}")
        return {"read": read, "write": write}

    calls = _alternate(sides, rounds, read_then_write)
    if len({c["read"]["digest"] for side in calls.values() for c in side}) != 1:
        raise SystemExit(f"bench_layers.py: reads of {family} n={n} returned different arrays")
    case = {"op": "read/write", "family": family, "n": n, "file_mb": round(size_mb, 2),
            "file_sha256": want}
    for name in sides:
        case[name] = {op: _summary([c[op] for c in calls[name]], size_mb)
                      for op in ("read", "write")}
    if "baseline" in sides:
        case["read_speedup"] = round(
            case["baseline"]["read"]["median_s"] / case["src"]["read"]["median_s"], 2
        )
    return case


def fit_case(family: str, n: int, block: str, sides: dict, work: Path, rounds: int) -> dict:
    """`fit_hard` timings and counts of each side on one block of a
    generated source."""
    return _case(
        "fit", {"family": family, "n": n, "block": block}, sides, rounds,
        f"fitted different {family} n={n} {block}",
        ("solver_iterations", "objective_evaluations"), diff="weight", work=work,
    )


def em_case(family: str, n: int, sides: dict, work: Path, rounds: int) -> dict:
    """`fit_cpsm` timings and counts of each side on one generated pair."""
    return _case(
        "em", {"family": family, "n": n, "max_em_iters": EM_ROUNDS}, sides, rounds,
        f"fitted different {family} n={n} EMs",
        ("em_rounds", "m_steps", "solver_iterations", "objective_evaluations", "final_surrogate"),
        diff="posterior", work=work,
    )


def grid_case(sides: dict, work: Path, rounds: int) -> dict:
    """`run_benchmark` timings and counts of each side on the grid op's
    shape."""
    args = {"family": GRID_FAMILY, "n": GRID_N, "a": list(GRID_A), "k": list(GRID_K),
            "methods": list(GRID_METHODS), "max_em_iters": GRID_EM_ROUNDS}
    return _case(
        "grid", args, sides, rounds, "wrote different grid metrics",
        ("m_steps", "solver_iterations", "objective_evaluations"),
        equal=(("metrics_csv_equals_first_side", "digest"),), diff="metric", work=work,
    )


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
