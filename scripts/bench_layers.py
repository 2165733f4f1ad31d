"""Per-layer benchmark of the dataset CSV reader and writer and of the
synthetic pair generator.

    python scripts/bench_layers.py [--src DIR] [--baseline DIR] [--n N ...] [--rounds R] [--out FILE]

Imports `cpsm` from `--src` (default: the src/ of this checkout). For both
synthetic families and each n (default 2k, 20k and 100k) it times three
ops:

- `read`: `cpsm.data.read_dataset_csv` on the labeled source file of a
  generated pair with n rows;
- `write`: `cpsm.data.write_dataset_csv` of the same rows;
- `generate`: `cpsm.synth.generate_pair` of a pair with n rows on each
  side (slope 5, prior 0.05, seed 1), its intercept calibration included.

Every timed call runs in a fresh Python process, one at a time, with one
BLAS thread; it reports its own seconds and peak RSS (`VmHWM` on Linux,
else `ru_maxrss`), so the memory is that of the one call plus the
interpreter, numpy and, for a write, the arrays it writes. A generate call
also reports a count that does not depend on the machine: how many times
the intercept calibration evaluated its expectation, and over how many
points in all.

With `--baseline DIR`, the `cpsm` under DIR (for example the src/ of a
checkout of the parent commit) runs on the same files, alternating with
`--src` in every round and going first in every other round, so that drift
of the machine falls on both. Each side's arrays from a read must be
bitwise equal, and each written file must equal the input file byte for
byte; a mismatch fails the run. The generated pairs are compared, not
required equal: a case records whether each side's source and target
arrays equal those of the first side.

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

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("bernoulli_z", "gaussian_z")
DEFAULT_N = (2_000, 20_000, 100_000)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 2.0**20

# One timed call, run as `python -c _CALL op src arg1 arg2`: for a read or
# a write, arg1 and arg2 are the CSV and NPZ paths, for a generate the
# family and n. A read prints a digest of the arrays it returns; a write
# writes to the CSV path the arrays stored in the NPZ file; a generate
# prints a digest of each side of the pair.
_CALL = r"""
import hashlib, json, resource, sys, time
op, src, arg1, arg2 = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from cpsm import data, synth

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

if op == "write":
    with np.load(arg2) as arrays:
        z, x, y = arrays["z"], arrays["x"], arrays["y"]
if op == "generate":
    config = synth.SynthConfig(
        dataset_kind=arg1, n_source=int(arg2), n_target=int(arg2), shift_slope=5.0,
        target_prior=0.05, seed=1,
    )
    synth.np = CountingNumpy()
before_kb = peak_kb()
start = time.perf_counter()
if op == "read":
    z, x, y = data.read_dataset_csv(arg1)
elif op == "write":
    data.write_dataset_csv(arg1, z, x, y)
else:
    source, target = synth.generate_pair(config)
seconds = time.perf_counter() - start
peak_kb = peak_kb()
result = {"seconds": seconds, "rss_before_kb": before_kb, "peak_rss_kb": peak_kb,
          "module": data.__file__}
if op == "generate":
    result["source_digest"] = digest(source.z, source.x, source.y)
    result["target_digest"] = digest(target.z, target.x, target.y)
    result["calibration_evaluations"] = CountingNumpy.evaluations
    result["calibration_points"] = CountingNumpy.points
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


def _call(op: str, src: Path, arg1, arg2) -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    done = subprocess.run(
        [sys.executable, "-c", _CALL, op, str(src), str(arg1), str(arg2)],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory to import cpsm from (default: this checkout's)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second src/ to compare against, for example the parent commit's")
    parser.add_argument("--n", type=int, nargs="+", default=list(DEFAULT_N),
                        help="row counts (default: 2000 20000 100000)")
    parser.add_argument("--rounds", type=int, default=3, help="timed calls per side and case")
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
                cases.append(csv_case(family, n, sides, Path(tmp), args.rounds))
                cases.append(generate_case(family, n, sides, args.rounds))
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
