"""Per-layer benchmark of the dataset CSV reader and writer.

    python scripts/bench_layers.py [--src DIR] [--baseline DIR] [--n N ...] [--rounds R] [--out FILE]

Imports `cpsm` from `--src` (default: the src/ of this checkout) and times
`cpsm.data.read_dataset_csv` and `cpsm.data.write_dataset_csv` on the
labeled source file of a generated pair with n rows, for both synthetic
families and each n (default 2k, 20k and 100k). Every timed call runs in a
fresh Python process, one at a time, with one BLAS thread; it reports its
own seconds and peak RSS (`VmHWM` on Linux, else `ru_maxrss`), so the
memory is that of the one call plus the interpreter, numpy and, for a
write, the arrays it writes.

With `--baseline DIR`, the `cpsm` under DIR (for example the src/ of a
checkout of the parent commit) runs on the same files, alternating with
`--src` in every round and going first in every other round, so that drift
of the machine falls on both. Each side's arrays from a read must be
bitwise equal, and each written file must equal the input file byte for
byte; a mismatch fails the run.

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

# One timed call, run as `python -c _CALL op src csv_path npz_path`. A read
# prints a digest of the arrays it returns; a write writes to csv_path the
# arrays stored in npz_path.
_CALL = r"""
import hashlib, json, resource, sys, time
op, src, csv_path, npz_path = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from cpsm import data

def peak_kb():
    # VmHWM is this process's own high-water mark. ru_maxrss would do
    # elsewhere, but on Linux it keeps the launching process's peak
    # across fork and exec.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

if op == "write":
    with np.load(npz_path) as arrays:
        z, x, y = arrays["z"], arrays["x"], arrays["y"]
before_kb = peak_kb()
start = time.perf_counter()
if op == "read":
    z, x, y = data.read_dataset_csv(csv_path)
else:
    data.write_dataset_csv(csv_path, z, x, y)
seconds = time.perf_counter() - start
peak_kb = peak_kb()
digest = hashlib.sha256()
for a in (z, x, y):
    digest.update(np.ascontiguousarray(a).tobytes())
print(json.dumps({"seconds": seconds, "rss_before_kb": before_kb, "peak_rss_kb": peak_kb,
                  "digest": digest.hexdigest(), "module": data.__file__}))
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


def _call(op: str, src: Path, csv_path: Path, npz_path: Path) -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    done = subprocess.run(
        [sys.executable, "-c", _CALL, op, str(src), str(csv_path), str(npz_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_layers.py: {op} with {src} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if Path(result["module"]).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench_layers.py: imported {result['module']}, expected it under {src}")
    return result


def _summary(calls: list[dict], size_mb: float) -> dict:
    seconds = [c["seconds"] for c in calls]
    median = statistics.median(seconds)
    return {
        "median_s": round(median, 4),
        "min_s": round(min(seconds), 4),
        "seconds": [round(s, 4) for s in seconds],
        "mb_per_s": round(size_mb / median, 2),
        "peak_rss_mb": round(max(c["peak_rss_kb"] for c in calls) / 1024, 1),
        "rss_before_call_mb": round(max(c["rss_before_kb"] for c in calls) / 1024, 1),
    }


def bench_case(family: str, n: int, sides: dict, work: Path, rounds: int) -> dict:
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
    case = {"family": family, "n": n, "file_mb": round(size_mb, 2), "file_sha256": want}
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
    with tempfile.TemporaryDirectory(prefix="bench_layers-") as tmp:
        cases = [
            bench_case(family, n, sides, Path(tmp), args.rounds)
            for n in args.n
            for family in FAMILIES
        ]
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
