"""End-to-end benchmark of the `cpsm` CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the `cpsm` package is imported from
the checkout's `src/`, and the run fails without a result if it is absent.
Each operation is a fresh `cpsm` process, one at a time (a closed loop with
one client), timed from outside. Set-up (data generation, CSV writing and
the reference answers) runs in this process and is repeated SETUP_REPEATS
times. With `--trace 1` untraced and traced operations alternate and the
per-layer metrics come from the traced ones. The last line of standard
output is the JSON result; README.md in this directory describes the
metrics and workloads.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS for the set-up in this process and for every
# operation, which inherits the environment. On a 2-core machine OpenBLAS's
# default of one thread per core made an operation up to 3x slower whenever
# anything else ran on the other core, so timings did not repeat.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402  (after the thread setting, which it reads once)

from tracing import Tracer, em_rounds, load_spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Every run must end within 180 s; an operation still running this long
# after the run started is killed and counted as failed.
RUN_DEADLINE_S = 170.0
TINY_N = 300
MB = 2.0**20


@dataclass(frozen=True)
class AdaptSpec:
    """`cpsm adapt` on one generated source/target pair of n rows each."""

    dataset_kind: str
    n: int
    shift_slope: float
    target_prior: float
    method: str
    max_em_iters: int | None = None


@dataclass(frozen=True)
class GridSpec:
    """`cpsm benchmark` over the a x k grid at one n, one repetition."""

    n: int
    grid_a: tuple
    grid_k: tuple
    methods: tuple
    max_em_iters: int


# EM stops on an absolute gain below 1e-8, which takes 145-311 rounds at
# n=20k and 38-500 per grid cell at n=2k depending on the seed. The round
# caps sit at or below nearly every count seen, so each seed does about the
# same number of EM rounds and the wall time compares across seeds.
WORKLOADS = {
    "adapt-bernoulli-20k": AdaptSpec("bernoulli_z", 20_000, 5.0, 0.05, "cpsm", max_em_iters=50),
    "score-gaussian-100k": AdaptSpec("gaussian_z", 100_000, 5.0, 0.05, "naive"),
    "grid-gaussian-2k": GridSpec(
        2_000, (0.05, 0.5), (0.0, 5.0), ("naive", "mlls", "cpsm", "oracle"), max_em_iters=40
    ),
}


def import_cpsm():
    """Import the package from the checkout's src/, never from elsewhere."""
    package = SRC / "cpsm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cpsm package at {package}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import cpsm
    import cpsm.data
    import cpsm.metrics
    import cpsm.softmax
    import cpsm.synth

    if Path(cpsm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported cpsm from {cpsm.__file__}, expected {package}")
    return cpsm


def machine_info() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _balanced_accuracy(labels: np.ndarray, p1: np.ndarray) -> float:
    """Bayes rule at 0.5 (label 1 when p1 > 0.5), mean of the two recalls."""
    pred = np.where(p1 > 0.5, 1, 2)
    return float(np.mean([np.mean(pred[labels == c] == c) for c in (1, 2)]))


class AdaptCase:
    def __init__(self, spec: AdaptSpec, cpsm, work: Path, seed: int):
        self.spec, self.cpsm, self.work, self.seed = spec, cpsm, work, seed
        self.rows = spec.n

    def setup(self) -> None:
        cpsm, spec = self.cpsm, self.spec
        source, target = cpsm.synth.generate_pair(cpsm.synth.SynthConfig(
            dataset_kind=spec.dataset_kind, n_source=spec.n, n_target=spec.n,
            shift_slope=spec.shift_slope, target_prior=spec.target_prior, seed=self.seed,
        ))
        cpsm.data.write_dataset_csv(self.work / "source.csv", source.z, source.x, source.y)
        cpsm.data.write_dataset_csv(self.work / "target.csv", target.z, target.x, None)
        oracle = cpsm.metrics.fit_oracle(target, cpsm.softmax.FitConfig())
        self.labels = np.asarray(target.y)
        self.oracle_p1 = np.asarray(oracle[:, 0])

    def command(self, tag: str) -> list[str]:
        args = ["adapt", "source.csv", "target.csv", "--method", self.spec.method, "--output", tag]
        if self.spec.max_em_iters is not None:
            args += ["--max-em-iters", str(self.spec.max_em_iters)]
        return args

    def outputs(self, tag: str) -> list[Path]:
        return [self.work / f"{tag}.fit.json", self.work / f"{tag}.posterior.csv"]

    def check(self, tag: str) -> tuple[list[str], dict]:
        fit_path, post_path = self.outputs(tag)
        errors, posterior = check_posterior_csv(post_path, self.spec.n)
        try:
            with open(fit_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            trace = np.asarray(doc["loglik_trace"], dtype=float)
            iterations = int(doc["iterations_run"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return errors + [f"{fit_path.name}: unreadable fit JSON: {exc}"], {}
        if trace.shape != (iterations + 1,):
            errors.append(f"loglik_trace has {trace.size} entries, iterations_run={iterations}")
        # Same tolerance as acceptance criterion 02.
        elif trace.size > 1 and float(np.diff(trace).min()) < -1e-9:
            errors.append(f"loglik_trace decreases by {-float(np.diff(trace).min())!r}")
        if errors:
            return errors, {}
        p1 = posterior[:, 0]
        return [], {
            "balanced_accuracy": _balanced_accuracy(self.labels, p1),
            "approx_error": float(np.mean(np.abs(p1 - self.oracle_p1))),
            "surrogate_per_row": float(trace[-1]) / self.spec.n,
            "em_iterations": iterations,
        }


def read_posterior_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        values = np.array([[float(v) for v in row] for row in reader], dtype=float)
    return values.reshape(-1, len(header))


def check_posterior_csv(path, n_rows: int) -> tuple[list[str], np.ndarray | None]:
    """(errors, posterior) of a posterior CSV, which must hold n rows of
    probabilities, each row summing to 1 within 1e-9. No errors: correct."""
    name = Path(path).name
    try:
        post = read_posterior_csv(path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"{name}: unreadable posterior CSV: {exc}"], None
    if post.shape[0] != n_rows or post.shape[1] < 2:
        return [f"{name}: shape {post.shape}, expected ({n_rows}, K>=2)"], None
    if not np.all(np.isfinite(post)) or post.min() < 0.0 or post.max() > 1.0:
        return [f"{name}: entries outside [0, 1]"], None
    gaps = np.abs(post.sum(axis=1) - 1.0)
    worst = int(np.argmax(gaps))
    if gaps[worst] > 1e-9:
        return [f"{name}: row {worst + 1} sums to {post[worst].sum()!r}"], None
    return [], post


class GridCase:
    HEADER = ["method", "a", "k", "n", "seed", "balanced_accuracy", "approx_error",
              "wall_clock_seconds"]

    def __init__(self, spec: GridSpec, cpsm, work: Path, seed: int):
        self.spec, self.cpsm, self.work = spec, cpsm, work
        self.base_seed = 1000 * seed
        self.cells = [(a, k) for a in spec.grid_a for k in spec.grid_k]
        self.rows = spec.n * len(self.cells)

    def setup(self) -> None:
        """Write the sweep configs and the reference oracle score of each
        cell. The sweep seeds run i with base_seed + i (one repetition)."""
        cpsm, spec = self.cpsm, self.spec
        for tag in ("op", "traced"):
            config = {
                "generator": {"kind": "synthetic", "dataset_kind": "gaussian_z"},
                "methods": list(spec.methods),
                "grid": {"a": list(spec.grid_a), "k": list(spec.grid_k), "n": [spec.n]},
                "repetitions": 1,
                "base_seed": self.base_seed,
                "output_path": f"{tag}.metrics.csv",
                "em": {"max_em_iters": spec.max_em_iters},
            }
            (self.work / f"{tag}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.reference = {}
        for index, (a, k) in enumerate(self.cells):
            _, target = cpsm.synth.generate_pair(cpsm.synth.SynthConfig(
                dataset_kind="gaussian_z", n_source=spec.n, n_target=spec.n,
                shift_slope=k, target_prior=a, seed=self.base_seed + index,
            ))
            oracle = cpsm.metrics.fit_oracle(target, cpsm.softmax.FitConfig())
            # Scored as the sweep scores it, so the comparison can be exact.
            self.reference[(a, k)] = cpsm.metrics.balanced_accuracy(
                target.y, cpsm.metrics.classify(oracle, 0.5))

    def command(self, tag: str) -> list[str]:
        return ["benchmark", f"{tag}.json"]

    def outputs(self, tag: str) -> list[Path]:
        return [self.work / f"{tag}.metrics.csv"]

    def check(self, tag: str) -> tuple[list[str], dict]:
        (path,) = self.outputs(tag)
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = [dict(zip(header, line)) for line in reader]
            for row in rows:
                for key in ("a", "k", "balanced_accuracy", "approx_error"):
                    row[key] = float(row[key])
        except (OSError, ValueError, StopIteration, KeyError) as exc:
            return [f"{path.name}: unreadable metrics CSV: {exc}"], {}
        expected = len(self.cells) * len(self.spec.methods)
        if header != self.HEADER:
            return [f"{path.name}: header {header}"], {}
        if len(rows) != expected:
            return [f"{path.name}: {len(rows)} rows, expected {expected}"], {}
        errors = [f"{path.name}: NaN metrics for {r['method']} a={r['a']} k={r['k']}"
                  for r in rows
                  if not (math.isfinite(r["balanced_accuracy"]) and math.isfinite(r["approx_error"]))]
        for r in rows:
            if r["method"] == "oracle":
                ref = self.reference.get((r["a"], r["k"]))
                if r["balanced_accuracy"] != ref or r["approx_error"] != 0.0:
                    errors.append(f"{path.name}: oracle row a={r['a']} k={r['k']} "
                                  f"reads {r['balanced_accuracy']!r}, reference {ref!r}")
        if errors:
            return errors, {}

        def mean(method, key):
            return float(np.mean([r[key] for r in rows if r["method"] == method]))

        return [], {
            "balanced_accuracy": mean("cpsm", "balanced_accuracy"),
            "approx_error": mean("cpsm", "approx_error"),
            "mlls_approx_error": mean("mlls", "approx_error"),
        }


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    errors: list
    quality: dict = dataclasses.field(default_factory=dict)
    spans_path: Path | None = None


def run_cli(case, tag: str, deadline: float, spans_path: Path | None = None) -> Op:
    """One operation: a fresh process, timed from outside, then checked."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "cpsm.cli", *case.command(tag)]
    else:
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(spans_path), "--", *case.command(tag)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for path in case.outputs(tag):
        path.unlink(missing_ok=True)
    with open(case.work / f"{tag}.stdout", "wb") as out, open(case.work / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=case.work, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    rss_mb = usage.ru_maxrss * 1024 / MB  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        tail = (case.work / f"{tag}.stderr").read_text(errors="replace").strip()[-300:]
        return Op(wall, rss_mb, [f"exit code {proc.returncode}: {tail}"])
    errors, quality = case.check(tag)
    return Op(wall, rss_mb, errors, quality, spans_path)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced operation."""
    summary = summarize(spans)

    def get(name, field="s"):
        return summary.get(name, {}).get(field, 0)

    read_s = get("data.read_dataset_csv")
    rounds, mlls_rounds = em_rounds(spans)
    return {
        "data.read_dataset_csv.s": read_s,
        "data.read_mb_per_s": get("data.read_dataset_csv", "count") / MB / read_s if read_s else 0.0,
        "cli.self_s": get("cli.main", "self_s"),
        "softmax.fit_hard.s": get("softmax.fit_hard"),
        "softmax.fit_hard.calls": get("softmax.fit_hard", "calls"),
        "softmax.fit_soft.s": get("softmax.fit_soft"),
        "softmax.fit_soft.calls": get("softmax.fit_soft", "calls"),
        "softmax.objective.s": get("softmax._objective"),
        "softmax.objective_evals": get("softmax._objective", "calls"),
        "softmax.objective_rows": get("softmax._objective", "count"),
        "softmax.predict_proba.s": get("softmax.predict_proba"),
        "softmax.predict_proba.calls": get("softmax.predict_proba", "calls"),
        "adjust.adjust_posterior.s": get("adjust.adjust_posterior"),
        "adjust.adjust_posterior.calls": get("adjust.adjust_posterior", "calls"),
        "em.fit_cpsm.s": get("em.fit_cpsm"),
        "em.self_s": sum(get(name, "self_s") for name in
                         ("em.fit_cpsm", "em.fit_cpsm@mlls", "em.fit_mlls", "em.naive_posterior")),
        "em.rounds": rounds,
        "em.fit_mlls.s": get("em.fit_mlls"),
        "em.mlls_rounds": mlls_rounds,
        "synth.generate_pair.s": get("synth.generate_pair"),
        "synth.calibrate_intercept.s": get("synth.calibrate_intercept"),
        "metrics.fit_oracle.s": get("metrics.fit_oracle"),
        "metrics.score.s": sum(get(name) for name in
                               ("metrics.classify", "metrics.balanced_accuracy",
                                "metrics.approximation_error")),
        "bench.self_s": get("bench.run_benchmark", "self_s") + get("bench.run_single", "self_s"),
    }


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "rounds", "_evals")):
        return "count"
    return {"softmax.objective_rows": "rows", "data.read_mb_per_s": "MB/s"}.get(name, "s")


def setup_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one set-up, which runs in this process."""
    summary = summarize(spans)
    return {
        f"setup.{name}.s": summary.get(name, {}).get("s", 0.0)
        for name in ("data.write_dataset_csv", "synth.generate_pair", "metrics.fit_oracle")
    }


def _median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def print_layer_table(summary: dict) -> None:
    print(f"{'span':34s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s} {'count':>12s}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:34s} {row['calls']:7d} {row['s']:10.4f} {row['self_s']:10.4f} {row['count']:12d}")


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        run_op=run_cli) -> dict:
    """Set up, measure for `seconds`, check; returns the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    cpsm = import_cpsm()
    spec = WORKLOADS[workload]
    if tiny:
        spec = dataclasses.replace(spec, n=TINY_N)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=WORK_ROOT))
    try:
        case = (AdaptCase if isinstance(spec, AdaptSpec) else GridCase)(spec, cpsm, work, seed)
        tracer = Tracer()
        setup_times, setup_layers = [], []
        for _ in range(SETUP_REPEATS):
            if trace:
                tracer.spans.clear()
                with tracer.installed():
                    case.setup()
                setup_layers.append(setup_metrics(tracer.spans))
            else:
                start = time.perf_counter()
                case.setup()
                setup_times.append(time.perf_counter() - start)

        ops, traced, reference_digest = [], [], None
        start = time.perf_counter()
        while True:
            op = run_op(case, "op", deadline)
            ops.append(op)
            if not op.errors:
                digest = _digest(case.outputs("op"))
                reference_digest = reference_digest or digest
                if digest != reference_digest:
                    op.errors.append("outputs differ from the run's first operation")
            if trace:
                spans_path = work / f"spans-{len(traced)}.json"
                top = run_op(case, "traced", deadline, spans_path=spans_path)
                traced.append(top)
                if not (top.errors or op.errors) and (
                        _digest(case.outputs("traced")) != _digest(case.outputs("op"))):
                    top.errors.append("traced outputs differ from the untraced operation's")
            per_op = statistics.median(o.wall_s for o in ops) + (
                statistics.median(o.wall_s for o in traced) if trace else 0.0)
            if time.perf_counter() - start + per_op > seconds or time.monotonic() + per_op > deadline:
                break

        attempted = ops + traced
        failed = sum(1 for o in attempted if o.errors)
        for o in attempted:
            for error in o.errors:
                print(f"check failed: {error}", file=sys.stderr)
        good = [o for o in ops if not o.errors] or ops
        quality = next((o.quality for o in good if o.quality), {})
        wall_s = statistics.median(o.wall_s for o in good)
        print(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "operations": len(ops), "traced_operations": len(traced), "setups": SETUP_REPEATS,
            "op_wall_s": [round(o.wall_s, 4) for o in ops],
            "setup_wall_s": [round(t, 4) for t in setup_times],
            "tiny": tiny, "em_iterations": quality.get("em_iterations"),
            "machine": machine_info(),
        }))

        if not trace:
            metrics = {
                "wall_s": (wall_s, "s"),
                "rows_per_s": (case.rows / wall_s, "rows/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (statistics.median(o.rss_mb for o in good), "MB"),
                "success_frac": ((len(attempted) - failed) / len(attempted), "ratio"),
                "balanced_accuracy": (quality.get("balanced_accuracy", 0.0), "ratio"),
            }
        else:
            good_traced = [o for o in traced if not o.errors] or traced
            spans = [load_spans(o.spans_path) for o in good_traced if o.spans_path.is_file()]
            layers = _median_of([layer_metrics(s) for s in spans]) if spans else layer_metrics([])
            if spans:
                print_layer_table(summarize(spans[-1]))
                keep = WORK_ROOT / "traces" / f"{workload}-seed{seed}.spans.json"
                keep.parent.mkdir(exist_ok=True)
                shutil.copyfile(good_traced[-1].spans_path, keep)
                print(f"spans of the last traced operation: {keep}")
            metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
            metrics.update({name: (value, "s") for name, value in _median_of(setup_layers).items()})
            metrics["trace_overhead_frac"] = (
                statistics.median(o.wall_s for o in good_traced) / wall_s - 1.0, "ratio")
            metrics["em.surrogate_per_row"] = (quality.get("surrogate_per_row", 0.0), "nats")
            metrics["metrics.approx_error"] = (quality.get("approx_error", 0.0), "ratio")
            metrics["metrics.mlls_approx_error"] = (quality.get("mlls_approx_error", 0.0), "ratio")
        return {
            "correct": failed == 0,
            "attempted": len(attempted),
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"n={TINY_N} rows per dataset; for the smoke test only")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
