"""Benchmark `precis tune` and `precis backtest` on seeded synthetic panels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; precis is imported from its src/. The
workloads are defined in workloads.py and explained in README.md.

One run writes the seeded inputs into a scratch directory under
.perfbench_work/, then starts fresh processes (perfbench/invoke.py), each
running `precis.cli.main` once with PRECIS_THREADS unset and OpenBLAS held
to one thread:

  * a few set-up-only processes, which import the CLI and load the config;
  * full runs of the command, repeated while another one still fits in
    --seconds (at least two, so that outputs can be compared byte for byte).

The command's time is its CPU time (all threads, plus child processes it
waited for) from the config being loaded to its return; unlike wall time it
leaves out time spent waiting for a CPU. Each end-to-end metric is the median
over the run's processes, and the workloads are sized so that a run of
--seconds 36 holds ten or more of them.

With --trace 1 the runs alternate with traced runs (at least two), whose
spans give the per-layer metrics; the traced runs' outputs are checked too.

The outputs of the first run are checked against independent computations
(checks.py) and every run's outputs must be byte-identical to them. Any
failed check, or a count that does not repeat, exits with status 1 and
prints no metrics. Otherwise the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted counts the
full runs of the command and metrics holds the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). The line before it is a
JSON record of the environment, the operation counts and every sample.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a cached precis would shorten later runs' set-up

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

from checks import CheckFailed, check_outputs, same_outputs
from spans import QML
from workloads import WORKLOADS, write_inputs

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))  # the output checks use precis's hedge-regression oracle

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_ONLY_RUNS = 3
BLAS_THREADS = "1"
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}

SOLVER_FIELDS = ("calls", "self_s", "iters", "hit_cap", "converged", "errors")
# layer -> fields reported for it in the traced run
LAYER_FIELDS = {
    "panel.parse": ("self_s",),
    "linalg.sample_covariance": ("calls", "self_s"),
    "linalg.sym_eigen": ("calls", "self_s"),
    "linalg.invert_spd": ("self_s",),
    "linalg.condition_number": ("self_s",),
    QML: SOLVER_FIELDS,
    f"{QML}.l1": SOLVER_FIELDS,
    f"{QML}.l2": SOLVER_FIELDS,
    f"{QML}.elastic": SOLVER_FIELDS,
    "estimators.tune_rho": ("self_s",),
    "estimators.ledoit_wolf_intensity": ("self_s",),
    "estimators.ledoit_wolf": ("self_s",),
    "estimators.pca_precision": ("self_s",),
    "estimators.sample_precision": ("self_s",),
    "portfolio.no_short_mvp": ("calls", "self_s", "iters", "errors"),
    "portfolio.mvp_weights": ("self_s",),
    "backtest.run_rolling": ("self_s",),
    "backtest.build_report": ("self_s",),
    "cli.load_config": ("self_s",),
    "cli.write": ("self_s",),
}
COUNT_FIELDS = ("calls", "iters", "hit_cap", "converged", "errors")
TAIL_BEYOND = 10  # the tail percentile leaves this many solves above it


def median(values) -> float:
    return float(statistics.median(values))


class Invoker:
    """Starts invoke.py processes in one scratch directory, each with a deadline."""

    def __init__(self, work: Path, config: Path, command: str, deadline: float):
        self.work, self.config, self.command, self.deadline = work, config, command, deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PRECIS_THREADS"}
        self.env.update(CHILD_ENV)

    def __call__(self, tag: str, mode: str) -> dict:
        result, log = self.work / f"{tag}.json", self.work / f"{tag}.log"
        argv = [
            sys.executable, str(HERE / "invoke.py"), str(result), mode, "--",
            self.command, "--config", str(self.config), "--out", str(self.out_dir(tag)),
        ]
        with open(log, "wb") as sink:
            started = time.monotonic()
            try:
                proc = subprocess.run(
                    argv, env=self.env, cwd=self.work, stdout=sink, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - started),
                )
            except subprocess.TimeoutExpired:
                raise CheckFailed(f"{tag}: still running at the run's deadline; stopped")
        tail = log.read_text(errors="replace")[-2000:]
        if proc.returncode != 0 or not result.exists():
            raise CheckFailed(f"{tag}: exited with {proc.returncode}\n{tail}")
        record = json.loads(result.read_text())
        if record["rc"] != 0:
            raise CheckFailed(f"{tag}: precis returned {record['rc']}\n{tail}")
        record["setup_s"] = record["t_loaded"] - started
        record["wall_s"] = record["t_end"] - record["t_loaded"]
        record["cpu_s"] = record["c_end"] - record["c_loaded"] + record["c_children"]
        return record

    def out_dir(self, tag: str) -> Path:
        return self.work / f"out-{tag}"


def tail_ms(durations: list[float]) -> float:
    """The highest nearest-rank percentile with TAIL_BEYOND solves above it; 0 if none."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return 0.0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(durations)[rank - 1]


def layer_counts(summary: dict) -> dict:
    return {
        layer: {f: entry[f] for f in COUNT_FIELDS if f in entry}
        for layer, entry in summary["layers"].items()
    }


def per_layer_metrics(traced: list[dict], untraced_cpu: float) -> dict:
    """Per-layer totals (medians over the traced processes; counts must repeat)."""
    summaries = [r["trace"] for r in traced]
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        for field in fields:
            values = [s["layers"].get(layer, {}).get(field, 0) for s in summaries]
            unit = "s" if field == "self_s" else "count"
            metrics[f"{layer}.{field}"] = {
                "value": median(values) if unit == "s" else values[0],
                "unit": unit,
            }
    # Per-solve times are pooled over the traced processes: one process of a
    # workload makes too few solves for a tail percentile.
    solves = [ms for s in summaries for ms in s["solve_ms"]]
    metrics[f"{QML}.ms_p50"] = {"value": median(solves) if solves else 0.0, "unit": "ms"}
    metrics[f"{QML}.ms_ptail"] = {"value": tail_ms(solves), "unit": "ms"}
    metrics["trace.overhead_frac"] = {
        "value": median(r["cpu_s"] for r in traced) / untraced_cpu - 1.0,
        "unit": "fraction",
    }
    return metrics


def environment(blas_threads: set) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": sorted(blas_threads, key=str),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "PRECIS_THREADS": {"benchmark": os.environ.get("PRECIS_THREADS"), "program": None},
    }


def measure(
    workload, seed: int, seconds: int, trace: bool, work: Path, deadline: float
) -> tuple[dict, dict]:
    """Run one workload in work/ until --seconds are used; return (metrics, record)."""
    config, returns = write_inputs(workload, seed, work)
    invoke = Invoker(work, config, workload.command, deadline)

    setups = [invoke(f"setup{k}", "setup")["setup_s"] for k in range(SETUP_ONLY_RUNS)]
    runs, traced = [], []
    began = time.monotonic()
    while True:
        tracing = trace and bool(runs) and len(traced) <= len(runs)  # run, trace, trace, run, ...
        tag = f"run{len(runs) + len(traced)}"
        (traced if tracing else runs).append(invoke(tag, "trace" if tracing else "run"))
        count = len(runs) + len(traced)
        enough = len(runs) >= (1 if trace else 2) and len(traced) >= (2 if trace else 0)
        elapsed = time.monotonic() - began
        if enough and elapsed + elapsed / count > seconds:  # another one would not fit
            break

    first = invoke.out_dir("run0")
    ops = check_outputs(workload, config, first, returns)
    for k in range(1, count):
        same_outputs(first, invoke.out_dir(f"run{k}"))
    threads = {r["blas_threads"] for r in runs + traced}
    if len(threads) != 1:
        raise CheckFailed(f"BLAS thread count differs between runs: {threads}")
    if traced:
        counts = [layer_counts(r["trace"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            raise CheckFailed("a traced count does not repeat exactly between runs")

    cpu = median(r["cpu_s"] for r in runs)
    if trace:
        metrics = per_layer_metrics(traced, cpu)
    else:
        metrics = {
            "cpu_s": {"value": cpu, "unit": "s"},
            "setup_s": {"value": median(setups + [r["setup_s"] for r in runs]), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_kb"] / 1024 for r in runs), "unit": "MB"},
            "converged_frac": {"value": ops.converged / ops.attempted, "unit": "fraction"},
            "ops_ok_frac": {
                "value": (ops.attempted - ops.failed) / ops.attempted,
                "unit": "fraction",
            },
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "shape": {"p": workload.p, "n": workload.n, "window": workload.window},
        "environment": environment(threads),
        "operations": {
            "attempted": ops.attempted,
            "failed": ops.failed,
            "converged": ops.converged,
        },
        "runs": len(runs),
        "traced_runs": len(traced),
        "samples": {
            "cpu_s": [r["cpu_s"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": setups + [r["setup_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in runs],
            "traced_cpu_s": [r["cpu_s"] for r in traced],
        },
    }
    if traced:
        record["layer_counts"] = counts[0]
        record["solves_timed"] = sum(len(r["trace"]["solve_ms"]) for r in traced)
    return metrics, record


def stop(signum, frame):
    # An exception, so that subprocess.run kills and reaps the running child
    # and the scratch directory is removed on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "precis" / "cli.py").is_file():
        print(f"perfbench: no precis sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        metrics, record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
            deadline=STARTED + DEADLINE_S,
        )
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    attempted = record["runs"] + record["traced_runs"]
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
