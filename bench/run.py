"""Benchmark of the fuchsreduce library: one command, three workloads.

    python3 bench/run.py --workload {catalog-verify,param-sweep,coeff-grid}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in fresh
interpreters (``bench/worker.py``) with ``src`` on the import path and every
BLAS/OpenMP pool pinned to one thread; one client drives the library in a
closed loop from a single thread.  See ``bench/README.md`` for the
workloads, the metrics and which layer metric should move which end-to-end
metric.

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics.  The timed run holds a fixed number of whole groups of ops, as many
as fill ``--seconds`` at the reference speed, and every op time is scaled to
that speed by calibration slices run between the ops (``worker.py``); the
summary line also holds the unscaled CPU and wall times.  ``setup_s`` is
wall time, unscaled: it is mostly imports, which do not follow the slices.

``--trace 1`` runs the workload's fixed op list once untraced and twice
traced, each in its own process, and prints the per-layer metrics, the
tracing overhead and any work counter that differed between the two traced
processes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, drawn inputs, every failed op).  The exit code is 0
when a result was printed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("catalog-verify", "param-sweep", "coeff-grid")

# Fresh interpreters timed from start to the end of the warm-up op; the
# reported set-up time is their median.
SETUP_SAMPLES = 5
# Every op time is scaled to the speed at which one calibration slice
# (calibration.slice_ns) takes this long.  On the 2-core host where the
# benchmark was defined a slice took 5-10 ms as other tenants came and went,
# and op times moved with it.
REFERENCE_SLICE_MS = 8.0
# Each op is scaled by the median slice of the ops around it, this many on
# either side.
SLICE_WINDOW = 4
# Every process this benchmark starts must end within this many seconds of
# its start.
DEADLINE_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def _run_worker(args, mode: str, deadline_ns: int, traced: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if traced:
        cmd.append("--traced")
    launched = _now_ns()
    cmd += ["--launched-ns", str(launched)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(),
                            cwd=str(ROOT), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, (deadline_ns - launched) / 1e9))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def _quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Op times cluster by entry and family, and a plain
    order statistic jumps between clusters from run to run when the
    quantile falls in a gap between them."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(betainc(a, b, k / n)) for k in range(n + 1)]
    return sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(xs))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _speed_factor(slice_ns) -> float:
    """Factor that scales a time measured at the speed these calibration
    slices show to the reference speed."""
    return REFERENCE_SLICE_MS * 1e6 / statistics.median(slice_ns)


def _scaled_op_ms(cpu_ns, slice_ns) -> list[float]:
    out = []
    for k, cpu in enumerate(cpu_ns):
        near = slice_ns[max(0, k - SLICE_WINDOW):k + SLICE_WINDOW + 1]
        out.append(cpu / 1e6 * _speed_factor(near))
    return out


def _timed_run(args, deadline_ns: int) -> tuple[dict, dict, dict]:
    main = _run_worker(args, "timed", deadline_ns)
    setups = [main["setup_ns"] / 1e9]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_run_worker(args, "setup", deadline_ns)["setup_ns"] / 1e9)
    ops = main["ops"]
    ms = _scaled_op_ms(main["cpu_ns"], main["slice_ns"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_ms.p50": _metric(_quantile(ms, 0.5), "ms"),
        "op_ms.p90": _metric(_quantile(ms, 0.9), "ms"),
        "ops_per_s": _metric(ops / (sum(ms) / 1e3), "1/s"),
        "peak_rss_mb": _metric(main["peak_rss_kb"] / 1024, "MB"),
    }
    details = {
        "ops": ops,
        "groups": main["groups"],
        "op_ms_samples": len(ms),
        "samples_beyond_p90": sum(1 for v in ms if v > metrics["op_ms.p90"]["value"]),
        "op_ms": sorted(ms),
        "op_cpu_ms": sorted(d / 1e6 for d in main["cpu_ns"]),
        "op_wall_ms": sorted(d / 1e6 for d in main["wall_ns"]),
        "slice_ms": {"median": statistics.median(main["slice_ns"]) / 1e6,
                     "min": min(main["slice_ns"]) / 1e6,
                     "max": max(main["slice_ns"]) / 1e6,
                     "reference": REFERENCE_SLICE_MS},
        "setup_samples_s": setups,
        "warmup_s": main["warmup_ns"] / 1e9,
        "retained_blocks_per_op": main["retained_blocks"] / ops,
        "inputs": main["inputs"],
    }
    return metrics, details, main


def _traced_run(args, deadline_ns: int) -> tuple[dict, dict, dict]:
    plain = _run_worker(args, "fixed", deadline_ns)
    first = _run_worker(args, "fixed", deadline_ns, traced=True)
    second = _run_worker(args, "fixed", deadline_ns, traced=True)
    ops = first["ops"]

    def work(doc):
        return {**{f"{k}.calls": v for k, v in doc["calls"].items()}, **doc["counters"]}

    work1, work2 = work(first), work(second)
    mismatches = [{"counter": k, "first": work1[k], "second": work2[k]}
                  for k in work1 if work1[k] != work2[k]]

    metrics = {}
    for name, calls in first["calls"].items():
        metrics[f"{name}.calls"] = _metric(calls / ops, "count")
        metrics[f"{name}.self_ms"] = _metric(first["self_ns"][name] / 1e6 / ops, "ms")
    counters = first["counters"]
    for name in ("expr.integrand_evals", "verify.ode_nfev", "verify.dense_evals"):
        metrics[name] = _metric(counters[name] / ops, "count")
    tau_calls = counters["verify.pair_tau_calls"]
    metrics["verify.pair_accept_ratio"] = _metric(
        counters["verify.pairs_accepted"] / tau_calls if tau_calls else 0.0, "ratio")
    def rate(doc):
        return doc["ops"] / (sum(_scaled_op_ms(doc["cpu_ns"], doc["slice_ns"])) / 1e3)

    untraced_rate, traced_rate = rate(plain), rate(first)
    metrics["trace.ops_per_s_untraced"] = _metric(untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = _metric(traced_rate, "1/s")
    metrics["trace.overhead"] = _metric(untraced_rate / traced_rate - 1.0, "ratio")
    metrics["trace.counter_mismatches"] = _metric(len(mismatches), "count")
    metrics["memory.retained_blocks_per_op"] = _metric(
        plain["retained_blocks"] / plain["ops"], "blocks")
    metrics["setup.before_warmup_s"] = _metric(
        (plain["setup_ns"] - plain["warmup_ns"]) / 1e9, "s")
    metrics["setup.warmup_s"] = _metric(plain["warmup_ns"] / 1e9, "s")

    details = {
        "ops": ops,
        "spans": first["spans"],
        "counter_mismatches": mismatches,
        "counters_total": counters,
        "inputs": first["inputs"],
    }
    return metrics, details, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fuchsreduce benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fuchsreduce" / "__init__.py").is_file():
        print(f"error: no fuchsreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline_ns = _now_ns() + int(DEADLINE_S * 1e9)
    try:
        if args.trace:
            metrics, details, doc = _traced_run(args, deadline_ns)
        else:
            metrics, details, doc = _timed_run(args, deadline_ns)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = doc["failures"]
    attempted = doc["ops"]
    correct = not any(f["wrong_answer"] for f in failures)
    if args.trace and details["counter_mismatches"]:
        correct = False
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        **details,
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
