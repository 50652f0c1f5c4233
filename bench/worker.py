"""One benchmark process: import the library, warm up, run ops, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on the import path
and BLAS pinned to one thread.  Modes:

* ``setup``  import, build the inputs, run one untimed warm-up op, exit;
* ``timed``  then run the number of whole groups of ops that fills
  ``--seconds`` at the reference speed (``Workload.timed_groups``), with
  tracing off and one calibration slice after each op;
* ``fixed``  then run the workload's fixed op list once, traced with
  ``--traced``, so that two processes at one seed do identical work, again
  with one calibration slice after each op.

Every mode prints, as its last stdout line, one JSON object.  The time from
the launcher's start of this process to the end of the warm-up op is
``setup_ns``, read on the monotonic clock the launcher passes in.

The calibration slice after each op (``calibration.py``) lets ``run.py``
scale every op time to one reference speed.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import json
import resource
import sys
import time

import workloads
from calibration import slice_ns
from tracing import Tracer


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _run_op(op):
    """Run one op; returns (cpu_ns, wall_ns, result, exception).

    The op's time is the CPU time of this (only) thread: the loop does no
    I/O and never waits, so it equals the wall time minus the time the OS
    ran other processes, which on a shared machine is noise."""
    wall = time.perf_counter_ns()
    cpu = time.thread_time_ns()
    try:
        result = op.run()
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        result, error = None, exc
    else:
        error = None
    return time.thread_time_ns() - cpu, time.perf_counter_ns() - wall, result, error


def _outcome(op, result, exc):
    if exc is not None:
        return workloads.Failure("op", str(exc), True, type(exc).__name__)
    return op.check(result)


def _classify(fr, op, failure) -> None:
    """Name the exception class behind a failed stage by running the op
    again under a tracer (the pipeline is deterministic for fixed inputs)."""
    span = workloads.STAGE_SPANS.get(failure.stage)
    if span is None or failure.exception is not None:
        return
    tracer = Tracer()
    with tracer.installed(fr):
        try:
            op.run()
        except Exception:  # noqa: BLE001 - already recorded as failed
            pass
    failure.exception = tracer.raised_in(span)


def _failure_doc(workload, op, failure) -> dict:
    return {"workload": workload.name, **op.label(), "stage": failure.stage,
            "exception": failure.exception, "detail": failure.detail,
            "wrong_answer": failure.wrong_answer}


def _timed(fr, workload, seconds: float) -> dict:
    groups = workload.timed_groups(seconds)
    total = sum(len(workload.groups[g % len(workload.groups)]) for g in range(groups))
    # Preallocated, so the loop's own bookkeeping does not count as retained
    # allocations.
    cpu_ns = array.array("q", bytes(8 * total))
    wall_ns = array.array("q", bytes(8 * total))
    slices = array.array("q", bytes(8 * total))
    failed: list[tuple] = []
    n = 0
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    for group_index in range(groups):
        for op in workload.groups[group_index % len(workload.groups)]:
            cpu_ns[n], wall_ns[n], result, exc = _run_op(op)
            slices[n] = slice_ns()
            failure = _outcome(op, result, exc)
            del result
            if failure is not None:
                failed.append((op, failure))
            n += 1
    gc.collect()
    blocks_after = sys.getallocatedblocks()
    for op, failure in failed:
        _classify(fr, op, failure)
    return {
        "ops": n,
        "groups": groups,
        "cpu_ns": cpu_ns.tolist(),
        "wall_ns": wall_ns.tolist(),
        "slice_ns": slices.tolist(),
        "retained_blocks": blocks_after - blocks_before,
        "failures": [_failure_doc(workload, op, f) for op, f in failed],
    }


def _fixed(fr, workload, traced: bool) -> dict:
    ops = workload.fixed_ops()
    tracer = Tracer()
    cpu_ns = array.array("q", bytes(8 * len(ops)))
    slices = array.array("q", bytes(8 * len(ops)))
    outcomes = []
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    with tracer.installed(fr) if traced else contextlib.nullcontext():
        for k, op in enumerate(ops):
            cpu_ns[k], _, result, exc = _run_op(op)
            slices[k] = slice_ns()
            outcomes.append(_outcome(op, result, exc))
            del result
    gc.collect()
    blocks_after = sys.getallocatedblocks()
    failed = [(op, f) for op, f in zip(ops, outcomes) if f is not None]
    for op, failure in failed:
        _classify(fr, op, failure)
    doc = {
        "ops": len(ops),
        "cpu_ns": cpu_ns.tolist(),
        "slice_ns": slices.tolist(),
        "retained_blocks": blocks_after - blocks_before,
        "failures": [_failure_doc(workload, op, f) for op, f in failed],
    }
    if traced:
        doc["calls"] = tracer.call_counts()
        doc["self_ns"] = tracer.self_times_ns()
        doc["counters"] = tracer.counters
        doc["spans"] = len(tracer.names)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--launched-ns", type=int, required=True,
                    help="CLOCK_MONOTONIC time at which the launcher started this process")
    args = ap.parse_args(argv)

    import fuchsreduce as fr

    workload = workloads.build(args.workload, fr, args.seed)
    warm_start = time.perf_counter_ns()
    workload.warmup.run()
    warmup_ns = time.perf_counter_ns() - warm_start
    setup_ns = _now_ns() - args.launched_ns
    doc = {"setup_ns": setup_ns, "warmup_ns": warmup_ns}

    if args.mode != "setup":
        # Benchmark-side oracles are evaluated before any measurement.
        for group in workload.groups:
            for op in group:
                if isinstance(op, workloads.CoeffGridOp):
                    op.prepare_oracle()
        if args.mode == "timed":
            doc.update(_timed(fr, workload, args.seconds))
        else:
            doc.update(_fixed(fr, workload, args.traced))
        doc["inputs"] = workloads.inputs_doc(workload, doc["ops"])
        doc["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
