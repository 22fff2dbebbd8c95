"""One workload process: set up, warm up, then a closed loop of whole
rounds of operations (one caller, one operation after another).

Started by run.py with the BLAS/OpenMP thread pools pinned to one thread.
Prints one JSON line on stdout.  With --setup-only it stops after the
warm-up operation and reports only its set-up time.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_LOOPS = 400_000
# Reference-loop rate of a nominal host, iterations per second.  Times are
# reported at this rate: a time measured while the loop ran at rate r is
# scaled by r / NOMINAL_RATE (see README, "Steadiness").
NOMINAL_RATE = 1.0e7


def reference_rate() -> float:
    """Iterations per second of a fixed pure-Python loop (no discenv code),
    about 40 ms; it slows with the host as the workloads do."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return REFERENCE_LOOPS / (time.perf_counter() - t0)


def machine_record(discenv, np) -> dict:
    blas = None
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "backend": discenv.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_op(wl, op, tracer):
    """(seconds, output values or None, failure reason or None, whether
    the failure is the known fault's symptom)."""
    from workloads import CheckFailed, NoResult

    t0 = time.perf_counter()
    try:
        result = tracer.call("op", wl.run, op) if tracer else wl.run(op)
    except Exception:  # the program failed: count the operation as failed
        dt = time.perf_counter() - t0
        return dt, None, "raised " + traceback.format_exc(limit=-1).strip(), False
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(op, result), None, False
    except CheckFailed as e:
        return dt, None, str(e), op.known_fault and isinstance(e, NoResult)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import discenv

    if Path(discenv.__file__).resolve().parent != SRC / "discenv":
        print(f"discenv imported from {discenv.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    import tracing

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    _dt, _values, reason, known_fault = run_op(wl, wl.round[0], None)  # warm-up
    if reason is not None and not known_fault:
        print(f"warm-up operation failed: {reason}", file=sys.stderr)
    setup_s = time.monotonic() - args.spawned_at
    setup_ref = statistics.mean(reference_rate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return 0

    machine = machine_record(discenv, np)
    tracer = tracing.Tracer() if args.trace else None
    rounds = []  # (traced, seconds of operations)
    refs = []  # reference rate before each round, and one after the last
    attempted = failed = 0
    unexpected = {}  # reason -> count; any of these makes the run incorrect
    known = {}  # the known fault's failures
    outputs = {}  # output metric -> values from traced operations
    t_start = time.monotonic()
    while True:
        # the traced run alternates untraced and traced rounds
        traced = tracer is not None and len(rounds) % 2 == 1
        refs.append(reference_rate())
        busy = 0.0
        for op in wl.round:
            dt, values, reason, known_fault = run_op(wl, op, tracer if traced else None)
            busy += dt
            attempted += 1
            if reason is not None:
                failed += 1
                bucket = known if known_fault else unexpected
                bucket[f"{op.label}: {reason}"] = bucket.get(f"{op.label}: {reason}", 0) + 1
            elif traced:
                for k, v in values.items():
                    outputs.setdefault(k, []).append(v)
        rounds.append((traced, busy))
        # at least two rounds, so that the round-time quartiles exist
        if (time.monotonic() - t_start >= args.seconds and len(rounds) >= 2
                and (tracer is None or len(rounds) % 2 == 0)):
            break
    wall = time.monotonic() - t_start
    refs.append(reference_rate())

    per_round = len(wl.round)
    plain = [b for t, b in rounds if not t]
    # each round's time at the nominal host speed, from the reference rates
    # measured just before and just after it
    scaled = [b * (refs[i] + refs[i + 1]) / (2.0 * NOMINAL_RATE)
              for i, (t, b) in enumerate(rounds) if not t]
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "info": {
            "machine": machine,
            "reference_loop_per_s": refs,
            "rounds": len(rounds),
            "ops_per_round": per_round,
            "round_s": [b for _t, b in rounds],
            "wall_s": wall,
            "known_fault_failures": known,
            "unexpected_failures": unexpected,
        },
    }
    if tracer is None:
        result["metrics"] = {
            # the upper quartile of the scaled round times: the rate the
            # host's baseline speed sustains (see README, "Steadiness")
            "ops_per_s": {"value": per_round / statistics.quantiles(scaled, n=4)[2],
                          "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        result["info"]["unscaled_ops_per_s"] = \
            per_round / statistics.quantiles(plain, n=4)[2]
    else:
        traced_rounds = [b for t, b in rounds if t]
        metrics, missing = tracer.metrics(per_round * len(traced_rounds))
        for name, unit, _better in tracing.OUTPUT_METRICS:
            vals = outputs.get(name, [])
            metrics[name] = {"value": sum(vals) / len(vals) if vals else 0.0,
                             "unit": unit}
        name, unit, _better = tracing.OVERHEAD_METRIC
        metrics[name] = {"value": (statistics.median(traced_rounds) -
                                   statistics.median(plain)) / per_round,
                         "unit": unit}
        result["metrics"] = metrics
        result["info"]["missing_metrics"] = missing
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(trace_path)
        result["info"]["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
