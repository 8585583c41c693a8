"""One benchmark process: set up a workload, time its job, check its outputs.

Started by run.py in a fresh process with BLAS/OpenMP threads set to 1, so
that set-up is measured from process start.  After one untimed warm-up it
repeats the job until --seconds have passed, with gc.collect() between
repetitions, and checks every operation's output.  With --trace 1 it
alternates untraced and traced repetitions, so the tracing overhead is
measured in the same process.  Prints one JSON line.

On the 2-vCPU virtual machine the reference figures come from, single-thread
speed drifted by up to 2.4x in phases of up to a minute, longer than a run.
So every operation is bracketed by a fixed
reference loop (``calibrate``) and its time is also given scaled to a
reference host on which that loop takes CAL_REF_S; the scaled times are the
ones the benchmark reports.  See README.md for the measurements behind this.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FAILED = object()
CAL_CALLS = 40_000
CAL_TRANSFORMS = 16
CAL_REF_S = 0.04  # the reference loop's time on the reference host


def _ref_msg(x: int, prev: tuple, r: int) -> int:
    acc = prev[-1] if prev else 0
    return acc ^ ((x & 0x5555).bit_count() & 1)


def _ref_fwht(a: np.ndarray) -> np.ndarray:
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(-1)
        h *= 2
    return a


def calibrate() -> float:
    """Seconds for a fixed reference loop made like the jobs: calls shaped
    like a protocol's message functions on fresh tuples (about half of its
    time) and Walsh-Hadamard butterflies on 2^14 complex values."""
    t0 = time.perf_counter()
    msgs = [0]
    for x in range(CAL_CALLS):
        msgs.append(_ref_msg(x, tuple(msgs[-2:]), 0))
        if len(msgs) > 64:
            del msgs[:-2]
    values = np.linspace(0.0, 1.0, 1 << 14)
    for _ in range(CAL_TRANSFORMS):
        _ref_fwht(values.astype(np.complex128))
    return time.perf_counter() - t0


def run_rep(ops, tr):
    """One repetition of the job, each operation between two calibrations.

    Returns (wall seconds, scaled seconds, {op: wall seconds}, outputs).
    """
    op_s, outs, scaled = {}, [], 0.0
    cal = calibrate()
    wall = 0.0
    for name, _, op in ops:
        s = time.perf_counter()
        try:
            out = op(tr)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            out = FAILED
        op_s[name] = time.perf_counter() - s
        outs.append(out)
        wall += op_s[name]
        after = calibrate()
        scaled += op_s[name] * CAL_REF_S / ((cal + after) / 2)
        cal = after
    return wall, scaled, op_s, outs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args()

    import modsketch

    if not Path(modsketch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"modsketch came from {modsketch.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    null = tracing.NullTracer()
    tracer = tracing.Tracer() if args.trace else null
    ops = workloads.setup(args.workload, args.seed, tracer)
    setup_s = time.monotonic() - args.spawned_at
    setup_scaled = setup_s * CAL_REF_S / statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scaled": setup_scaled}))
        return 0

    attempted = failed = 0
    errors: list[str] = []

    def check(outs, rep):
        nonlocal attempted, failed
        for (name, inp, _), out in zip(ops, outs):
            attempted += 1
            if out is FAILED:
                failed += 1
                continue
            errors.extend(checks.check(args.workload, name, inp, out))
            if args.trace and rep is not None:
                reports = [out.report] if hasattr(out, "report") else getattr(out, "round_reports", [])
                for r in reports:
                    tracer.notes.append({"rep": rep, "op": name, "report_timings": r.timings})

    gc.collect()
    check(run_rep(ops, null)[3], None)  # warm-up, untimed

    job_s, job_scaled, op_s = [], [], defaultdict(list)
    traced_reps, traced_scaled = [], []
    start = time.monotonic()
    i = 0
    while True:
        gc.collect()
        if args.trace and i % 2 == 0:
            tracer.rep = i
            restore = tracing.install(tracer)
            try:
                wall, scaled, _, outs = run_rep(ops, tracer)
            finally:
                restore()
            traced_reps.append(i)
            traced_scaled.append(scaled)
            tracer.scale[i] = scaled / wall
            tracer.count_messages = False
        else:
            wall, scaled, times, outs = run_rep(ops, null)
            job_s.append(wall)
            job_scaled.append(scaled)
            for name, s in times.items():
                op_s[name].append(s)
        check(outs, i if args.trace and i % 2 == 0 else None)
        del outs
        i += 1
        if time.monotonic() - start >= args.seconds and job_s and (len(traced_reps) >= 2 or not args.trace):
            break

    result = {
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "job_s": job_s,
        "job_scaled": job_scaled,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer, traced_reps, traced_scaled, job_scaled)
        result["counts_repeat"] = tracing.counts_repeat(tracer, traced_reps)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_reps": traced_reps, "scale": tracer.scale,
                            "traced_scaled_job_s": traced_scaled, "untraced_scaled_job_s": job_scaled})
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
