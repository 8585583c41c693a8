"""Benchmark of modsketch's protocol-to-sketch compiler and streaming sketches.

    python3 bench/run.py --workload reduce-f2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
--workload is reduce-f2, boost-zp, stream-replay or all.  With --trace 0 it
prints the end-to-end metrics (setup_s, job_s, peak_rss_mb), with --trace 1
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reduce-f2", "boost-zp", "stream-replay")
SETUP_PROBES = 8  # set-up-only processes besides the measured one
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(base + ["--seconds", "0", "--setup-only"], deadline))
    res = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res)
    jobs = res["job_s"]
    print(f"workload {workload}, seed {seed}: {len(jobs)} timed repetitions "
          f"(plus one warm-up{', alternating with traced ones' if trace else ''})")
    if trace:
        metrics = res["layers"]
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        print(f"  counts repeat across traced repetitions: {res['counts_repeat']}; "
              f"trace file {res['trace_file']}")
    else:
        metrics = {"setup_s": statistics.median(r["setup_scaled"] for r in setups),
                   "job_s": statistics.median(res["job_scaled"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        print(f"  wall seconds: set-up median {statistics.median(r['setup_s'] for r in setups):.4f} "
              f"of {len(setups)}; job fastest {min(jobs):.4f}, median {statistics.median(jobs):.4f}")
        for op, times in res["op_s"].items():
            print(f"    {op:<10} fastest {min(times):.4f}, median {statistics.median(times):.4f}")
        print("  scaled to the reference host (bench/README.md):")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed, "
          f"{len(res['errors'])} wrong outputs")
    for err in res["errors"]:
        print(f"  WRONG: {err}")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20, help="timed repetitions last this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modsketch" / "__init__.py").is_file():
        print(f"no modsketch sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, deadline) for w in names}
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
