"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 10 --out bench/out/set-a.json
    python3 bench/steadiness.py --compare bench/out/set-a.json bench/out/set-b.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, against the bound
in BENCHMARK.json.  Runs go seed by seed, every workload in turn, so that a
slow phase of the host falls on all workloads alike.  --compare checks a
second set against a first: no metric's median may be worse by more than
its bound, and the share of failed operations must be the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(seeds: list[int], workloads: list[str], seconds: int) -> dict:
    runs: dict = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, "bench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, **last})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in last["metrics"].items()), flush=True)
    return runs


def summary(runs: dict) -> dict:
    out = {}
    for w, rs in runs.items():
        out[w] = {}
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "n": len(values)}
        out[w]["failed_share"] = [r["failed"] / r["attempted"] for r in rs]
    return out


def report(summ: dict):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(f"{'workload':<14} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for w, metrics in summ.items():
        for name, s in metrics.items():
            if name == "failed_share":
                continue
            flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of the bound)"
            print(f"{w:<14} {name:<12} {s['median']:>10.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} "
                  f"{s['spread']:>8.3f} {bounds[name]:>6}{flag}")


def compare(first: dict, second: dict) -> bool:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec()["end_to_end"]}
    ok = True
    for w in first:
        for name, (bound, better) in bounds.items():
            a, b = first[w][name]["median"], second[w][name]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE"
            ok &= worse <= bound
            print(f"{w:<14} {name:<12} {a:>10.4f} -> {b:>10.4f}  {worse:+.3f} (bound {bound}) {verdict}")
        same = set(first[w]["failed_share"]) == set(second[w]["failed_share"]) \
            and len(set(first[w]["failed_share"])) == 1
        ok &= same
        print(f"{w:<14} failed share the same in every run: {same}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path)
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text())["summary"] for p in args.compare)
        return 0 if compare(first, second) else 1
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs = collect(seeds, [w["name"] for w in spec()["workloads"]], args.seconds)
    summ = summary(runs)
    report(summ)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "summary": summ}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
