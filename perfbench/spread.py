#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads protect,run,...] [--seeds 1-10]
        [--seconds S] [--out FILE]

Runs every workload once per seed through perfbench/run.py (untraced) and
prints, per workload and metric, the median, the quartiles, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, setup_s
included.  A spread below a third of the bound is steady.  The exit code
is 1 if any run fails or reports correct=false, or if any spread exceeds
its bound.  Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw, bad = {}, 0
    for w in args.workloads.split(","):
        raw[w] = []
        for s in seeds_of(args.seeds):
            p = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(s),
                                    "--seconds", str(args.seconds),
                                    "--trace", "0"],
                capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else None
            if p.returncode != 0 or not res or not res["correct"]:
                bad += 1
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            raw[w].append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v:.4g}" for k, v in raw[w][-1].items()), flush=True)
    worst, over = 0.0, 0
    for w, runs in raw.items():
        if len(runs) < 2:
            continue
        for m, bound in bounds.items():
            vals = [r[m] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            status = ("steady" if spread < bound / 3
                      else "within bound" if spread <= bound else "OVER BOUND")
            over += spread > bound
            print(f"{w:8s} {m:18s} median {med:14.4f}  q1 {q1:14.4f}  "
                  f"q3 {q3:14.4f}  spread {spread:7.4f}  bound {bound:5.3f}  "
                  f"{status}")
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        json.dump(raw, open(args.out, "w"), indent=1)
    return 1 if bad or over else 0


if __name__ == "__main__":
    sys.exit(main())
