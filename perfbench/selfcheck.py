#!/usr/bin/env python3
"""Must-fail self-check: an injected delay around one layer call must move
exactly the workloads that make that call.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [--delay-ms MS]

For each leg and listed workload, the workload runs once with
--inject-delay LAYER:MS: a sleep before each call the benchmark makes into
LAYER, in set-up and in every other repetition of the timed loop.  The run
reports throughput_per_s of the delayed repetitions and, on a "plain
repetitions:" line, of the others; comparing the two within one process
keeps the machine's drift between runs out of the check.  A workload
predicted to move must lose more than the metric's bound; a workload
predicted to stay must stay within it.  The exit code is 1 if any
prediction fails.  Run it from the root of a checkout.

The serve workload has no leg: its rewrite_with calls run inside the forked
server's workers, where the benchmark cannot wrap them.
"""
import argparse
import json
import subprocess
import sys

LEGS = [
    # layer, workloads that call it in the timed loop, workloads that do not
    ("core.rewrite", ["protect"], ["run", "attack"]),
    ("machine.run", ["run"], ["protect"]),
]
METRIC = "throughput_per_s"
PLAIN = "plain repetitions: " + METRIC + " "


def run(bench, workload, seed, seconds, delay):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0",
                              "--inject-delay", delay]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    plain = [float(l[len(PLAIN):]) for l in lines if l.startswith(PLAIN)]
    if p.returncode != 0 or not lines or not plain:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr}")
    return plain[0], json.loads(lines[-1])["metrics"][METRIC]["value"]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--delay-ms", type=float, default=40.0)
    args = ap.parse_args()
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}[METRIC]
    ok = True
    for layer, moves, stays in LEGS:
        for w in moves + stays:
            plain, delayed = run(bench, w, args.seed, args.seconds,
                                 f"{layer}:{args.delay_ms:g}")
            change = delayed / plain - 1.0
            good = change < -bound if w in moves else abs(change) <= bound
            ok = ok and good
            print(f"delay {args.delay_ms:g} ms around {layer:13s} {w:8s} "
                  f"{METRIC} plain {plain:.4g} delayed {delayed:.4g} "
                  f"({change:+.1%}), predicted "
                  f"{'move' if w in moves else 'stay'}: "
                  f"{'ok' if good else 'FAILED'}", flush=True)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
