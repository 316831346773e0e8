#!/usr/bin/env python3
"""Steadiness self-check: runs two interleaved sets of the benchmark and
compares them against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads point-read,tune]

Run it from the root of the checkout. Set A uses seeds 1..N and set B seeds
101..100+N; their runs alternate (A1 B1 B2 A2 A3 B3 ...), because the host
drifts over minutes and two sets run back to back would differ by the drift.
For every (workload, end-to-end metric) it prints each set's median and
quartiles, the spread (interquartile range over median), and whether both
spreads and the distance between the two medians (as a share of set A's, in
either direction) stay within the metric's bound. With --traced
it also runs one traced run per workload and prints its tracing overhead.
Raw results go to .bench_out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    took = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = i + 1 if side == "A" else 101 + i
                values, took = run_once(w, seed, args.seconds, 0)
                results[w][side].append(values)
                print(f"  run {i + 1}/{args.runs} {w} set {side} seed {seed}:"
                      f" {took:.0f} s", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs per set)")
        print(f"  {'metric':18} {'set':3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for side in ("A", "B"):
                stats[side] = spread([r[name] for r in results[w][side]])
            a_med, b_med = stats["A"][1], stats["B"][1]
            apart = abs(b_med - a_med) / a_med if a_med else float("inf")
            for side in ("A", "B"):
                q1, q2, q3, s = stats[side]
                if side == "A":
                    verdict = ""
                else:
                    steady = all(stats[x][3] <= bound for x in ("A", "B"))
                    agree = apart <= bound
                    third = all(stats[x][3] <= bound / 3 for x in ("A", "B"))
                    verdict = ("ok" if steady and agree else "FAIL") + \
                        f", medians {apart:.1%} apart" + \
                        ("" if third else ", spread above a third of the bound")
                    ok = ok and steady and agree
                print(f"  {name:18} {side:3} {q2:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {s:7.1%} {bound:6.2f}  {verdict}")

    if args.traced:
        print("\ntracing overhead (one traced run per workload)")
        for w in workloads:
            values, _ = run_once(w, 1, args.seconds, 1)
            plain = values["trace.untraced_ops_per_s"]
            traced = values["trace.traced_ops_per_s"]
            print(f"  {w:12} ops/s untraced {plain:.6g}, traced {traced:.6g};"
                  f" tune_s untraced {values['trace.untraced_tune_s']:.4g},"
                  f" traced {values['trace.traced_tune_s']:.4g};"
                  f" overhead {values['trace.overhead_pct']:+.1f}%")

    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {path}\n{'all agree' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
