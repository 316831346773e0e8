#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 30 \
        --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), engine files to
.bench_work/ (removed afterwards), and the spans of a traced run to
.bench_out/. The last line of standard output is the result object; the exit
code is 0 only when the build succeeded and every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point-read", "ingest-scan", "tune")
# The whole invocation must end within 180 s once built; leave room for
# start-up and clean-up.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = os.path.join(build_dir, "camal_perf")
    started = time.monotonic()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    log(f"build ready in {time.monotonic() - started:.1f} s")
    return binary


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        binary = build(root)
        expected = expected_metrics(root, args.trace)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"cannot build or read the benchmark definition: {e}")
        return 1

    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        log(f"camal_perf exited {proc.returncode} without a result line")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return 1
    if got != expected:
        wrong_unit = sorted(k for k in got
                            if expected.get(k, got[k]) != got[k])
        log("metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"unexpected {sorted(set(got) - set(expected))}, "
            f"units {wrong_unit}")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        log(f"{result.get('failed')} of {result.get('attempted')} checks "
            f"failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
