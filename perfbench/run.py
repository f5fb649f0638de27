#!/usr/bin/env python3
"""Builds and runs the rsp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload and prints, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --spread <runs> --workload <name> --seconds <s> [--trace <0|1>]

runs the workload <runs> times with seeds 1..<runs> and prints each
metric's median and its run-to-run spread (interquartile range as a share
of the median), the figures run length and bounds are chosen from.

Run from the root of a checkout. The benchmark is a Cargo package of its
own (`perfbench/Cargo.toml`); it is built in release mode into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("build failed", file=sys.stderr)
        return None
    return os.path.join(ROOT, target, "release", "rsp-perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def spread(binary, args):
    """Runs seeds 1..N and prints each metric's median and IQR/median."""
    values = {}
    units = {}
    for seed in range(1, args.spread + 1):
        code, out = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if code != 0:
            return code
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{args.workload}: {args.spread} runs of {args.seconds} s, trace {args.trace}")
    print(f"{'metric':<28} {'median':>14} {'unit':<6} {'iqr/median':>10}")
    for name, vals in values.items():
        vals = [v for v in vals if v is not None]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / abs(med) if med else float("nan")
        else:
            rel = float("nan")
        print(f"{name:<28} {med:>14.4f} {units[name]:<6} {rel:>10.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="repeat over this many seeds and print spreads")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.spread:
        return spread(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
