#!/usr/bin/env python3
"""Builds the release binaries from source and runs the benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload online --seed 1 --seconds 30 --trace 0

builds `tsg-serve` (the repository's own release profile) and the
`perfbench` package into $CARGO_TARGET_DIR (default `.bench_build`), then
runs one workload. The last line of standard output is the result JSON.

Steadiness check (runs one build repeatedly, alternating workloads):

    python3 perfbench/run.py --steadiness 10 [--first-seed 1] [--seconds 30]

runs every workload in BENCHMARK.json once per round, and prints, for each
workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
and flags every metric whose spread exceeds its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def target_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds both binaries; exits with cargo's failure code on error."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit("perfbench: no repository sources next to the benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tsg_serve", "--bin", "tsg-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)


def commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, rev, capture):
    cmd = [
        str(target_dir() / "release" / "perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--server-bin", str(target_dir() / "release" / "tsg-serve"),
        "--commit", rev,
    ]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def steadiness(args, rev):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {name: [] for name in bounds} for w in workloads}
    bad_runs = 0
    last_seed = args.first_seed + args.steadiness - 1
    print(f"steadiness: commit {rev}, nproc {os.cpu_count()}, "
          f"{seconds} s runs, seeds {args.first_seed}..{last_seed}, untraced", flush=True)
    for i in range(args.steadiness):
        seed = args.first_seed + i
        # rotate the order each round so no workload always runs first
        for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            result = run_once(w, seed, seconds, 0, rev, capture=True)
            if result is None or not result["correct"] or result["failed"]:
                bad_runs += 1
                print(f"run {w} seed {seed}: FAILED {result}", flush=True)
                continue
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            summary = " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds)
            print(f"run {w} seed {seed}: {summary}", flush=True)
    flagged = 0
    print(f"\n{'workload':<10} {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, bound in bounds.items():
            sample = values[w][name]
            if len(sample) < 2:
                continue
            q1, med, q3 = statistics.quantiles(sample, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "  PAST BOUND"
                flagged += 1
            elif spread > bound / 3:
                flag = "  above a third of bound"
            print(f"{w:<10} {name:<18} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.3f} {bound:>6}{flag}")
    print(f"\n{bad_runs} failed run(s); {flagged} metric(s) past their bound")
    return 1 if bad_runs or flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    build()
    rev = commit()
    if args.steadiness:
        return steadiness(args, rev)
    if not args.workload or not args.seconds:
        parser.error("--workload and --seconds are required")
    return run_once(args.workload, args.seed, args.seconds, args.trace, rev, capture=False)


if __name__ == "__main__":
    sys.exit(main())
