#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload ring_mp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Every call configures and builds perfbench/
(which pulls in the library's own CMakeLists.txt) into the build directory,
$CARGO_TARGET_DIR or .bench_build; after the first call only what changed is
rebuilt. Build output goes to stderr, so the last line of stdout is the
result object, checked against BENCHMARK.json:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones and
writes the run's spans as Chrome trace JSON into the build directory. The exit
code is nonzero when the build fails, a run crashes, a digest mismatches or
the output does not match BENCHMARK.json. --smoke runs every workload at tiny sizes in
both modes and checks that every metric of BENCHMARK.json is printed with its
unit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure (cheap once configured) and build gkr_perf; returns its path."""
    out = build_dir()
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "gkr_perf", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "gkr_perf"


def load_spec():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Problems of one result object against BENCHMARK.json (empty if none)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value is not a number")
    return problems


def run_bench(binary, argv):
    """Runs gkr_perf, echoes its report, returns (exit code, result or None)."""
    proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, file=sys.stderr)
        return proc.returncode or 1, None


def smoke(binary, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = ["--workload", w["name"], "--seed", "1", "--seconds", "0.2",
                    "--trace", str(trace), "--smoke"]
            code, result = run_bench(binary, argv)
            problems = ["no result"] if result is None else check_result(result, spec, trace)
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None and not result["correct"]:
                problems.append("correct is false")
            print(f"smoke {w['name']} trace={trace}: {'ok' if not problems else problems}",
                  file=sys.stderr)
            failures += bool(problems)
    print("smoke: " + ("FAILED" if failures else "every metric printed with its unit"),
          file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary, spec)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-out", str(build_dir() / f"trace_{args.workload}_{args.seed}.json")]
    try:
        code, result = run_bench(binary, argv)
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if result is None:
        print(f"run.py: gkr_perf printed no result (exit code {code})", file=sys.stderr)
        return code or 1
    problems = check_result(result, spec, args.trace)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if code != 0 or problems else 0


if __name__ == "__main__":
    sys.exit(main())
