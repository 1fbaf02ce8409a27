#!/usr/bin/env python3
"""Steadiness report: the evidence the bounds in BENCHMARK.json rest on.

    python3 perfbench/steadiness.py [--runs 10] [--workloads ring_mp,party_scale]
                                    [--seconds S] [--first-seed 1]

Runs each workload --runs times, each with another seed, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median next to the metric's bound. A spread at or below a
third of the bound is "steady", one above the bound "TOO NOISY" (exit code 1).
Run from the root of a checkout, like run.py.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the sibling run.py)


def main():
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    binary = run.build()
    report = {}
    bad = 0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", "0"]
            code, result = run.run_bench(binary, argv)
            if code != 0 or result is None or run.check_result(result, spec, 0):
                print(f"steadiness: {workload} seed {seed} failed (exit code {code})",
                      file=sys.stderr)
                bad += 1
                continue
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"\n[{workload}] {args.runs} runs x {args.seconds:g} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"| {'metric':<18} | {'median':>12} | {'q1':>12} | {'q3':>12} | {'spread':>7} "
              f"| {'bound':>5} | verdict |")
        report[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within"
            else:
                verdict = "TOO NOISY"
                bad += 1
            print(f"| {m['name']:<18} | {med:>12.6g} | {q1:>12.6g} | {q3:>12.6g} | "
                  f"{spread:>7.4f} | {m['bound']:>5} | {verdict} |")
            report[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                           "values": vals}
    print(json.dumps({"steadiness": report}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
