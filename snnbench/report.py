#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload (or those named) several times, each with its own
seed, and prints for each end-to-end metric its median, quartiles and
quartile spread as a share of the median, against the metric's bound.
Run it from the repository root:

    python3 snnbench/report.py --runs 10
    python3 snnbench/report.py --runs 5 --workloads stream-snn-cmos --save a.json
    python3 snnbench/report.py --runs 10 --against a.json

--save writes the raw values; --against compares this set's medians with
a saved set's and flags any metric worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs differ from their reference")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, base, new):
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    previous = json.load(open(args.against)) if args.against else {}
    raw = {}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(spec, workload, args.first_seed + i))
            print(f"# {workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "(set-up: compared by median only)"
            elif spread > bound:
                verdict, steady = "NOISY: spread above bound", False
            elif spread > bound / 3:
                verdict = "steady, above a third of the bound"
            else:
                verdict = "steady"
            if workload in previous:
                old = statistics.median(r[name] for r in previous[workload])
                w = worse_by(metric, old, med)
                verdict += f"; vs saved median {old:.4g}: {100 * w:+.1f}% worse"
                if w > bound:
                    verdict, steady = verdict + " OVER BOUND", False
            print(f"  {name:<16} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {100 * spread:>6.2f}% {bound:>6.2f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
