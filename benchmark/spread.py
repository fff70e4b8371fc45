#!/usr/bin/env python3
"""Repeatability record: runs the benchmark several times per workload, each
time with another seed, and prints per metric the median, the quartiles, the
quartile distance as a share of the median, and max/min.

    python3 benchmark/spread.py [--runs 10] [--seed 1] [--trace 0] [--workloads a,b]

The quartile distance over the median is the spread the driver compares with
each end-to-end metric's bound in BENCHMARK.json; the table marks a metric
whose spread exceeds a third of its bound. Output is markdown (BASELINE.md is
this script's output).
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

here = pathlib.Path(__file__).resolve().parent
manifest = json.loads((here.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=here.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    args = ap.parse_args()
    declared = manifest["end_to_end"] if args.trace == 0 else manifest["per_layer"]
    print(f"runs per workload: {args.runs}, seeds {args.seed}..{args.seed + args.runs - 1}, "
          f"--seconds {manifest['run_seconds']}, --trace {args.trace}\n")
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed + i, manifest["run_seconds"], args.trace) for i in range(args.runs)]
        print(f"## {workload}\n")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median | max/min | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for m in declared:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            span = max(values) / min(values) if min(values) > 0 else float("nan")
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                mark = " (spread above a third of it)" if spread <= bound else " (SPREAD ABOVE IT)"
            shown = "" if bound is None else f"{bound}{mark}"
            print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {span:.4f} | {shown} |")
        print(flush=True)


if __name__ == "__main__":
    main()
