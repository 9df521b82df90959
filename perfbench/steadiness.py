#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and report each end-to-end metric's median, quartiles and spread (the
inter-quartile range as a share of the median, as statistics.quantiles
gives it) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads wire-read,...] [--first-seed 1]

Raw results go to .bench_build/steadiness/<workload>-seed<n>.json; the
markdown table goes to standard output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(".bench_build", "steadiness")
    os.makedirs(out_dir, exist_ok=True)

    print(f"| workload | metric | median | q1 | q3 | spread | bound/3 | runs |")
    print(f"|---|---|---|---|---|---|---|---|")
    for w in names:
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            start = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            with open(os.path.join(out_dir, f"{w}-seed{seed}.json"), "w") as f:
                json.dump({"wall_s": wall, "stderr": p.stderr, "result": res}, f, indent=1)
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result\n{p.stderr}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f}s", file=sys.stderr)
        for name in sorted(values):
            v = values[name]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            third = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"| {w} | {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {third} | {len(v)} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
