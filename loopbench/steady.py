#!/usr/bin/env python3
"""Steadiness check for the loopbench benchmark.

Runs the command in BENCHMARK.json once per (seed, workload), with the
workloads interleaved (A B C A B C ...) so that drift of the host hits
every workload alike, and reports for every end-to-end metric the median
and the distance between the first and third quartile as a share of the
median, next to the metric's bound. A spread above a third of the bound is
flagged.

    python3 loopbench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0] [--show]

With --show every run's human-readable lines (each metric with its unit,
median, quartiles and sample count) are printed too.

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--show", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    ok = True
    for seed in args.seeds:
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            lines = out.stdout.strip().splitlines()
            if args.show:
                print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print()
    for w in workloads:
        for name, bound in bounds.items():
            vals = values[w][name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            bound_text = "" if bound is None else f" bound {bound:.2f}"
            print(f"{w}/{name:<26} median {med:12.5g} spread {spread:7.3f}{bound_text}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
