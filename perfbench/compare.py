#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    # Run each workload once per seed; one result file per run.
    python3 perfbench/compare.py collect --out runs/base --seeds 1-10 \\
        [--workloads post_notif,mesh_deep] [--seconds S] [--trace 0|1]

    # Spread of one set: median, quartiles and (Q3-Q1)/median per metric.
    python3 perfbench/compare.py spread runs/base

    # Two sets of the same benchmark (e.g. parent commit vs change).
    python3 perfbench/compare.py compare runs/base runs/head

A set is a directory holding <workload>/seed<n>-trace<t>.json, each file the
result object a run printed last. Bounds and directions come from
BENCHMARK.json at the repository root. In `compare`, a metric is *worse*
when the head median is worse than the base median by more than its bound,
and *unresolved* when either side's spread (Q3-Q1)/median exceeds the bound
(unless every head run beats every base run). `compare` exits 1 when any
end-to-end metric is worse; `spread` exits 1 when a run is not correct or a
spread exceeds a third of its bound, set-up time excepted (the steadiness rule
of perfbench/README.md).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    for workload in workloads:
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = done.stdout.rstrip("\n").split("\n")[-1]
            path = os.path.join(args.out, workload, "seed%d-trace%d.json" % (seed, args.trace))
            with open(path, "w") as f:
                f.write(last + "\n")
            print("%s seed %d: exit %d" % (workload, seed, done.returncode), flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)


def load_set(directory, trace):
    """{workload: {metric: [values]}} plus {workload: [correct flags]}."""
    values, correct = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*", "seed*-trace%d.json" % trace))):
        workload = os.path.basename(os.path.dirname(path))
        with open(path) as f:
            result = json.load(f)
        correct.setdefault(workload, []).append(bool(result.get("correct")))
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return values, correct


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread_of(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def spread(args):
    bench = load_benchmark()
    values, correct = load_set(args.set, args.trace)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    steady = True
    for workload in sorted(values):
        print("== %s (%d runs, %d correct)" % (workload, len(correct[workload]),
                                              sum(correct[workload])))
        steady &= all(correct[workload])
        for metric in metrics:
            series = values[workload].get(metric["name"])
            if not series:
                continue
            q1, median, q3 = quartiles(series)
            s = spread_of(series)
            bound = metric.get("bound")
            flag = ""
            if bound is not None and metric["name"] != "setup_s" and s > bound / 3:
                flag = "  > bound/3"
                steady = False
            print("  %-36s median %14.6g  q1 %14.6g  q3 %14.6g  spread %7.4f%s%s" % (
                metric["name"], median, q1, q3, s,
                "  (bound %.3f)" % bound if bound is not None else "", flag))
    return 0 if steady else 1


def compare(args):
    bench = load_benchmark()
    base, _ = load_set(args.base, args.trace)
    head, _ = load_set(args.head, args.trace)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    worse_any = False
    for workload in sorted(set(base) & set(head)):
        print("== %s" % workload)
        for metric in metrics:
            name = metric["name"]
            a, b = base[workload].get(name), head[workload].get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            lower = metric["better"] == "lower"
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse_by = change if lower else -change
            bound = metric.get("bound")
            verdict = "ok"
            if bound is not None:
                beats_all = (max(b) < min(a)) if lower else (min(b) > max(a))
                if worse_by > bound:
                    verdict = "WORSE"
                    worse_any = True
                elif max(spread_of(a), spread_of(b)) > bound and not beats_all:
                    verdict = "unresolved"
            print("  %-36s base %12.6g [%12.6g, %12.6g]  head %12.6g [%12.6g, %12.6g]"
                  "  %+7.2f%%  %s" % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                                      100 * change, verdict))
    return 1 if worse_any else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("set")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return spread(args) if args.command == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
