#!/usr/bin/env python3
"""Compares sets of safeloc_bench result files against BENCHMARK.json.

Result files are the --out JSON of bench/e2e/run.py (by default
build-bench/results/*.json). A set is a directory or a list of files; only
untraced results (trace 0) count. Three modes:

  agree.py spread SET
      Per (workload, end-to-end metric): runs, median, and the spread
      (distance between the first and third quartile, as
      statistics.quantiles(values, n=4) gives them, over the median)
      against the metric's bound. A spread under a third of the bound is
      steady; one above the bound cannot resolve a regression of that size.

  agree.py compare BASE OTHER
      Two sets of runs, e.g. two passes over the same code or a parent and
      a change: per (workload, metric), how much OTHER's median is worse
      than BASE's, as a share of BASE's median, against the bound. Exits 1
      when any pair is worse by more than its bound.

  agree.py pairs PARENT CHANGE
      Runs of a parent and a change paired by (workload, seed): a gain
      counts only when the change wins at least 9 of 10 pairs (ties count
      for neither) and the medians differ by more than the parent's own
      quartile distance.

Every mode refuses to mix host shapes (nproc, hardware threads, kernel
variant, compiler): a number from one host shape is never compared with one
from another. Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*.json")))
        else:
            files.append(path)
    results = []
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            result = json.load(f)
        if result.get("schema") != "safeloc.bench_result/v1":
            continue
        if result["trace"] == 0:
            result["_file"] = name
            results.append(result)
    if not results:
        raise SystemExit("agree.py: no untraced result files in %s" % paths)
    return results


def host_key(result):
    host = result["host"]
    return (host["nproc"], host["hardware_threads"], host["kernel"],
            host["compiler"])


def check_hosts(*sets):
    shapes = {host_key(r) for s in sets for r in s}
    if len(shapes) > 1:
        raise SystemExit("agree.py: refusing to compare across host shapes: "
                         + "; ".join(str(s) for s in sorted(shapes)))


def values_by_metric(results, metrics):
    """{(workload, metric): [values]} over correct runs."""
    table = {}
    for result in results:
        if not result["correct"]:
            print("agree.py: skipping incorrect run " + result["_file"],
                  file=sys.stderr)
            continue
        for name in metrics:
            metric = result["metrics"].get(name)
            if metric is not None:
                table.setdefault((result["workload"], name), []).append(
                    metric["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_share(base, other, better):
    """How much `other` is worse than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    delta = (other - base) / base
    return delta if better == "lower" else -delta


def cmd_spread(args, spec):
    results = load_set(args.set)
    check_hosts(results)
    table = values_by_metric(results, spec)
    worst = 0.0
    print("%-16s %-16s %4s %14s %8s %7s  %s" % (
        "workload", "metric", "runs", "median", "spread", "bound", "verdict"))
    for (workload, name), values in sorted(table.items()):
        bound = spec[name]["bound"]
        s = spread(values)
        verdict = ("steady" if s < bound / 3 else
                   "within bound" if s <= bound else "TOO NOISY")
        if name != "setup_s":
            worst = max(worst, s / bound)
        print("%-16s %-16s %4d %14.6g %7.2f%% %6.1f%%  %s" % (
            workload, name, len(values), statistics.median(values),
            100 * s, 100 * bound, verdict))
    return 0 if worst <= 1.0 else 1


def cmd_compare(args, spec):
    base, other = load_set([args.base]), load_set([args.other])
    check_hosts(base, other)
    a, b = values_by_metric(base, spec), values_by_metric(other, spec)
    failed = False
    print("%-16s %-16s %14s %14s %9s %7s %8s %8s  %s" % (
        "workload", "metric", "base median", "other median", "worse by",
        "bound", "spread A", "spread B", "verdict"))
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if key not in a or key not in b:
            print("%-16s %-16s missing from one set" % key)
            failed = True
            continue
        bound = spec[name]["bound"]
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        worse = worse_share(ma, mb, spec[name]["better"])
        ok = worse <= bound
        failed |= not ok
        print("%-16s %-16s %14.6g %14.6g %8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s"
              % (workload, name, ma, mb, 100 * worse, 100 * bound,
                 100 * spread(a[key]), 100 * spread(b[key]),
                 "agree" if ok else "WORSE"))
    return 1 if failed else 0


def cmd_pairs(args, spec):
    parent, change = load_set([args.parent]), load_set([args.change])
    check_hosts(parent, change)

    def by_seed(results):
        return {(r["workload"], r["seed"]): r for r in results
                if r["correct"]}

    p, c = by_seed(parent), by_seed(change)
    keys = sorted(set(p) & set(c))
    if not keys:
        raise SystemExit("agree.py: no (workload, seed) pairs in common")
    print("%-16s %-16s %5s %5s %14s %14s %12s  %s" % (
        "workload", "metric", "pairs", "wins", "parent median",
        "change median", "parent IQR", "verdict"))
    for workload in sorted({k[0] for k in keys}):
        wk = [k for k in keys if k[0] == workload]
        for name, metric in sorted(spec.items()):
            pv = [p[k]["metrics"][name]["value"] for k in wk
                  if name in p[k]["metrics"] and name in c[k]["metrics"]]
            cv = [c[k]["metrics"][name]["value"] for k in wk
                  if name in p[k]["metrics"] and name in c[k]["metrics"]]
            if not pv:
                continue
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(pv, cv) if sign * (y - x) > 0)
            q1, _, q3 = quartiles(pv)
            gap = statistics.median(cv) - statistics.median(pv)
            gain = (wins >= 0.9 * len(pv) and sign * gap > 0
                    and abs(gap) > q3 - q1)
            print("%-16s %-16s %5d %5d %14.6g %14.6g %12.6g  %s" % (
                workload, name, len(pv), wins, statistics.median(pv),
                statistics.median(cv), q3 - q1,
                "GAIN" if gain else "no claim"))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", default="BENCHMARK.json",
                        help="benchmark definition (default: %(default)s)")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("set", nargs="+")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("other")
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()
    spec = load_spec(args.spec)
    return {"spread": cmd_spread, "compare": cmd_compare,
            "pairs": cmd_pairs}[args.mode](args, spec)


if __name__ == "__main__":
    sys.exit(main())
