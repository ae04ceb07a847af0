#!/usr/bin/env python3
"""Compare two sets of benchmark result files (standard library only).

    python3 benchmark/compare.py --base p1.json p2.json ... --head c1.json c2.json ...

Each file is a result of benchmark/run.py: bench_results.json of an
all-workloads run, or the --out file of a single-workload run.  Files pair
up in the order given, base[i] with head[i]; run the pairs alternating which
side goes first.  Directions and bounds come from BENCHMARK.json.

For every workload x metric present on both sides it prints each side's
median and quartiles, the pairs the head wins (ties count for neither), and
a verdict:

  improved      at least 10 pairs, the head wins at least 9/10 of them, the
                medians differ in the head's favour by more than the base's
                interquartile range, and no more operations failed than on
                the base side
  unresolved    the base runs spread (IQR / median) wider than the bound,
                and not every head run beats every base run
  worse         the head median is worse than the base median by more than
                the bound
  within bound  otherwise ('-' for per-layer metrics, which have no bound)
"""
import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    """[{workload: result}] per file."""
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f)["workloads"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound, failed_base, failed_head):
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    gap = sign * (hmed - bmed)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gap > b3 - b1 and failed_head <= failed_base):
        return "improved", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if bmed != 0 and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if bmed != 0 and -gap / abs(bmed) > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()
    if len(args.base) != len(args.head):
        print("compare.py: --base and --head need the same number of files",
              file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = load(args.base), load(args.head)

    print("%-14s %-34s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "base_med", "base_q1..q3", "head_med",
        "head_q1..q3", "wins", "verdict"))
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = [r[workload] for r in base if workload in r]
        h_runs = [r[workload] for r in head if workload in r]
        if not b_runs or not h_runs:
            continue
        failed_b = sum(r["failed"] for r in b_runs)
        failed_h = sum(r["failed"] for r in h_runs)
        names = [n for n in b_runs[0]["metrics"] if n in h_runs[0]["metrics"]]
        for name in names:
            m = meta.get(name, {"better": "higher"})
            bv = [r["metrics"][name]["value"] for r in b_runs]
            hv = [r["metrics"][name]["value"] for r in h_runs]
            v, wins, pairs = verdict(bv, hv, m["better"], m.get("bound"),
                                     failed_b, failed_h)
            worst = max(worst, v == "worse")
            bq, hq = quartiles(bv), quartiles(hv)
            print("%-14s %-34s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g "
                  "%3d/%-3d %s" % (workload, name, bq[1], bq[0], bq[2], hq[1],
                                  hq[0], hq[2], wins, pairs, v))
        print("%-14s failed operations: base %d, head %d" % (
            workload, failed_b, failed_h))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
