#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    python3 perfbench/compare.py collect --out DIR [--workloads a,b] [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare BASE NEW

`collect` runs perfbench/run.py once per (workload, seed) and keeps each
run's standard output as DIR/<workload>-<seed>.log.  `spread` prints, per
(workload, metric), the median, the quartiles and the quartile spread as
a share of the median against the metric's bound, plus the share of
failed operations.  `compare` prints, per (workload, metric), both
medians and quartiles, a two-sided Mann-Whitney rank-sum test (U and p)
and the verdict against the bound from BENCHMARK.json: "worse" when the
new median is worse than the base by more than the bound, "better" when
it is better by more than the bound, "within" otherwise.  Quartiles are
those of statistics.quantiles(values, n=4).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


# --- Mann-Whitney rank-sum test -------------------------------------------

def midranks(values):
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def u_counts(n1, n2):
    """counts[u] = number of arrangements of n1 x's and n2 y's whose
    U statistic (pairs with the x above the y) is u."""
    # f[a][b] is the count vector for a x's and b y's; adding the largest
    # element as an x adds b to U, as a y adds nothing.
    f = [[None] * (n2 + 1) for _ in range(n1 + 1)]
    for a in range(n1 + 1):
        for b in range(n2 + 1):
            if a == 0 or b == 0:
                f[a][b] = [1]
                continue
            size = a * b + 1
            c = [0] * size
            for u, v in enumerate(f[a - 1][b]):
                c[u + b] += v
            for u, v in enumerate(f[a][b - 1]):
                c[u] += v
            f[a][b] = c
    return f[n1][n2]


def mann_whitney(x, y, method="auto"):
    """Two-sided Mann-Whitney U test of x against y.

    Returns (U, p) with U the statistic of x: the number of (x, y) pairs
    with x above y, ties counting one half.  `exact` enumerates the null
    distribution of U (valid without ties); `asymptotic` is the normal
    approximation with tie correction and continuity correction; `auto`
    takes exact when there are no ties and both samples have at most 50
    values.  Conventions follow scipy.stats.mannwhitneyu."""
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = list(x) + list(y)
    ranks = midranks(pooled)
    u1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    big = max(u1, n1 * n2 - u1)
    ties = len(set(pooled)) < len(pooled)
    if method == "auto":
        method = "exact" if not ties and n1 <= 50 and n2 <= 50 else "asymptotic"
    if method == "exact":
        counts = u_counts(n1, n2)
        tail = sum(counts[int(math.ceil(big)):])
        p = 2 * tail / math.comb(n1 + n2, n1)
    elif method == "asymptotic":
        n = n1 + n2
        tie_term = 0
        for v in set(pooled):
            t = pooled.count(v)
            tie_term += t ** 3 - t
        var = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
        if var <= 0:
            return u1, 1.0
        z = (big - n1 * n2 / 2 - 0.5) / math.sqrt(var)
        p = math.erfc(z / math.sqrt(2))
    else:
        raise ValueError(f"unknown method {method}")
    return u1, min(1.0, p)


# --- run logs ---------------------------------------------------------------

def load_runs(directory):
    """{workload: [result objects]} from the .log files of one set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".log"):
            continue
        meta, result = None, None
        with open(os.path.join(directory, name)) as f:
            lines = [ln for ln in f.read().split("\n") if ln.strip()]
        for ln in lines:
            if ln.startswith("run: "):
                meta = json.loads(ln[5:])
        if lines:
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
        if meta is None or result is None:
            print(f"skipping {name}: no run record or result", file=sys.stderr)
            continue
        runs.setdefault(meta["workload"], []).append(result)
    return runs


def bench_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (math.nan,) * 3
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else math.nan


# --- commands ----------------------------------------------------------------

def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_collect(args):
    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            path = os.path.join(args.out, f"{w}-{seed}.log")
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            with open(path, "w") as out:
                code = subprocess.run(cmd, stdout=out).returncode
            print(f"{w} seed {seed}: exit {code}", flush=True)


def cmd_spread(args):
    spec = bench_spec()
    for w, results in sorted(load_runs(args.dir).items()):
        print(f"== {w}: {len(results)} runs, failed share {failed_share(results):.6g}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in sorted(results[0]["metrics"]):
            v = values(results, metric)
            q1, q2, q3 = quartiles(v)
            spread = (q3 - q1) / q2 if q2 else math.nan
            bound = spec.get(metric, {}).get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:g}: {'ok' if spread <= bound else 'OVER'}" + (
                    "" if spread <= bound / 3 else " (above a third)")
            print(f"  {metric:40s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.3f}  {note}")


def verdict(metric_spec, base, new):
    better = metric_spec.get("better", "lower")
    bound = metric_spec.get("bound")
    if bound is None:
        return "-"
    change = (new - base) / base if base else math.nan
    worse = change > bound if better == "lower" else change < -bound
    improved = change < -bound if better == "lower" else change > bound
    return "worse" if worse else "better" if improved else "within"


def cmd_compare(args):
    spec = bench_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    for w in sorted(set(base) & set(new)):
        b, n = base[w], new[w]
        print(f"== {w}: {len(b)} vs {len(n)} runs, failed share {failed_share(b):.6g} vs "
              f"{failed_share(n):.6g}")
        for metric in sorted(set(b[0]["metrics"]) & set(n[0]["metrics"])):
            vb, vn = values(b, metric), values(n, metric)
            qb, qn = quartiles(vb), quartiles(vn)
            u, p = mann_whitney(vn, vb)
            print(f"  {metric:40s} base {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"new {qn[1]:12.6g} [{qn[0]:.6g}, {qn[2]:.6g}]  "
                  f"change {100 * (qn[1] - qb[1]) / qb[1] if qb[1] else math.nan:+7.2f}%  "
                  f"U {u:6.1f} p {p:.4f}  bound: {verdict(spec.get(metric, {}), qb[1], qn[1])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("new")
    args = ap.parse_args()
    {"collect": cmd_collect, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
