#!/usr/bin/env python3
"""Runs the repository benchmark in two source trees as alternating pairs.

    scripts/perf_pairs.py <tree_a> <tree_b> --workload sweep_status_quo \\
        --pairs 10 [--seed 42] [--seconds 20] [--trace 0]

Pair i runs `python3 <tree>/perfbench/run.py` once in each tree; tree A
goes first in even pairs and tree B in odd ones, so drift on a noisy host
falls on both sides alike. Each tree builds its own program under
`<tree>/.bench_build/`. A tree can be any checkout of the repository: a
clone, an unpacked archive or a `git worktree` of the parent commit.

Only the last line of each run's stdout is read: perfbench's JSON object
{"correct", "attempted", "failed", "metrics"}. The script prints every
run's correct flag, failure count and end-to-end metrics, then, for each
metric that BENCHMARK.json declares and every run reported, each side's
median and quartiles and how many pairs each side won (by the metric's
"better" direction; equal values count for neither).

Last comes one verdict line per end-to-end metric, reading tree A as the
parent and tree B as the change, checked in this order:
  gain                B won at least 9 of every 10 pairs, and B's median
                      is better than A's by more than A's interquartile
                      range;
  worse beyond bound  B's median is worse than A's by more than the
                      metric's relative `bound` in BENCHMARK.json;
  unresolved          either side's interquartile range, relative to its
                      median, is wider than the bound;
  no regression       otherwise.
It writes no files. Exit status 1 means some run was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree, args):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit("perf_pairs: %s exited with code %d"
                 % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(metric, values, won, pairs):
    """The verdict line's label and its supporting numbers."""
    sign = 1 if metric["better"] == "lower" else -1
    med = {side: statistics.median(values[side]) for side in values}
    iqr = {side: quartiles(values[side])[1] - quartiles(values[side])[0]
           for side in values}
    gap = sign * (med["a"] - med["b"])  # > 0 when B is better
    bound = metric["bound"]
    worse = -gap / abs(med["a"]) if med["a"] else 0.0
    spread = max(iqr[side] / abs(med[side]) if med[side] else 0.0
                 for side in med)
    detail = ("b won %d/%d, median gap %+.4g %s, a IQR %.4g, worse by "
              "%+.1f%%, spread %.1f%%, bound %g%%"
              % (won["b"], pairs, gap, metric["unit"], iqr["a"],
                 100 * worse, 100 * spread, 100 * bound))
    if 10 * won["b"] >= 9 * pairs and gap > iqr["a"]:
        return "gain", detail
    if worse > bound:
        return "worse beyond bound", detail
    if spread > bound:
        return "unresolved", detail
    return "no regression", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"a": os.path.abspath(args.tree_a),
             "b": os.path.abspath(args.tree_b)}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["end_to_end"] + bench["per_layer"]

    print("# a = %s" % trees["a"])
    print("# b = %s" % trees["b"])
    print("# workload %s, seed %d, %g s, trace %d, %d pairs"
          % (args.workload, args.seed, args.seconds, args.trace, args.pairs))
    results = {"a": [], "b": []}
    all_correct = True
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            result = run_once(trees[side], args)
            results[side].append(result)
            all_correct = all_correct and bool(result["correct"])
            got = result["metrics"]
            values = "".join("  %s %.6g" % (m["name"], got[m["name"]]["value"])
                             for m in bench["end_to_end"] if m["name"] in got)
            print("pair %2d  %s  correct %-5s  attempted %d  failed %d%s"
                  % (i, side, str(result["correct"]).lower(),
                     result["attempted"], result["failed"], values),
                  flush=True)

    print("%-28s %-5s %12s %12s %12s %12s %12s %12s %7s %6s %6s"
          % ("metric", "unit", "a_median", "a_q1", "a_q3", "b_median",
             "b_q1", "b_q3", "b/a", "a_won", "b_won"))
    verdicts = []
    for metric in declared:
        name = metric["name"]
        if not all(name in r["metrics"] for side in results
                   for r in results[side]):
            continue
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        sign = 1 if metric["better"] == "lower" else -1
        won = {"a": 0, "b": 0}
        for va, vb in zip(values["a"], values["b"]):
            if sign * (va - vb) < 0:
                won["a"] += 1
            elif sign * (va - vb) > 0:
                won["b"] += 1
        med = {side: statistics.median(values[side]) for side in values}
        qa, qb = quartiles(values["a"]), quartiles(values["b"])
        ratio = med["b"] / med["a"] if med["a"] else float("nan")
        print("%-28s %-5s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %7.3f "
              "%6d %6d" % (name, metric["unit"], med["a"], qa[0], qa[1],
                           med["b"], qb[0], qb[1], ratio, won["a"],
                           won["b"]))
        if "bound" in metric:
            verdicts.append((name,) + verdict(metric, values, won,
                                              args.pairs))
    for name, label, detail in verdicts:
        print("verdict %-20s %-18s (%s)" % (name, label, detail))
    if not all_correct:
        print("# some run was not correct")
        sys.exit(1)


if __name__ == "__main__":
    main()
