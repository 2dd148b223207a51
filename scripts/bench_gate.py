#!/usr/bin/env python3
"""Throughput gate: one short perfbench run against a committed baseline.

    scripts/bench_gate.py            # check (ctest perfbench_gate)
    scripts/bench_gate.py --record   # rewrite scripts/bench_gate.json

Runs `perfbench/run.py --workload all --seed 42 --seconds 0` once (five
timed passes per workload) with every VROOM_* variable removed from the
environment, and reads only the run's final JSON line. The first run in a
tree also builds perfbench under `.bench_build/`.

It prints each workload's `pass_cpu_s` (host-normalized CPU seconds of one
pass) beside the recorded value and the limit, twice the recorded value,
and the run's correct, attempted and failed. It fails (exit 1) when the
run exits non-zero or a workload's `pass_cpu_s` exceeds its limit. A digest
mismatch is printed but does not fail the gate: perfbench reports it as
`correct: false`, and a change that means to move simulated output
re-records `perfbench/references.json` separately.

--record runs the same command once and writes its seed, the commit and
the three `pass_cpu_s` values to `scripts/bench_gate.json`. Record on a
quiet host.
"""

import argparse
import json
import os
import subprocess
import sys

from perf_pairs import ROOT, run_once

BASELINE = os.path.join(ROOT, "scripts", "bench_gate.json")
WORKLOADS = ["sweep_status_quo", "sweep_vroom", "deploy_day"]
SEED = 42
LIMIT = 2.0  # a pass may cost at most twice its recorded CPU time


def commit():
    out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                          "--dirty"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the baseline from one run")
    args = parser.parse_args()

    for name in [n for n in os.environ if n.startswith("VROOM_")]:
        del os.environ[name]
    run = argparse.Namespace(workload="all", seed=SEED, seconds=0, trace=0)
    result = run_once(ROOT, run)
    got = {w: result["metrics"]["%s:pass_cpu_s" % w]["value"]
           for w in WORKLOADS}
    print("correct %s  attempted %d  failed %d"
          % (str(result["correct"]).lower(), result["attempted"],
             result["failed"]))

    if args.record:
        with open(BASELINE, "w") as f:
            json.dump({"seed": SEED, "commit": commit(), "pass_cpu_s": got},
                      f, indent=2)
            f.write("\n")
        for w in WORKLOADS:
            print("%-18s pass_cpu_s %.4f s recorded" % (w, got[w]))
        return

    with open(BASELINE) as f:
        recorded = json.load(f)
    over = []
    for w in WORKLOADS:
        ref = recorded["pass_cpu_s"][w]
        verdict = "ok" if got[w] <= LIMIT * ref else "SLOWER"
        print("%-18s pass_cpu_s %.4f s  recorded %.4f s  limit %.4f s  %s"
              % (w, got[w], ref, LIMIT * ref, verdict))
        if verdict != "ok":
            over.append(w)
    if over:
        sys.exit("bench_gate: pass_cpu_s above %g x the %s baseline on %s"
                 % (LIMIT, recorded["commit"], ", ".join(over)))


if __name__ == "__main__":
    main()
