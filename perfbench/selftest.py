#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
  * the untraced run prints every end_to_end metric of BENCHMARK.json and
    the traced run every per_layer metric, each with its declared unit;
  * both runs are correct, and their untraced passes agree on the digest;
  * the traced run compared every traced result with its untraced run and
    found no difference;
  * a perturbed reference digest fails every pass (failed_frac = 1);
and that core.* and the other Vroom work metrics are zero on
sweep_status_quo and nonzero on sweep_vroom, that deploy.* are zero on the
sweeps, and that a refused VROOM_* variable stops the run with no result.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["sweep_status_quo", "sweep_vroom", "deploy_day"]
# Work the server-aid layers do; none of it happens without server aid.
VROOM_WORK = ["core.stable_set_us_p50", "core.resolve_us_p50",
              "core.online_scan_us_p50", "vroom.events_per_load",
              "vroom.hints_per_load", "server.pushes_per_load",
              "http.push_promises_per_load"]


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def run(workload, trace, *extra, env=None):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--tiny"] + list(extra),
        capture_output=True, text=True, env=env, cwd=ROOT)
    return out


def result(out):
    if out.returncode != 0:
        print(out.stderr[-2000:])
    check(out.returncode == 0, "run exits 0")
    lines = out.stdout.strip().splitlines()
    digest = next(l.split(" digest ")[1].split()[0] for l in lines
                  if l.startswith("# workload "))
    return json.loads(lines[-1]), digest, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    layer = {}
    for w in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            r, digests[trace], lines = result(run(w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s trace=%d is correct" % (w, trace))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == declared[trace],
                  "%s trace=%d prints every declared metric with its unit"
                  % (w, trace))
            for name in declared[trace]:
                check(any(l.startswith("# " + name + " ") for l in lines),
                      "%s trace=%d summary line for %s" % (w, trace, name))
            if trace:
                layer[w] = {k: v["value"] for k, v in r["metrics"].items()}
                line = next(l for l in lines
                            if l.startswith("# traced vs untraced: "))
                compared, differ = [int(t) for t in line.split()
                                    if t.isdigit()]
                check(compared > 0 and differ == 0,
                      "%s traced results equal untraced (%d compared)"
                      % (w, compared))
        check(digests[0] == digests[1],
              "%s trace=0 and trace=1 runs agree on the pass digest" % w)

        r, _, lines = result(run(w, 0, "--reference", "0" * 16))
        check(not r["correct"] and r["failed"] == r["attempted"],
              "%s with a perturbed reference fails every pass" % w)
        check(any(l.split()[1:3] == ["failed_frac", "1"] for l in lines
                  if l.startswith("# failed_frac")),
              "%s with a perturbed reference reports failed_frac 1" % w)

    for name in VROOM_WORK:
        check(layer["sweep_status_quo"][name] == 0,
              "%s is zero on sweep_status_quo" % name)
        check(layer["sweep_vroom"][name] > 0,
              "%s is nonzero on sweep_vroom" % name)
    for name in layer["deploy_day"]:
        if name.startswith("deploy."):
            check(all(layer[w][name] == 0
                      for w in ("sweep_status_quo", "sweep_vroom")),
                  "%s is zero on the sweeps" % name)
    for name in ("deploy.population_s", "deploy.serve_us_p50",
                 "deploy.macro_s", "deploy.generations"):
        check(layer["deploy_day"][name] > 0,
              "%s is nonzero on deploy_day" % name)

    env = dict(os.environ, VROOM_RESULT_CACHE="/nonexistent")
    out = run("sweep_status_quo", 0, env=env)
    check(out.returncode != 0 and not out.stdout.strip().endswith("}"),
          "a refused VROOM_* variable stops the run without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
