#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload sweep_status_quo --seed 42 \\
        --seconds 20 --trace 0

Workloads: sweep_status_quo, sweep_vroom, deploy_day, or `all` (each in
turn, one table per workload). --trace 1 runs the per-layer measurement
instead of the end-to-end one and writes its span log under
.bench_build/perfbench/spans/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines starting with '#' are the human
summary: host fingerprint, every metric with unit and sample count, and
failed_frac.

Every pass's output digest is checked against the first pass and against
the digest recorded for the seed in perfbench/references.json.
--write-reference records the digests of the current build for --seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ["sweep_status_quo", "sweep_vroom", "deploy_day"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the program; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit of a clone, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def run_one(args, workload, reference, commit, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    if reference:
        cmd += ["--reference", reference]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--span-file", os.path.join(
            BUILD_DIR, "spans", "%s_seed%d.json" % (workload, args.seed))]
    try:
        out = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if out.returncode != 0:
        fail("%s exited with code %d" % (workload, out.returncode))
    return out.stdout


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("# workload ") and " digest " in line:
            return line.split(" digest ")[1].split()[0]
    fail("no digest in the program output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test; no reference")
    parser.add_argument("--reference",
                        help="expected digest, overriding references.json")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this build's digests for --seed")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    commit = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    refs = load_references()
    seed_refs = refs["seeds"].get(str(args.seed), {})

    if args.write_reference:
        for w in workloads:
            seed_refs[w] = digest_of(run_one(args, w, None, commit, True))
            print("%s seed %d: %s" % (w, args.seed, seed_refs[w]))
        refs["seeds"][str(args.seed)] = seed_refs
        with open(REFERENCES, "w") as f:
            json.dump(refs, f, indent=2, sort_keys=True)
            f.write("\n")
        return

    def reference_for(w):
        if args.reference:
            return args.reference
        return None if args.tiny else seed_refs.get(w)

    if len(workloads) == 1:
        # The program's output passes through unchanged.
        run_one(args, workloads[0], reference_for(workloads[0]), commit, False)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        stdout = run_one(args, w, reference_for(w), commit, True)
        lines = stdout.strip().splitlines()
        print("## " + w)
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s:%s" % (w, name)] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
