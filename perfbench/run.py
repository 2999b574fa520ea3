#!/usr/bin/env python3
"""Geometry-to-polarizability benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload ch4-ranks --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and builds the library and the
alpha_bench driver into .bench_build/ at the repository root; later calls
rebuild only what changed. The last line of stdout is the driver's JSON
result. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "alpha_bench")
REFERENCE = os.path.join(HERE, "reference.txt")
# BENCHMARK.json runs chain14-threads and ch4-ranks; ch4-serial runs by hand.
WORKLOADS = ("ch4-serial", "chain14-threads", "ch4-ranks")
# One-second H2 twins of the serial and ranked paths, used by --self-check.
SELF_CHECK_WORKLOADS = ("h2-serial", "h2-ranks")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AEQP sources at %s; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
              + generator)
    quiet(["cmake", "--build", BUILD, "--target", "alpha_bench",
           "-j", str(os.cpu_count() or 1)])


def run_driver(workload, seed, seconds, trace, reference=REFERENCE, echo=True):
    """Run alpha_bench once; returns the parsed JSON result."""
    # Every AEQP_* variable is left unset so the library runs its defaults;
    # the driver also refuses the ones that change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AEQP_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", reference]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("alpha_bench exceeded %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("alpha_bench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("alpha_bench printed an unexpected result line")
    return result


def self_check():
    """Every named metric prints with its unit; a wrong reference fails."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in SELF_CHECK_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_driver(workload, 0, 1, trace, echo=False)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = "%s --trace %d" % (workload, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(tag + ": solves failed the correctness gate")
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, wrong))
    # Scale the H2 reference tensor by 1.001: every solve must now fail.
    wrong_ref = os.path.join(BUILD, "wrong_reference.txt")
    with open(REFERENCE) as src, open(wrong_ref, "w") as dst:
        for line in src:
            fields = line.split()
            if fields and fields[0] == "h2":
                line = " ".join(fields[:2] + ["%.17g" % (float(v) * 1.001)
                                              for v in fields[2:]]) + "\n"
            dst.write(line)
    result = run_driver("h2-serial", 0, 1, 0, reference=wrong_ref, echo=False)
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("a wrong reference alpha did not fail every solve")
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + SELF_CHECK_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build()
    run_driver(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
