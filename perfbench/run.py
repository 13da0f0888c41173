#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; the traced run writes its spans to
<build>/spans/.  The serve workload's rate ladder comes from
perfbench/spec.json.  The last line printed is the result JSON; its metric
names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(target):
    """Configures (until a configure succeeds) and builds `target`; build
    output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    # CMake writes the Makefile only when configuring succeeded; later
    # builds re-run the configure step themselves when a CMakeLists.txt
    # changes.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def check_result(line, trace):
    """Exits unless `line` is a result carrying exactly BENCHMARK.json's
    metrics for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=build_dir()).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(HERE, "spec.json")) as f:
        serve = json.load(f)["serve"]
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ladder", ",".join(str(r) for r in serve["ladder_rps"]),
           "--ref-rate", str(serve["reference_rps"]),
           "--p99-limit-us", str(serve["p99_limit_us"]),
           "--window-s", str(serve["window_s"])]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: run failed (exit %d)" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
