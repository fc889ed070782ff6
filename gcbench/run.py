#!/usr/bin/env python3
"""Builds the simulator and the gcbench program, runs one benchmark
workload, and prints its metrics; the last line of standard output is
the result as one JSON object.

    python3 gcbench/run.py --workload lab-dacapo --seed 0 --seconds 55 --trace 0
    python3 gcbench/run.py --workload all --seed 0 --seconds 55
    python3 gcbench/run.py --self-test   # unit tests of gcbench's arithmetic
    python3 gcbench/run.py --anchor      # lab-dacapo vs the fig15 baseline

Run it from the root of a checkout. It builds into .bench_build/ and
writes the traced run's spans to .bench_build/spans/. METRICS.md lists
the workloads, the metrics and the layer each metric measures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("lab-dacapo", "hw-chain", "fleet-shared")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; gcbench ends its rounds within
# --seconds, so this only stops a wedged simulation.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"gcbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds gcbench; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found: expected src/ beside gcbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "gcbench",
                  "gcbench_test", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return BUILD


def clean_env():
    """The environment without HWGC_* overrides (kernel, profiler...)."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("HWGC_")}


def source_facts():
    """Git commit when available, and a digest of the built sources."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "gcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_gcbench(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (metric and fact lines, result dict)."""
    cmd = [os.path.join(build_dir, "gcbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"{workload} printed a malformed result line")
    return lines[:-1], result


def print_lines(lines, facts, prefix=""):
    for line in lines:
        if line.startswith('{"facts"'):
            merged = json.loads(line)["facts"]
            merged.update(facts)
            print(json.dumps({"facts": merged}))
        else:
            print(prefix + line)


def anchor(build_dir):
    """Full-numGCs lab-dacapo at the default seed against the baseline."""
    proc = subprocess.run([os.path.join(build_dir, "gcbench"), "--anchor"],
                          stdout=subprocess.PIPE, text=True,
                          env=clean_env(), cwd=ROOT)
    if proc.returncode != 0:
        fail("anchor run failed")
    got = json.loads(proc.stdout.splitlines()[-1])["anchor"]
    baseline = os.path.join(ROOT, "bench", "baseline",
                            "BENCH_fig15_mark_sweep.json")
    with open(baseline) as f:
        want = json.load(f)["metrics"]
    bad = 0
    for key, value in sorted(got.items()):
        ok = want.get(key) == value
        bad += 0 if ok else 1
        print(f"{key:28s} {value:>12d} baseline {want.get(key)} "
              f"{'ok' if ok else 'MISMATCH'}")
    if bad:
        fail(f"{bad} lab-dacapo totals differ from {baseline}")
    print("anchor: lab-dacapo matches the fig15 baseline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--anchor", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "gcbench_test")],
                                env=clean_env()).returncode)
    if args.anchor:
        anchor(build_dir)
        return
    if args.workload is None:
        parser.error("--workload is required")

    facts = source_facts()
    if args.workload != "all":
        lines, result = run_gcbench(build_dir, args.workload, args.seed,
                                    args.seconds, args.trace)
        print_lines(lines, facts)
        print(json.dumps(result))
        return

    # Every workload, untraced then traced, in one command.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_gcbench(build_dir, workload, args.seed,
                                        args.seconds, trace)
            print_lines(lines, facts, prefix=f"{workload} ")
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
