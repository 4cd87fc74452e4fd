#!/usr/bin/env python3
"""Benchmark entry point: builds timing_serve and the load generator from
this checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload eco_edit --seed 1 --seconds 25 --trace 0

The last line of stdout is the JSON result. Build output goes to stderr.

    python3 perfbench/run.py --steady [--workload W ...]

is the steadiness mode: it runs each workload in two sets of ten seeds, then
prints each end-to-end metric's median, quartiles and spread in each set
against the bound in BENCHMARK.json, and how far the second set's median
moved from the first's.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["eco_edit", "signoff_read", "reclock"]
RUN_TIMEOUT_S = 170
STEADY_SETS = 2
STEADY_RUNS = 10  # seeds per set


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the mintc sources (src/) are not next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # configured for another checkout
            shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("error: build failed: " + " ".join(cmd))
    return out


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Run the load generator; returns (exit code, stdout lines)."""
    workdir = os.path.join(out, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_loadgen"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--serve", os.path.join(out, "timing_serve")]
    if trace:
        cmd += ["--trace-out", os.path.join(out, "trace_%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: %s did not finish in %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, []
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def steady(out, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or WORKLOADS
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    worst = 0.0
    for workload in workloads:
        sets = []
        for k in range(STEADY_SETS):
            values = {name: [] for name in bounds}
            for i in range(STEADY_RUNS):
                seed = 1000 * (k + 1) + i
                code, lines = run_once(out, workload, seed, seconds, 0, echo=False)
                if code != 0 or not lines:
                    sys.exit("error: %s seed %d failed" % (workload, seed))
                result = json.loads(lines[-1])
                if not result["correct"]:
                    print("\n".join(lines[:-1]))
                    sys.exit("error: %s seed %d: incorrect output" % (workload, seed))
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print("  %s seed %d: %s" % (workload, seed, "  ".join(
                    "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
            sets.append(values)
        print("\n%s (%d runs per set, %g s each)" % (workload, STEADY_RUNS, seconds))
        print("  %-16s %14s %14s %14s %9s %7s %9s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "spread/b"))
        for name, m in bounds.items():
            for k, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                ratio = spread / m["bound"]
                if name != "setup_s":
                    worst = max(worst, ratio)
                print("  %-16s %14.6g %14.6g %14.6g %9.4f %7.3f %9.3f  (set %d)" % (
                    name if k == 0 else "", q1, med, q3, spread, m["bound"], ratio, k + 1))
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            print("  %-16s second set is %+.4f worse than the first (bound %.3f)%s" % (
                "", worse, m["bound"], "  EXCEEDS" if worse > m["bound"] else ""))
    print("\nlargest spread/bound (setup_s excluded): %.3f" % worst)


def self_test(out):
    code = subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    if code != 0:
        return code
    return subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    targets = ["timing_serve", "perfbench_loadgen"]
    if args.self_test:
        return self_test(build(targets + ["perfbench_tests"]))
    out = build(targets)
    if args.steady:
        steady(out, args)
        return 0
    if not args.workload or len(args.workload) != 1 or not args.seconds:
        p.error("a run needs one --workload and --seconds")
    code, lines = run_once(out, args.workload[0], args.seed, args.seconds, args.trace)
    return code if lines else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
