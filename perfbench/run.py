#!/usr/bin/env python3
"""Builds the KLiNQ benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <bulk-fixed|stream-float|feedback-tcp>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n> ...]
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else to .bench_build. The benchmark's standard output ends with one JSON
line: the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1). `--workload all` runs the three workloads one after
another and exits non-zero if any of them did. --self-test runs every workload once at tiny sizes
in both modes and fails if a metric named in BENCHMARK.json is missing,
lacks its unit or sample count, a served result mismatched, a traced run
dropped spans, or a layer reconciliation left its stated tolerance.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk-fixed", "stream-float", "feedback-tcp")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"the KLiNQ sources are missing next to {HERE}")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "klinq_perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("building the benchmark failed: " + " ".join(step))
    binary = os.path.join(out, "klinq_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        proc = subprocess.run([binary, *args, "--out-dir", traces],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


# Printed by every run besides the result line's set: the failed
# ratio and latency quantiles (latency is unbounded; see README "Noise").
PRINTED_EVERY_RUN = ("failed_ratio", "latency_p50_us", "latency_p90_us",
                     "latency_p99_us")
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")
RECONCILE = re.compile(
    r"exec_coverage ([\d.]+) \(tolerance ([\d.]+)\.\.([\d.]+)\) "
    r"latency_coverage ([\d.]+) \(tolerance ([\d.]+)\.\.([\d.]+)\)")


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, out = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if result.get("correct") is not True:
                problems.append(f"{label}: served results mismatched")
            printed = {}
            for line in lines:
                m = METRIC_LINE.match(line)
                if m:
                    printed[m.group(1)] = (float(m.group(2)), m.group(3),
                                           int(m.group(4)))
            declared = spec["per_layer" if trace else "end_to_end"]
            for metric in declared:
                name = metric["name"]
                if name not in printed:
                    problems.append(f"{label}: metric {name} missing")
                elif printed[name][1] != metric["unit"]:
                    problems.append(f"{label}: {name} unit {printed[name][1]}"
                                    f" != {metric['unit']}")
                shown = result["metrics"].get(name, {})
                if shown.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {name} absent from result line")
            for name in PRINTED_EVERY_RUN:
                if name not in printed:
                    problems.append(f"{label}: {name} missing")
            if trace:
                if printed.get("obs.spans_dropped", (1,))[0] != 0:
                    problems.append(f"{label}: traced run dropped spans")
                rec = next((RECONCILE.search(l) for l in lines
                            if RECONCILE.search(l)), None)
                if rec is None:
                    problems.append(f"{label}: no reconciliation line")
                else:
                    v = [float(x) for x in rec.groups()]
                    if not v[1] <= v[0] <= v[2]:
                        problems.append(f"{label}: exec_coverage {v[0]} "
                                        f"outside {v[1]}..{v[2]}")
                    if not v[4] <= v[3] <= v[5]:
                        problems.append(f"{label}: latency_coverage {v[3]} "
                                        f"outside {v[4]}..{v[5]}")
            print(f"self-test {label}: {len(printed)} metrics",
                  file=sys.stderr)
    for p in problems:
        print(f"self-test FAIL {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("self-test PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code, out = run_binary(binary, [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
