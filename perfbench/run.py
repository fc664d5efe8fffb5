#!/usr/bin/env python3
"""The repo benchmark's entry point; README.md next to this file has the
workloads, the metrics and how to read a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the root of a checkout. Builds this directory's CMake package
(the library from the checkout's src/, the driver, nocdr_trace) into
$CARGO_TARGET_DIR, default .bench_build, then runs the driver, checks
its outputs and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run over every workload with --trace 1. Exits non-zero, without a
result, when the build or the driver fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("certify_cold", "fault_session", "sim_traffic")
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_process(command, timeout, **kwargs):
    """subprocess.run in its own process group, so a timeout also stops
    the grandchildren (make, the compilers) before returning."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, stdout


def build(build_root):
    """Configures (once) and builds the package; returns the build dir."""
    build_dir = os.path.join(build_root, "perfbench")
    temp_dir = os.path.join(build_root, "tmp")
    os.makedirs(temp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=temp_dir)  # keep compiler temps inside
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    log_path = os.path.join(build_root, "perfbench_build.log")
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run_process(step, BUILD_TIMEOUT_S, stdout=log,
                                      stderr=subprocess.STDOUT, env=env)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if code != 0:
                fail("build failed (exit %d); log: %s" % (code, log_path))
    return build_dir


def run_driver(command):
    try:
        code, stdout = run_process(command, DRIVER_TIMEOUT_S,
                                   stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("driver failed: %s" % error)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail("driver exited %d" % code)
    return json.loads(lines[-1])


def describe_class(cls, entry):
    errors = {}
    for code in entry["errors"]:
        errors[code] = errors.get(code, 0) + 1
    failed = ", ".join("%s x%d" % item for item in sorted(errors.items()))
    return "%s: %d attempted, %d failed%s" % (
        cls, entry["attempted"], len(entry["errors"]),
        " (%s)" % failed if failed else "")


def timed(args, driver):
    run = run_driver([driver, "--workload", args.workload, "--seed",
                      str(args.seed), "--seconds", str(args.seconds)])
    metrics, split, info = stats.end_to_end(run)
    failures = list(run["check_failures"])
    if run["report"].get("cache_hits", 0) != 0:
        failures.append("certify_cold served %d cache hits"
                        % run["report"]["cache_hits"])
    rounds = run["rounds"]
    timed_s = sum(record[1] for ops in rounds for record in ops) / 1e9
    print("%s, seed %d: %d rounds of %d ops, %.3f s of timed wall clock" % (
        args.workload, args.seed, len(rounds), len(rounds[0]), timed_s))
    for cls in stats.CLASSES:
        print("  " + describe_class(cls, split[cls]))
    for name, (value, unit) in metrics.items():
        print("  %-17s %12.4f %s" % (name, value, unit))
    print("  each op counts at its fastest round")
    print("  times are scaled by %.4f: the reference took %.4f ms, "
          "%.1f ms on the reference host" % (
              info["scale"], info["reference_ms"], stats.REFERENCE_MS))
    print("  tail_ms is p%.1f of %d successful ops (%d beyond it)" % (
        info["percentile"], info["samples"], info["beyond"]))
    print("  setup samples (s): %s" % ", ".join(
        "%.4f" % (ns / 1e9) for ns in run["setup_ns"]))
    print("  host.ref_ms %.4f (host drift diagnostic, never gated)" % (
        statistics.median(run["reference_ns"]) / 1e6))
    print("  digest %s %s" % (args.workload, run["digest"]))
    if run["report"]:
        print("  service counters %s" % json.dumps(run["report"]))
    return result(failures, [record for ops in rounds for record in ops],
                  metrics)


def traced(args, driver, build_root):
    trace_path = os.path.join(build_root, "perfbench_trace_%s_%d.jsonl" % (
        args.workload, args.seed))
    run = run_driver([driver, "--workload", args.workload, "--seed",
                      str(args.seed), "--seconds", str(args.seconds),
                      "--trace-out", trace_path])
    tool = os.path.join(os.path.dirname(driver), "nocdr_trace")
    code, check = run_process([tool, "--in", trace_path, "--check"],
                              DRIVER_TIMEOUT_S, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    failures = []
    if code != 0:
        failures.append("nocdr_trace --check: " + check.strip())
    with open(trace_path) as trace_file:
        metrics = stats.per_layer(run, stats.parse_trace(trace_file))
    ops = []
    print("traced run, seed %d: every workload, trace %s" % (
        args.seed, trace_path))
    for workload, traced_workload in run["workloads"].items():
        workload_ops = traced_workload["untraced"] + traced_workload["traced"]
        ops += workload_ops
        failures += traced_workload["check_failures"]
        print("  %s: %d ops, digest %s" % (workload, len(workload_ops),
                                           traced_workload["digest"]))
    if metrics["certify_cold.serve.cache_hits"][0] != 0:
        failures.append("certify_cold served cache hits")
    for name, (value, unit) in metrics.items():
        print("  %-52s %14.4f %s" % (name, value, unit))
    print("  self time per layer: %s --in %s" % (tool, trace_path))
    return result(failures, ops, metrics)


def result(failures, ops, metrics):
    """Reports the output checks; returns the JSON result of the run."""
    if failures:
        print("  output checks FAILED (%d): %s" % (len(failures), failures[0]))
    else:
        print("  output checks passed")
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for record in ops if record[2]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    driver = os.path.join(build(build_root), "perfbench_driver")
    outcome = (traced(args, driver, build_root) if args.trace
               else timed(args, driver))
    print(json.dumps(outcome), flush=True)


if __name__ == "__main__":
    main()
