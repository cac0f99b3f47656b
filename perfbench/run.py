#!/usr/bin/env python3
"""The DTT end-to-end benchmark.

Builds perfbench_runner (and the dtt library under it) into .bench_build,
runs one workload from a single process, checks its outputs, and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a separate traced run.

    python3 perfbench/run.py --workload grid_join --seed 1 --seconds 20 --trace 0

Run it from the repository root. What defines each workload lives in
perfbench/workloads.json; metric units and directions in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import harness  # noqa: E402

BUILD_DIR = ".bench_build"
RUNNER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def self_test():
    """Runs the harness self-tests quietly; the metrics rest on them."""
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            log(trace)
    return result.wasSuccessful()


def build(root):
    """Configures and builds the runner (both no-ops when up to date);
    returns its path or None."""
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_runner",
              "-j", jobs]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench_runner")


def src_line_count(root):
    lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith((".cc", ".h")):
                with open(os.path.join(base, name), "rb") as f:
                    lines += f.read().count(b"\n")
    return lines


def runner_args(name, config, seed, seconds, trace, root):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--artifact-dir", os.path.join(root, BUILD_DIR, "artifacts"),
            "--trace-path", os.path.join(root, BUILD_DIR, "traces",
                                         f"{name}-{seed}.json")]
    for key, value in config["args"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--" + key, str(value)]
    return args


def report(name, value, unit, note=""):
    print(f"{name:<34} {value:>14.6g} {unit:<8} {note}".rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isdir(os.path.join(root, "src")) and
            os.path.isfile(os.path.join(root, "CMakeLists.txt"))):
        log("perfbench: run from the repository root (src/ and CMakeLists.txt "
            "not found)")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if opts.workload not in workloads:
        log(f"perfbench: unknown workload {opts.workload!r}")
        return 2
    if not self_test():
        log("perfbench: harness self-tests failed")
        return 1
    runner = build(root)
    if runner is None:
        log("perfbench: build failed")
        return 3
    for sub in ("artifacts", "traces"):
        os.makedirs(os.path.join(root, BUILD_DIR, sub), exist_ok=True)

    config = workloads[opts.workload]
    env = {k: v for k, v in os.environ.items() if k != "DTT_TRACE"}
    try:
        proc = subprocess.run(
            [runner] + runner_args(opts.workload, config, opts.seed,
                                   opts.seconds, opts.trace, root),
            stdout=subprocess.PIPE, env=env, timeout=RUNNER_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: runner exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace}: "
          f"src lines {src_line_count(root)}, kernel provider "
          f"{doc['kernel_provider']}, build {doc['build_type']}")
    checks = []  # harness-level check failures, beside the runner's own
    if opts.trace == 0:
        specs = bench["end_to_end"]
        metrics, extras, warnings = harness.end_to_end(doc, config)
        print("  rows_per_s samples: " + ", ".join(
            f"{v:.5g}" for v in extras["rows_per_s_samples"]))
        print("  peak_rss_mb samples: " + ", ".join(
            f"{v:.4g}" for v in extras["peak_rss_mb_samples"]))
        for key in ("f1", "aned", "max_rps", "short_p99_ms"):
            if key in extras:
                print(f"  {key}: {extras[key]:.6g}")
        print(f"  latency tail: p{extras['tail_percentile']} of "
              f"{extras['latency_samples']} samples")
        for rung in extras.get("rungs", []):
            print("  rung {rate:g} rows/s: p{tail_p} {tail_ms:.2f} ms of "
                  "{count}, p50 {p50_ms:.2f} ms, short p{short_tail_p} "
                  "{short_tail_ms:.2f} ms, lateness p{lateness_p} "
                  "{lateness_ms:.2f} ms, outstanding {outstanding}, "
                  "backlog grew {grew}, generator behind "
                  "{generator_behind}".format(**rung))
    else:
        specs = bench["per_layer"]
        metrics = harness.per_layer(doc)
        warnings = []
        layers = doc["layers"]
        with open(layers["trace_path"]) as f:
            fold = harness.fold_trace(json.load(f)["traceEvents"])
        os.remove(layers["trace_path"])
        for layer, seconds in sorted(fold["self_s"].items()):
            print(f"  traced self time {layer}: {seconds:.6f} s")
        for name, seconds in sorted(fold["waits_s"].items()):
            print(f"  traced wait {name}: {seconds:.6f} s")
        root_name = layers.get("trace_root")
        if root_name:
            share = harness.FOLD_MIN_COVERAGE
            coverage = harness.fold_coverage(fold, root_name,
                                             layers["wall_traced_s"])
            print(f"  fold coverage of traced wall: {coverage:.4f} "
                  f"(required >= {share})")
            if not share <= coverage <= 1.0 + (1.0 - share):
                checks.append(f"trace fold covers {coverage:.3f} of wall")
    inputs = doc["inputs"]
    print("  inputs: " + ", ".join(
        f"{k} {v:.4g}" for k, v in inputs.items() if not isinstance(v, list))
        + f", prompt_bytes p50 {harness.percentile(inputs['prompt_bytes'], 50):g}"
        f" max {max(inputs['prompt_bytes'], default=0):g}")

    out = {}
    for spec in specs:
        value = metrics[spec["name"]]
        report(spec["name"], value, spec["unit"], f"({spec['better']})")
        # A refused request reads as an infinite latency; JSON has no inf.
        finite = value if math.isfinite(value) else sys.float_info.max
        out[spec["name"]] = {"value": finite, "unit": spec["unit"]}
    for w in warnings:
        print(f"  warning: {w}")
    print(f"  operations: {doc['attempted']} attempted, "
          f"{int(doc['failed']) + len(checks)} failed, "
          f"{doc['mismatches']} output mismatches")
    for f in doc["failure_messages"] + checks:
        print(f"  FAILED: {f}")
    failed = int(doc["failed"]) + len(checks)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": int(doc["attempted"]),
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
