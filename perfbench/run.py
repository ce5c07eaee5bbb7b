#!/usr/bin/env python3
"""Repo benchmark: build perfbench/ from source and run one workload.

    python3 perfbench/run.py --workload live-attack --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
psc library (from src/) and the psc_perfbench program into .bench_build/;
later runs rebuild incrementally. psc_perfbench runs the workload, checks its
results bit-for-bit and prints metrics; this script checks the metric set
against BENCHMARK.json (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1; layer metrics a workload does not measure,
per perfbench/layer_map.json, read 0), fills in units and prints one JSON
object as the last line of stdout. Each result is also appended, with the
host fingerprint, to .bench_build/results.jsonl.

Exit status: 0 on success; 1 when a correctness check failed (the JSON
still prints, with "correct": false); 2 when the build or the run failed
or produced malformed output (nothing is printed on stdout's last line).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    build_dir = os.path.join(ROOT, BUILD_DIR)
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        subprocess.run(configure, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc())],
                   cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "psc_perfbench")


def expected_metrics(spec, layer_map, workload, trace):
    """Metric name -> (unit, measured on this workload)."""
    if not trace:
        return {m["name"]: (m["unit"], True) for m in spec["end_to_end"]}
    out = {}
    for m in spec["per_layer"]:
        on = layer_map["layer_metrics"].get(m["name"], {}).get("on", [])
        out[m["name"]] = (m["unit"], workload in on)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "layer_map.json")) as f:
            layer_map = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", BUILD_DIR]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"psc_perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("malformed result line")

    expected = expected_metrics(spec, layer_map, args.workload, args.trace)
    produced = raw.get("metrics", {})
    extra = sorted(set(produced) - set(expected))
    missing = sorted(n for n, (_, measured) in expected.items()
                     if measured and n not in produced)
    if extra or missing:
        fail(f"metric set differs from BENCHMARK.json: extra {extra}, "
             f"missing {missing}")
    metrics = {}
    for name, (unit, _) in sorted(expected.items()):
        value = produced.get(name, {"value": 0.0})["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": unit}

    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    if result["attempted"] < 1:
        fail("no operation was attempted")
    fingerprint = next((json.loads(line.split(":", 1)[1]) for line in lines
                        if line.startswith("fingerprint:")), {})
    with open(os.path.join(ROOT, BUILD_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "fingerprint": fingerprint, **result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
