#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 tsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 tsbench/run.py --self-check

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr, so
the last line of stdout is the result JSON the benchmark prints. A traced
run also writes its spans to <build dir>/traces/<workload>-seed<n>.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "tsbench")


def build(bdir):
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        configure = ["cmake", "-S", HERE, "-B", bdir, "-G", generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "tsbench")


def check_result_shape(line, trace):
    """The result line must hold exactly the keys and metrics BENCHMARK.json
    names for the mode; returns an error string or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a bool"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return "%s is not an integer" % key
    if result["attempted"] < 1:
        return "nothing attempted"
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)) or isinstance(m["value"], bool):
            return "metric %s is malformed" % name
    return None


def arg_value(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    binary = build(build_dir())
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    trace = arg_value(args, "--trace") == "1"
    workload, seed = arg_value(args, "--workload"), arg_value(args, "--seed")
    if trace and workload and seed and "--trace-out" not in args:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    # --self-check prints a sample end-to-end result line to check here.
    error = check_result_shape(lines[-1], trace)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: " + error, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
