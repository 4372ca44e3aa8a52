#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py \
        --latency-limits-ms serve-mix=100 \
        --workload search --seed 1 --seconds 30 --trace 0

The bench is configured and built from source into $CARGO_TARGET_DIR
(default .bench_build) on every call; an up-to-date build costs about a
second. Build output and the progress lines of oipa_perfbench go to
stderr; the last line of stdout is the one-line JSON result. The
result's metric names and units are checked against BENCHMARK.json when
it is present.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-plan", "search", "serve-mix")
# A run must print its result within 180 s of its start.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds oipa_perfbench and the daemon; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "oipa_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def check_against_spec(result, trace):
    """Errors between the printed metrics and BENCHMARK.json's lists."""
    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return []
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    errors = []
    if set(want) != set(got):
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                      % (sorted(set(want) - set(got)),
                         sorted(set(got) - set(want))))
    errors += ["unit of %s is %s, BENCHMARK.json says %s" % (n, got[n], u)
               for n, u in want.items() if n in got and got[n] != u]
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--latency-limits-ms", required=True,
        help="tail-latency limit of serve-mix's rate ladder, "
             "e.g. serve-mix=100")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "oipa_perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--limits=" + args.latency_limits_ms,
        "--serve_bin=" + os.path.join(build_dir, "oipa", "oipa_serve"),
        "--out_dir=" + out_dir,
    ]
    # Own process group, so a timeout takes the daemon down too.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: oipa_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    errors = check_against_spec(result, args.trace == 1)
    for error in errors:
        print("perfbench: " + error, file=sys.stderr)
    if errors:
        return 1
    sys.stdout.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
