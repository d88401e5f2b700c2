#!/usr/bin/env python3
"""Standing TPC-H benchmark: builds the engine and runs one workload.

    python3 perfbench/run.py --workload tpch_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tpch_join --seed 1 --seconds 5 --trace 0 --query Q18

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the engine sources plus tpch_bench.cc) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. The benchmark's human-readable report goes to stdout; the last
stdout line is one JSON object with the metrics BENCHMARK.json lists
(end_to_end with --trace 0, per_layer with --trace 1). With --trace 1
the wall-clock spans are written to <build dir>/spans/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tpch_scan", "tpch_join", "tpch_refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--query", help="run one query of the workload (Q6 or 6)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = build()
    cmd = [os.path.join(build_dir, "tpch_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.query:
        cmd += ["--query", args.query]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if not results:
        fail(f"benchmark exited with {proc.returncode} and no result")
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = json.loads(results[-1][len("RESULT "):])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
        metrics[m["name"]] = got
    ok = proc.returncode == 0 and result["correct"]
    print(json.dumps({"correct": ok, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
