#!/usr/bin/env python3
"""The repository benchmark: builds the `fmbench` runner from source, runs
one workload, and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload pmbench|tenants|storm --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The build goes to `.bench_build/`
(CARGO_TARGET_DIR, when set, names another directory under the root); the
traced run writes its spans to `.bench_build/spans-<workload>-<seed>.tsv`.
Build output goes to stderr. The printed metrics are checked against the
names and units in BENCHMARK.json; any mismatch, failed build or failed
data check exits nonzero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "fmbench"], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [os.path.join(build_dir, "fmbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"fmbench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(got) != set(units):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(units) - set(got))}, "
             f"extra {sorted(set(got) - set(units))}")
    for name, m in got.items():
        if m["unit"] != units[name]:
            fail(f"{name}: unit {m['unit']!r} != {units[name]!r}")
    if not result["correct"] or result["failed"]:
        fail("data check failed")
    print(lines[-1])


if __name__ == "__main__":
    main()
