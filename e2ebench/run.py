#!/usr/bin/env python3
"""Builds and runs the ParaLift source-to-result benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload run-innerser --seed 1 --seconds 20 --trace 0

It configures and builds e2ebench/ (which pulls in the ParaLift library
from the repository root) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the e2ebench binary. The binary's human-readable
report goes to stdout; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, restricted to the metrics
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1). Exits non-zero without a result line when the sources are
missing, the build fails, or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step, showing its output only when it fails."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no ParaLift sources next to {HERE}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "e2ebench",
               "-j", jobs])
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    # Bytecode fingerprints are compared across runs of one binary only:
    # a rebuild starts a fresh record.
    state_dir = os.path.join(build_dir, "fingerprints",
                             str(os.stat(binary).st_mtime_ns))
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(state_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines:
        sys.stdout.write(p.stdout)
        fail(f"benchmark exited with code {p.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            # A pass or counter this program version does not have.
            print(f"note: {m['name']} not reported by this version; 0",
                  file=sys.stderr)
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
