#!/usr/bin/env python3
"""Build and run the hllc end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign|scenarios|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (the hllc libraries from
src/ plus the harness) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. The harness
prints human-readable lines and, last, one JSON result line. This script
checks that the result carries exactly the metrics BENCHMARK.json names
for the mode before passing it on; it exits non-zero without a result
when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    binary = os.path.join(build_dir, "hllc_perfbench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hllc_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def stamp(path):
    try:
        st = os.stat(path)
        return (st.st_mtime_ns, st.st_size)
    except FileNotFoundError:
        return None


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is here."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "scenarios", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    binary = os.path.join(build_dir, "hllc_perfbench")

    before = stamp(binary)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        log(f"build failed: {exc}")
        return 1
    os.makedirs(work_dir, exist_ok=True)
    if stamp(binary) != before:
        # Result digests from another build of the program are not
        # comparable with this one's.
        for name in os.listdir(work_dir):
            if name.startswith("campaign-digest-"):
                os.remove(os.path.join(work_dir, name))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # The program reads a few HLLC_* knobs (scale, jobs, timers,
    # failpoints, log level) from the environment; the benchmark fixes
    # them by leaving them unset.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HLLC_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"harness exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON result")
        return 1
    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and got != expected:
        log(f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"units {sorted(k for k in got if expected.get(k) not in (None, got[k]))}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
