#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see perfbench/README.md).

One workload:

    python3 perfbench/run.py --workload road_sweep --seed 1 --seconds 30 --trace 0

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries the
host fingerprint, the output digest and the sample counts. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every workload, untraced and traced, printed as one table:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. The benchmark is built from source under
$CARGO_TARGET_DIR (default .bench_build) on first use.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build(build_root, env):
    """Configures and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, out_dir, workload, seed, seconds, trace, spec):
    """Runs one workload; returns (info, result) after checking the result
    carries exactly the metrics BENCHMARK.json names for this mode."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"unexpected {extra} (or a unit differs)")
    return info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        if not args.all and args.workload not in workloads:
            raise RuntimeError(f"unknown workload {args.workload!r}")
        build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        # Compiler temporaries stay inside the checkout too.
        tmp_dir = os.path.abspath(os.path.join(build_root, "tmp"))
        os.makedirs(tmp_dir, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp_dir)
        binary = build(build_root, env)
        # Relative, so the server's socket path stays short (sun_path).
        out_dir = os.path.relpath(os.path.join(build_root, "perfbench-out"))
        os.makedirs(out_dir, exist_ok=True)

        if not args.all:
            info, result = run_workload(binary, out_dir, args.workload,
                                        args.seed, seconds, args.trace, spec)
            print(json.dumps({"info": info}))
            print(json.dumps(result))
            return 0

        ok = True
        for workload in workloads:
            for trace in (0, 1):
                info, result = run_workload(binary, out_dir, workload,
                                            args.seed, seconds, trace, spec)
                ok = ok and result["correct"] and result["failed"] == 0
                print(f"# {workload} trace={trace} correct={result['correct']}"
                      f" attempted={result['attempted']}"
                      f" failed={result['failed']} host={json.dumps(info['host'])}")
                for name, metric in result["metrics"].items():
                    print(f"{workload:14s} {name:26s} "
                          f"{metric['value']:>18.6g} {metric['unit']}")
                sys.stdout.flush()
        return 0 if ok else 1
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
