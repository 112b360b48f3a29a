#!/usr/bin/env python3
"""Builds and runs the resolver-path benchmark, and appends each result to
perfbench/history.jsonl.

    python3 perfbench/run.py --workload cold-top --seed 1 --seconds 10 --trace 0

Run it from the repository root. The benchmark is the `perfbench` package
in this directory (its own Cargo workspace, with path dependencies on the
repository's crates); it is built with `cargo build --release --offline`
into $CARGO_TARGET_DIR (default `.bench_build`). Build output goes to
stderr; the last line of stdout is the result object. Every run appends one
record to the history: the result, the fingerprint and work counts, nproc,
the jobs setting, the commit, the rustc version, and the load average at
start and end. The history is only ever appended to.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
RUN_TIMEOUT_S = 170


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    # Only this checkout's own repository counts, not one that encloses it.
    if command_output(["git", "rev-parse", "--show-toplevel"]) != ROOT:
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--canary", action="store_true",
                        help="perturb one pinned fingerprint value; the run must fail")
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # The simulator reads LOOKASIDE_* variables (jobs, retries, checkpoint
    # journals); the benchmark fixes its own settings instead.
    for key in [k for k in env if k.startswith("LOOKASIDE_")]:
        del env[key]
    load_start = os.getloadavg()

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.canary:
        argv.append("--canary")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"perfbench: no result (exit status {proc.returncode})")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])

    record.update({
        "unix_time": int(time.time()),
        "canary": args.canary,
        "seconds": args.seconds,
        "result": result,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    })
    with open(HISTORY, "a", encoding="utf-8") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")

    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
