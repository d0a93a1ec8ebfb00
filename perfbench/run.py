#!/usr/bin/env python3
"""Builds the GSpecPal benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) depending on the repository's crates by path; it is
built into $CARGO_TARGET_DIR (default .bench_build) and run with
RAYON_NUM_THREADS=1. The binary prints
human-readable lines and, as its last stdout line, one JSON result; this
script prints provenance first and relays the binary's stdout and exit code.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite_kernels", "fleet_stream", "fleet_failover")
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (provenance when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    nproc = len(os.sched_getaffinity(0))
    # The offline rayon stand-in spawns scoped worker threads for every
    # parallel map; one worker keeps the simulators on one thread, so the
    # timed calls measure the program, not thread start-up and the host's
    # scheduler. Simulated results are identical for every worker count.
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = command_output(["git", "-C", root, "rev-parse", "HEAD"])
    print(f"provenance: nproc={nproc} rustc='{command_output(['rustc', '--version'])}' "
          f"commit={commit} sources={source_digest(root)} seed={args.seed}", flush=True)

    binary = os.path.join(target, "release", "gspecpal-perfbench")
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
