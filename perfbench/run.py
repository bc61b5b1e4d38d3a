#!/usr/bin/env python3
"""Build the nlrm end-to-end benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <iitk-trials|campus-1k|broker-stream> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to stderr; the benchmark's report goes to stdout and
ends with one JSON line. The build lands in $CARGO_TARGET_DIR (default
perfbench/target). Traced runs also write their spans there, under
perfbench-spans/. NLRM_THREADS, when set, is capped at nproc; unset, the
allocator uses every core for inputs large enough to pay for it.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    if "NLRM_THREADS" in env:
        nproc = os.cpu_count() or 1
        try:
            threads = int(env["NLRM_THREADS"])
        except ValueError:
            threads = nproc
        env["NLRM_THREADS"] = str(max(1, min(threads, nproc)))

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    target = Path(env.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = target / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
