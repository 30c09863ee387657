"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. With ``--trace 0`` it times
set-up in fresh interpreters, then runs the workload's end-to-end sweeps with
tracing off; with ``--trace 1`` it runs the traced per-layer sweep instead.
Every session runs in a child interpreter (``session.py``) with
workers x BLAS threads <= nproc. Detail lines (provenance, sweeps, checks) come
first; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, printing no result, if the package source is missing or a
session fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
WORKERS = 2
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict:
    """Pin BLAS threads so that workers x threads never exceeds nproc."""
    threads = str(max(1, len(os.sched_getaffinity(0)) // WORKERS))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup_seconds(workload: str, env: dict, deadline: float) -> float:
    """Wall time from launching a fresh interpreter until its worker pool
    is up, for one probe; the probe stamps the moment it is ready."""
    start = time.time()
    probe = subprocess.run(
        [sys.executable, str(SESSION), "--workload", workload, "--probe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    word, _, stamp = probe.stdout.strip().partition(" ")
    if probe.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return float(stamp) - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="onebit-precoding BER-sweep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "onebit_precoding" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setups = []
        if args.trace == 0:
            setups = [setup_seconds(args.workload, env, deadline) for _ in range(SETUP_PROBES)]
        session = subprocess.run(
            [
                sys.executable,
                str(SESSION),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark session failed: {exc}", file=sys.stderr)
        return 1
    if session.returncode != 0:
        print(f"benchmark session exited with {session.returncode}", file=sys.stderr)
        return 1
    report = json.loads(session.stdout.strip().splitlines()[-1])

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["setup_s_samples"] = setups
    for key in ("provenance", "failed_checks", "sweeps", "setup_s_samples", "ber"):
        if key in report:
            print(json.dumps({key: report[key]}))
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
