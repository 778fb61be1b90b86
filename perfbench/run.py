"""Run one workload of the crosscap benchmark and print its metrics.

    python3 perfbench/run.py --workload deep_quotient --seed 1 --seconds 20 --trace 0

Run from anywhere; the program measured is the `src/crosscap` next to this
directory.  `--trace 0` prints the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it records what was measured (commit, source digest, Python, nproc, seed,
output digest, sample counts).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only processes started before, and again after, the timed one
WORKER_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def _launch(args: argparse.Namespace, mode: str, timeout: float) -> tuple[float, dict]:
    """Start a worker process, wait for it, return (scaled set-up seconds, its result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    if args.tiny:
        argv.append("--tiny")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail(f"{mode} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return (result["ready_at"] - started) * speed.REFERENCE_S / result["kernel_s"], result


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crosscap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "crosscap" / "cli.py").is_file():
        _fail(f"{ROOT} lacks BENCHMARK.json or the src/crosscap to measure")
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = parser.parse_args()

    if args.trace:
        _, result = _launch(args, "traced", WORKER_TIMEOUT_S)
        wanted = spec["per_layer"]
        setup = []
    else:
        _launch(args, "setup", 60)  # writes the bytecode caches
        setup = [_launch(args, "setup", 30)[0] for _ in range(SETUP_PROBES)]
        first, result = _launch(args, "timed", WORKER_TIMEOUT_S)
        setup.append(first)
        setup += [_launch(args, "setup", 30)[0] for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"] = statistics.median(setup)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        _fail(f"the worker produced no value for {missing}")
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "outputs_sha256": result["outputs_sha256"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": dict(result["samples"], setup_processes=len(setup)),
        "error_rate": result["failed"] / result["attempted"],
    }
    print("perfbench " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
