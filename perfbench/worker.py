"""One workload in one fresh process; `run.py` starts it.

Imports crosscap from the `src/` next to this directory (and refuses to run
against any other copy), generates the workload's cases from the seed, and
then either

* `--mode setup`: stops right before the first timed call,
* `--mode timed`: calls `crosscap.cli.main(argv)` in a closed loop, one
  call after another on one thread, for `--seconds` seconds, or
* `--mode traced`: makes one fixed pass over the cases untraced and one
  traced, then times the scaling rows.

In the timed loop every call's time is scaled by the reference kernel of
`speed.py`, run every few milliseconds in the middle of the calls, so that
the host's changing speed cancels out.

It prints one JSON line.  `ready_at` is CLOCK_MONOTONIC, which Linux shares
between processes, taken right before the first timed call; `run.py` takes
the same clock before it starts the process, which gives the set-up time.
`kernel_s`, the reference kernel's time measured right after, scales it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crosscap  # noqa: E402
import crosscap.cli as cli  # noqa: E402

if Path(crosscap.__file__).resolve().parent != (ROOT / "src" / "crosscap").resolve():
    raise SystemExit(f"crosscap was imported from {crosscap.__file__}, not from {ROOT / 'src'}")

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from crosscap.genus import crosscap_number, genus_report  # noqa: E402
from crosscap.knot import TorusKnot  # noqa: E402
from tracer import Tracer  # noqa: E402


def call(argv: tuple[str, ...]) -> tuple[float, float, str, str | None]:
    """Run one CLI call with its output captured: (start, end, stdout, problem)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            problem = traceback.format_exc(limit=3)
        end = perf_counter()
    if problem is None and code != 0:
        problem = f"exit code {code}: {(err.getvalue() or out.getvalue()).strip()[-300:]}"
    return start, end, out.getvalue(), problem


class Checker:
    """Checks each distinct argv's first output against the reference, and
    every later output of that argv for being byte-identical to it."""

    def __init__(self) -> None:
        self.digests: dict[tuple[str, ...], str] = {}
        self.problems: list[str] = []

    def __call__(self, case: workloads.Case, text: str, problem: str | None) -> bool:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if problem is None:
            known = self.digests.get(case.argv)
            if known is None:
                try:
                    errors = case.check(text)
                except Exception as exc:
                    errors = [f"unreadable output: {exc!r}"]
                if errors:
                    problem = "; ".join(errors[:3])
                else:
                    self.digests[case.argv] = digest
            elif known != digest:
                problem = "output differs from the first call's"
        if problem is not None:
            self.problems.append(f"{' '.join(case.argv)}: {problem}")
        return problem is None

    def outputs_sha256(self, cases: list[workloads.Case]) -> str:
        lines = "".join(f"{' '.join(c.argv)}\t{self.digests.get(c.argv)}\n" for c in cases)
        return hashlib.sha256(lines.encode()).hexdigest()


def timed(cases: list[workloads.Case], seed: int, seconds: float, checker: Checker) -> dict:
    order = list(cases)
    random.Random(f"order:{seed}").shuffle(order)
    spans: dict[tuple[str, ...], list[tuple[float, float]]] = {case.argv: [] for case in cases}
    attempted = 0
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    kernel_s = speed.kernel_time()
    deadline = perf_counter() + seconds
    with speed.Sampler() as sampler:
        while True:
            case = order[attempted % len(order)]
            attempted += 1
            start, end, text, problem = call(case.argv)
            if checker(case, text, problem):
                spans[case.argv].append((start, end))
            if perf_counter() >= deadline:
                break
        time.sleep(speed.WINDOW_S)  # so that the last call has kernel runs after it too
    latencies = {argv: [sampler.scaled(*span) for span in v] for argv, v in spans.items()}
    # knots_per_s weighs every input once: the mean of its scaled calls,
    # which the seeded order spreads over the whole run.
    sampled = [(statistics.fmean(latencies[c.argv]), c.knots()) for c in cases if latencies[c.argv]]
    if not sampled:
        raise SystemExit("no call succeeded: " + "\n".join(checker.problems[:3]))
    # The percentiles are over calls.  A p95 needs ten calls beyond it; a box
    # run makes a few dozen calls at most, so there it reads the median.
    call_ms = sorted(latency * 1000 for v in latencies.values() for latency in v)
    p50 = statistics.median(call_ms)
    p95 = statistics.quantiles(call_ms, n=20)[18] if len(call_ms) >= 200 else p50
    calls = sum(len(v) for v in latencies.values())
    return {
        "ready_at": ready_at,
        "kernel_s": kernel_s,
        "attempted": attempted,
        "failed": attempted - calls,
        "samples": {
            "inputs": len(sampled),
            "calls": calls,
            "unscaled_call_s": sum(end - start for v in spans.values() for start, end in v),
            "kernels": len(sampler.durations),
            "kernel_mean_ms": statistics.fmean(sampler.durations) * 1000,
        },
        "metrics": {
            "knots_per_s": sum(k for _, k in sampled) / sum(s for s, _ in sampled),
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def _scaling_rows():
    """(name, function, knot, check of the result) for the scaling rows."""
    rows = []
    for exp in (4, 5, 6):
        p = 10**exp  # p = 3k+1 with k odd: gamma3 = 1 + (k+1)/2
        rows.append((f"scaling.crosscap_number.p1e{exp}", crosscap_number, TorusKnot(p, 3),
                     lambda g, k=p // 3: g == 1 + (k + 1) // 2))
    for exp in (3, 4, 5):
        k = 10**exp
        rows.append((f"scaling.genus_report.batson_k1e{exp}", genus_report, TorusKnot(2 * k, 2 * k - 1),
                     lambda r, k=k: r.gamma3 == k and r.gamma4.exact == k - 1))
    return rows


def traced(cases: list[workloads.Case], checker: Checker, repeats: int) -> dict:
    # Every fourth case in stratum order still spans the whole size range.
    subset = cases[::4]
    attempted = failed = 0
    walls = []
    tracer = Tracer(reference.VERIFY_CHECKS)
    bytes_out = 0
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    kernel_s = speed.kernel_time()
    for active in (contextlib.nullcontext(), tracer):
        wall = 0.0
        for case in subset:
            with active:
                start, end, text, problem = call(case.argv)
            wall += end - start
            attempted += 1
            failed += not checker(case, text, problem)
            if active is tracer:
                bytes_out += len(text.encode())
        walls.append(wall)
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = bytes_out
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    verify_knots = sum(case.knots() for case in subset if case.argv[0] == "verify")
    for name, counter in (("pinch", "knot.pinch.calls"), ("expand", "cf.expand.calls")):
        metrics[f"verify.{name}_per_knot"] = metrics[counter] / verify_knots if verify_knots else 0.0
    for name, fn, knot, ok in _scaling_rows():
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            result = fn(knot)
            best = min(best, perf_counter() - start)
            attempted += 1
            if not ok(result):
                failed += 1
                checker.problems.append(f"{name}: wrong result for {knot}")
        metrics[name] = best
    return {
        "ready_at": ready_at,
        "kernel_s": kernel_s,
        "attempted": attempted,
        "failed": failed,
        "samples": {"inputs": len(subset), "calls": attempted},
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    cases = workloads.generate(args.workload, args.seed, args.tiny)
    if args.mode == "setup":
        result = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC), "kernel_s": speed.kernel_time()}
    else:
        checker = Checker()
        if args.mode == "timed":
            result = timed(cases, args.seed, args.seconds, checker)
        else:
            result = traced(cases, checker, 1 if args.tiny else 3)
        result["problems"] = checker.problems[:20]
        result["outputs_sha256"] = checker.outputs_sha256(cases)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
