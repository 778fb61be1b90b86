"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import reference  # noqa: E402
import speed  # noqa: E402
from crosscap import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (".calls", ".cases", ".trace_records", ".bytes_out")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_without_errors(workload):
    result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = run(workload, 1), run(workload, 1)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert first["correct"] and second["correct"]
    counts = [name for name in first["metrics"] if name.endswith(COUNTS)]
    assert [first["metrics"][n] for n in counts] == [second["metrics"][n] for n in counts]
    assert first["metrics"]["cli.main.calls"]["value"] > 0


def _output(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("p, q", [(40, 39), (64, 9), (101, 7)])
def test_reference_rejects_a_changed_report(p, q):
    human, as_json = _output("report", str(p), str(q)), _output("report", str(p), str(q), "--format", "json")
    assert reference.check_report_human(p, q, human) == []
    assert reference.check_report_json(p, q, as_json) == []
    gamma3 = json.loads(as_json)["gamma3"]
    assert reference.check_report_human(p, q, human.replace(f"gamma3:            {gamma3} ",
                                                            f"gamma3:            {gamma3 + 1} "))
    assert reference.check_report_json(p, q, as_json.replace(f'"gamma3": {gamma3}', f'"gamma3": {gamma3 + 1}'))
    first_record = human.split("  pinch trace:\n")[1].splitlines()[0]
    assert reference.check_report_human(p, q, human.replace(first_record + "\n", ""))


def test_reference_rejects_a_changed_box():
    verify = _output("verify", "--max", "12")
    assert reference.check_verify(12, verify) == []
    assert reference.check_verify(13, verify)
    table = _output("table", "--pmax", "12", "--qmax", "11", "--format", "csv")
    assert reference.check_table_csv(12, 11, table) == []
    assert reference.check_table_csv(12, 11, table.rsplit("\n", 2)[0] + "\n")


def test_sampler_takes_out_the_kernel_and_scales_by_its_time_around_a_call():
    sampler = speed.Sampler()
    sampler.starts = [0.0, 1.0, 1.5, 2.05, 3.0]
    sampler.durations = [9.0, 0.1, 0.1, 0.4, 9.0]
    # Runs at 1.0 and 1.5 lie inside the call; the one at 2.05 is near it.
    expected = (1.0 - 0.2) * speed.REFERENCE_S / 0.2
    assert sampler.scaled(1.0, 2.0) == pytest.approx(expected)


def test_sampler_runs_the_kernel_during_a_busy_loop():
    with speed.Sampler() as sampler:
        deadline = perf_counter() + 0.2
        while perf_counter() < deadline:
            pass
    assert len(sampler.durations) >= 5
    assert sampler.starts == sorted(sampler.starts)
