"""The benchmark's per-layer metrics name functions this package still has.

`perfbench/run.py --trace 1` times the public functions of each layer
module, those in its `__all__`, and fails when a `per_layer` metric of
BENCHMARK.json gets no value.  So deleting or renaming a function that a
metric names must fail here, where the cause is plain.  A speed-up that
routes the table around a public layer function would leave its rows at 0,
so a short traced run checks that the table still goes through them.  The
same holds for verify: its checks share one expansion per knot, and a short
traced run checks that each still calls the public route it compares with
(the step route is one `cf.step` per knot; the split pieces' walks come from
verify's walk table, not from `crosscap_by_splitting`).
"""

import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"

# `<module>.<function>.<stat>`; names such as `verify.gap-formula.total_s`
# (a check) or `cf.self_s` (a whole layer) name no function.
_FUNCTION_METRIC = re.compile(r"(cf|knot|genus|verify|cli)\.([A-Za-z_]\w*)\.(calls|total_s|self_s)")


def test_per_layer_metrics_name_public_functions():
    metrics = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    named = {match.group(1, 2) for match in map(_FUNCTION_METRIC.fullmatch, metrics) if match}
    assert named
    missing = []
    for layer, name in sorted(named):
        module = importlib.import_module(f"crosscap.{layer}")
        if name not in module.__all__ or not inspect.isfunction(getattr(module, name, None)):
            missing.append(f"{layer}.{name}")
    assert missing == []


def traced_metrics(workload):
    """The per-layer metrics of a tiny traced run of `workload`, seed 1."""
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_traced_table_goes_through_the_public_layers():
    metrics = traced_metrics("box_table")
    for name in ("cf.expand.calls", "cf.steps_to_zero.total_s", "genus.genus_report.calls"):
        assert metrics[name] > 0, name


def test_traced_verify_goes_through_its_comparison_routes():
    metrics = traced_metrics("box_verify")
    for name in (
        "knot.pinch.calls",
        "knot.pinch_sign_from_expansion.total_s",
        "genus.odd_split.total_s",
        "cf.step.calls",
        "cf.expand.calls",
    ):
        assert metrics[name] > 0, name
