"""The benchmark's per-layer metrics name functions this package still has.

`perfbench/run.py --trace 1` times the public functions of each layer
module, those in its `__all__`, and fails when a `per_layer` metric of
BENCHMARK.json gets no value.  So deleting or renaming a function that a
metric names must fail here, where the cause is plain.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

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
