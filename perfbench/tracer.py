"""Per-layer timing of the program from outside it.

`Tracer` wraps every public function of the layer modules (`cf`, `knot`,
`genus`, `verify`, `cli`) and, while active, puts the wrappers into every
crosscap module namespace that holds the original, which is where callers
look it up.  So calls inside a module, such as `steps_to_zero` -> `step`,
are seen too.

No span is stored: each call is folded into its function's counters as it
returns (calls, total time, self time), through a stack of open calls.  A
call's self time is its duration minus the durations of the wrapped calls
it made.  Memory stays bounded however many million steps a run takes.
A generator function's time is the time spent in its `next()` calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cf", "knot", "genus", "verify", "cli")

_DONE = object()


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self, check_names: tuple[str, ...]) -> None:
        self.stats: dict[str, Stat] = {}
        self.trace_records = 0
        self.checks = {name: [0, 0.0] for name in check_names}  # cases, seconds
        self._stack: list[list[float]] = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"crosscap.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        self._patches = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "crosscap" or module_name.startswith("crosscap."):
                for attr, value in vars(module).items():
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._patches.append((module, attr, value, entry[1]))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _observe(self, name: str, result: object, elapsed: float) -> None:
        if name == "knot.pinch_sequence":
            self.trace_records += len(result)
        elif name.startswith("verify.check_"):
            check = self.checks.setdefault(result.check_name, [0, 0.0])
            check[0] += result.cases_checked
            check[1] += elapsed

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = Stat()
        stack = self._stack
        observed = name == "knot.pinch_sequence" or name.startswith("verify.check_")

        def close(start: float, children: list[float]) -> float:
            elapsed = perf_counter() - start
            stack.pop()
            stat.total += elapsed
            stat.self += elapsed - children[0]
            if stack:
                stack[-1][0] += elapsed
            return elapsed

        if inspect.isgeneratorfunction(fn):

            def generator_wrapper(*args, **kwargs):
                stat.calls += 1
                items = fn(*args, **kwargs)
                while True:
                    children = [0.0]
                    stack.append(children)
                    start = perf_counter()
                    try:
                        item = next(items, _DONE)
                    finally:
                        close(start, children)
                    if item is _DONE:
                        return
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            stat.calls += 1
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = close(start, children)
            if observed:
                self._observe(name, result, elapsed)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """`<layer>.<function>.{calls,total_s,self_s}`, `<layer>.self_s`,
        `knot.trace_records` and `verify.<check>.{cases,total_s}`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total
            out[f"{name}.self_s"] = stat.self
            out[f"{name.split('.')[0]}.self_s"] += stat.self
        out["knot.trace_records"] = self.trace_records
        for check, (cases, seconds) in self.checks.items():
            out[f"verify.{check}.cases"] = cases
            out[f"verify.{check}.total_s"] = seconds
        return out
