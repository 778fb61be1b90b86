"""Gauge the speed the machine gives this process, with a fixed reference kernel.

On a shared host the speed one process gets swings by up to 2x, within a
second and from minute to minute, and the same call can take half again as
long in one run as in the next.  So while the timed loop runs, a `Sampler`
runs `kernel`, a fixed piece of pure Python that does not touch crosscap,
every `INTERVAL_S` seconds on SIGALRM, in the middle of the calls.  A call's
time, less the kernel runs inside it, is divided by the mean kernel time
within `WINDOW_S` of the call and multiplied by `REFERENCE_S`.  That puts
every figure in seconds on a machine where the kernel takes `REFERENCE_S`:
the host's speed cancels, and a change to crosscap still shows in full,
because the kernel stays the same.  Set-up times are scaled the same way,
by `kernel_time` taken right after set-up in the same process.

The kernel does what crosscap's hot path does: it steps a continued
fraction's last coefficient down by two, rebuilding a frozen dataclass that
validates its coefficients each time.  So a slow period slows both alike;
of the kernels tried, this one followed the calls' speed most closely.  It
runs with the garbage collector off, so the objects a call leaves behind do
not change how long the kernel takes.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import fmean, median
from time import perf_counter

REFERENCE_S = 0.35e-3  # the kernel's time on the 2-vCPU Xeon (2.1 GHz) the benchmark was set up on
INTERVAL_S = 0.01  # wall time between two kernel runs
WINDOW_S = 0.1  # kernel runs this close to a call gauge its speed


@dataclass(frozen=True)
class _Expansion:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or any(not isinstance(c, int) for c in coeffs) or coeffs[0] < 0:
            raise ValueError(f"not an expansion: {coeffs}")
        if len(coeffs) > 1 and (any(c < 1 for c in coeffs[1:-1]) or coeffs[-1] < 2):
            raise ValueError(f"not canonical: {coeffs}")


def kernel() -> int:
    """Steps [0,3,5,2,7,200] down to [0,3,5,2,7,2], two at a time."""
    steps = 0
    expansion = _Expansion((0, 3, 5, 2, 7, 200))
    while expansion.coeffs[-1] > 2:
        coeffs = list(expansion.coeffs)
        coeffs[-1] -= 2
        expansion = _Expansion(tuple(coeffs))
        steps += 1
    return steps


def kernel_time(runs: int = 31) -> float:
    """The median time of `runs` kernel runs, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(runs):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    if enabled:
        gc.enable()
    return median(times)


class Sampler:
    """While active, runs the kernel every INTERVAL_S seconds and keeps its times."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the call from `start` to `end` takes at the reference speed."""
        inside = self.durations[bisect_left(self.starts, start):bisect_right(self.starts, end)]
        near = self.durations[bisect_left(self.starts, start - WINDOW_S):bisect_right(self.starts, end + WINDOW_S)]
        return (end - start - sum(inside)) * REFERENCE_S / fmean(near or self.durations)
