"""Host-speed sampling that takes the measuring host's drift out of a repetition's times.

Each vCPU of the measuring host switches between a fast and a slow state every
few seconds, and the share of slow time drifts over minutes (README.md, "Noise
on the measuring host"). A probe timed before or after an experiment misses
the states the experiment ran in, so the sampler times a fixed micro-kernel
every PERIOD_S seconds *during* the experiment, from a SIGALRM handler.

A time multiplied by `scale()`, the mean of REFERENCE_S / kernel time over the
samples, is in seconds at the reference speed. The handler's own time is taken
out of every interval the benchmark times (`busy_s`), and the tracer takes it
out of the span it interrupted.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
KERNEL_STEPS = 20
# Median kernel time on the reference host (README.md); at that speed a
# scaled time equals the wall-clock time.
REFERENCE_S = 2.2e-4


def _kernel() -> float:
    """Fixed work in the simulator's mix: interpreter loops and tiny and wide numpy ops."""
    x = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    acc = float((np.eye(9) @ np.ones((9, 2048))).sum())
    for k in range(KERNEL_STEPS):
        acc += float((np.sin(x * (k % 7)) @ x).sum()) + math.sqrt(k)
    return acc


class SpeedSampler:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._on_sample = on_sample
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        if self._on_sample is not None:
            self._on_sample(duration)

    def __enter__(self) -> "SpeedSampler":
        _kernel()  # warm-up, not a sample
        self._tick()  # at least one sample, taken before any timed interval
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_s(self, start: float, end: float) -> float:
        """Seconds the handler ran inside [start, end)."""
        return sum(d for t, d in self.samples if start <= t < end)

    def scale(self) -> float:
        return sum(REFERENCE_S / d for _, d in self.samples) / len(self.samples)
