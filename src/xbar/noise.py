"""Stochastic output-power fluctuations and time-averaged measurement.

Models the thermal-instability fluctuations seen on the measured output
powers as multiplicative Gaussian noise. The magnitude is a free parameter
(the experiments report the effect, not a number); the default 0.02 makes
single-shot inference visibly noisy while time-averaged readings recover.
Parallel runs must use independent streams: make_rng(seed, stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    relative_sigma: float = 0.02
    seed: int = 0
    stream: int = 0  # independent stream of `seed`, one per parallel run

    def __post_init__(self):
        if self.relative_sigma < 0:
            raise ValueError("relative_sigma must be non-negative")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); streams never overlap."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def perturb(powers, cfg: NoiseConfig, rng: np.random.Generator):
    """Multiply each power by max(0, 1 + eps), eps ~ N(0, relative_sigma^2)."""
    p = np.asarray(powers, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be non-negative")
    if cfg.relative_sigma == 0.0:
        return p.copy()
    factors = 1.0 + rng.normal(0.0, cfg.relative_sigma, size=p.shape)
    return p * np.maximum(factors, 0.0, out=factors)


def time_average(measurement_fn, repeats: int):
    """Arithmetic mean of `repeats` independent measurements."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    acc = np.asarray(measurement_fn(), dtype=float).copy()
    for _ in range(repeats - 1):
        acc += measurement_fn()
    return acc / repeats
