"""Stochastic output-power fluctuations and time-averaged measurement.

Models the thermal-instability fluctuations seen on the measured output
powers as multiplicative Gaussian noise. The magnitude is a free parameter
(the experiments report the effect, not a number); the default 0.02 makes
single-shot inference visibly noisy while time-averaged readings recover.
A time-averaged reading is the mean of its repeats, drawn in one call:
repeats of a reading are consecutive draws of its stream, so one draw of
all of them gives the numbers that reading them one after another gives.
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


def perturb(powers, cfg: NoiseConfig, rng: np.random.Generator, repeats: int = 1):
    """Mean of `repeats` readings of `powers`, each power of each reading
    multiplied by max(0, 1 + eps), eps ~ N(0, relative_sigma^2).

    The readings are summed in the order drawn, then divided by `repeats`
    (so a noiseless 3-repeat reading is (p + p + p) / 3, not always p).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    p = np.asarray(powers, dtype=float)
    # NaN fails the comparison; the initial value lets an empty reading pass.
    if not p.min(initial=np.inf) >= 0.0:
        raise ValueError("powers must be non-negative")
    if cfg.relative_sigma == 0.0:
        readings = np.broadcast_to(p, (repeats,) + p.shape)
    else:
        factors = 1.0 + rng.normal(0.0, cfg.relative_sigma, size=(repeats,) + p.shape)
        readings = np.multiply(p, np.maximum(factors, 0.0, out=factors), out=factors)
    total = readings[0]
    for reading in readings[1:]:
        total = total + reading
    return total / repeats
