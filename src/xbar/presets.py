"""Named device/array presets for the three experimental regimes.

- `experimental_4x4`: the fabricated demonstrator's measured figures (19.3
  mW/pi heaters, 1.9 dB drop loss, worst-case 37.6 dB MZI extinction, 0.75 nm
  channel spacing). The ring Q is not reported for the fabricated chip; it is
  calibrated to 2.5e4 so a parked ring's residual coupling reproduces the
  observed ~-15 dB error floor and ~30 dB drop-port extinction.
- `simulation_9x9`: the modeled tensor core (Q = 3e5, nine channels evenly
  spaced within one FSR, lossless couplers).
- `ideal`: near-perfect devices for oracle comparisons (Q = 1e8, infinite
  extinction, no excess loss), at any array size n.

Every preset is built by `preset_array`, which accepts a waveguide layout,
a fabrication spread of the ring resonances and its seed.
"""

from __future__ import annotations

import math

from .crossbar import SYMMETRIC, CrossbarArray, build_crossbar
from .devices import (
    DEFAULT_SHIFT_NM_PER_MW,
    WAVEGUIDE_LOSS_DB_PER_CM,
    MziDevice,
    RingDevice,
    couplings_for_q,
)

EXPERIMENTAL_Q = 2.5e4
EXPERIMENTAL_MZI_ER_DB = 37.6
EXPERIMENTAL_DROP_LOSS_DB = 1.9
SIMULATION_Q = 3e5
IDEAL_Q = 1e8

# Heater power aligning an experimental ring to its channel; anchors the
# Fig.-7(a)-style calibration window at (22.1, 27.8) mW.
EXPERIMENTAL_ALIGN_MW = 27.8


def round_trip_amplitude(radius_um: float = 20.0, loss_db_per_cm: float = WAVEGUIDE_LOSS_DB_PER_CM) -> float:
    """Single-pass amplitude factor from the waveguide propagation loss."""
    loss_db = loss_db_per_cm * (2.0 * math.pi * radius_um * 1e-4)
    return 10.0 ** (-loss_db / 20.0)


def ring_for_q(
    q: float,
    lossless: bool = False,
    drop_excess_loss_db: float = 0.0,
    fabrication_detuning_nm: float = 0.0,
) -> RingDevice:
    a = 1.0 if lossless else round_trip_amplitude()
    t1, t2 = couplings_for_q(q, round_trip_amplitude=a)
    return RingDevice(
        self_coupling_t1=t1,
        self_coupling_t2=t2,
        round_trip_amplitude=a,
        drop_excess_loss_db=drop_excess_loss_db,
        fabrication_detuning_nm=fabrication_detuning_nm,
    )


def experimental_ring() -> RingDevice:
    return ring_for_q(
        EXPERIMENTAL_Q,
        drop_excess_loss_db=EXPERIMENTAL_DROP_LOSS_DB,
        fabrication_detuning_nm=-EXPERIMENTAL_ALIGN_MW * DEFAULT_SHIFT_NM_PER_MW,
    )


# Array size of every fixed-size preset; `ideal` is built at any size n.
PRESET_SIZES = {"experimental_4x4": 4, "simulation_9x9": 9}
PRESETS = (*PRESET_SIZES, "ideal")


def preset_array(
    preset: str,
    n: int = 4,
    variant: str = SYMMETRIC,
    fabrication_sigma_nm: float = 0.0,
    seed: int | None = None,
) -> CrossbarArray:
    """Crossbar of a named preset; `n` sizes the `ideal` preset only."""
    n = PRESET_SIZES.get(preset, n)
    if preset == "experimental_4x4":
        ring, mzi = experimental_ring(), MziDevice(extinction_ratio_db=EXPERIMENTAL_MZI_ER_DB)
    elif preset == "simulation_9x9":
        ring, mzi = ring_for_q(SIMULATION_Q, lossless=True), MziDevice()
    elif preset == "ideal":
        ring, mzi = ring_for_q(IDEAL_Q, lossless=True), MziDevice()
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return build_crossbar(n, ring, mzi, variant, fabrication_sigma_nm, seed)
