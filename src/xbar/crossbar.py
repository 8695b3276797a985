"""Symmetric N x N microring crossbar: topology, multi-wavelength propagation, MVM.

The propagation model is incoherent power bookkeeping over single-drop paths.
Input port i carries the full channel comb scaled by its MZI transmittance;
ring (i, j) sits near the row-i channel and routes a fraction of every channel
from row bus i onto column bus j through its drop port. Each ring is allotted
1/n of the row bus power (`bus budget`), so any heater program conserves
energy on the shared bus and the drop allocation is independent of a ring's
position along the row. That makes the effective matrix seen from the forward
and backward directions exactly transposed, which is the property the
symmetric layout is built to provide; the uniform allocation constant is
divided out by the output normalization. The channel not taken by any drop
port leaves as the row (column) through-port residual.

Crosstalk enters through two physical channels: off-resonance leakage of the
ring lineshape (foreign wavelengths and parked rings) and the finite
extinction ratio of the input MZIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devices import MziDevice, RingDevice, WavelengthGrid, db_to_power
from .errors import EncodingError, InfeasibleError, ShapeError

FORWARD = "forward"
BACKWARD = "backward"
SYMMETRIC = "symmetric"
LEGACY_ASYMMETRIC = "legacy_asymmetric"

DEFAULT_CROSSING_LOSS_DB = 0.02  # assumption: low-loss crossing design, not a measured value
DEFAULT_SEGMENT_LENGTH_UM = 150.0
ALIGNMENT_TOLERANCE_NM = 1e-4


def _check_direction(direction: str) -> None:
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")


@dataclass(frozen=True)
class CrossbarTopology:
    """Waveguide layout: crossing counts and path lengths per (input row, output column).

    The symmetric variant gives every path exactly 2n crossings and 2n
    segments in both directions. The legacy variant reproduces the prior
    generation's position-dependent counts: forward paths span 0..2n-2
    crossings, backward paths 0..2n (the drop transition passes its own
    intersection twice going backward, except at the corner ring that sits
    directly between the backward input and output).
    """

    n: int
    variant: str = SYMMETRIC
    crossing_loss_db: float = DEFAULT_CROSSING_LOSS_DB
    propagation_loss_db_per_cm: float = 1.3
    segment_length_um: float = DEFAULT_SEGMENT_LENGTH_UM
    omit_output_crossings: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("crossbar size n must be >= 1")
        if self.variant not in (SYMMETRIC, LEGACY_ASYMMETRIC):
            raise ValueError(f"unknown topology variant: {self.variant!r}")

    def crossing_counts(self, direction: str) -> np.ndarray:
        """Integer crossings traversed by each (row, column) path."""
        _check_direction(direction)
        n = self.n
        if self.variant == SYMMETRIC:
            count = 2 * n
            if direction == FORWARD and self.omit_output_crossings:
                count -= 2
            return np.full((n, n), count, dtype=int)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        if direction == FORWARD:
            return np.broadcast_to(j + (n - 1 - i), (n, n)).copy()
        counts = i + (n - 1 - j) + 2
        counts = counts.copy()
        counts[0, n - 1] = 0
        return counts

    def segment_counts(self, direction: str) -> np.ndarray:
        """Waveguide segments (of segment_length_um) traversed per path."""
        _check_direction(direction)
        n = self.n
        if self.variant == SYMMETRIC:
            return np.full((n, n), 2 * n, dtype=int)
        return self.crossing_counts(direction) + 2

    def path_loss_db(self, direction: str) -> np.ndarray:
        """Total dB loss per path from crossings plus propagation."""
        seg_cm = self.segment_length_um * 1e-4
        return (
            self.crossing_counts(direction) * self.crossing_loss_db
            + self.segment_counts(direction) * seg_cm * self.propagation_loss_db_per_cm
        )

    def path_transmission(self, direction: str) -> np.ndarray:
        return 10.0 ** (-self.path_loss_db(direction) / 10.0)

    def bus_transit_transmission(self, direction: str) -> float:
        """Power factor for a full bus traversal (through-port residual path)."""
        seg_cm = self.segment_length_um * 1e-4
        loss = self.n * self.crossing_loss_db + self.n * seg_cm * self.propagation_loss_db_per_cm
        return 10.0 ** (-loss / 10.0)


def path_loss_report(topology: CrossbarTopology) -> dict[str, np.ndarray]:
    """Per-direction n x n path-loss matrices in dB."""
    return {
        FORWARD: topology.path_loss_db(FORWARD),
        BACKWARD: topology.path_loss_db(BACKWARD),
    }


@dataclass(frozen=True)
class OpticalField:
    """Per-port, per-channel optical power (incoherent representation)."""

    powers: np.ndarray  # shape (ports, channels), mW
    channels_nm: tuple

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 2 or p.shape[1] != len(self.channels_nm):
            raise ShapeError(
                f"field must have shape (ports, {len(self.channels_nm)}); got {p.shape}"
            )
        if np.any(p < 0):
            raise ValueError("optical powers must be non-negative")
        object.__setattr__(self, "powers", p)

    @property
    def total_power(self) -> float:
        return float(self.powers.sum())

    @property
    def per_port(self) -> np.ndarray:
        """Channel-summed power per port (what a photodetector reads)."""
        return self.powers.sum(axis=1)


def _per_ring(rings: list, value) -> np.ndarray:
    """n x n array of value(ring) over a grid of rings."""
    return np.array([[value(ring) for ring in row] for row in rings])


@dataclass
class RingGrid:
    """n x n grid of rings; ring (i, j) carries matrix element w_ij on channel i.

    Everything that depends only on the rings is computed once, at
    construction: the per-ring parameters and lineshape constants read by
    `drop_through_tensor`, and the aligned heater matrix (checked against
    each ring's heater range and against ALIGNMENT_TOLERANCE_NM). The rings
    must not be replaced or mutated afterwards.
    """

    rings: list  # list of n lists of n RingDevice
    grid: WavelengthGrid
    park_detuning_nm: float | None = None  # default: half the channel spacing

    def __post_init__(self):
        n = len(self.rings)
        if any(len(row) != n for row in self.rings):
            raise ShapeError("ring grid must be square")
        if len(self.grid) != n:
            raise ShapeError("one wavelength channel per row is required")
        if self.park_detuning_nm is None:
            spacing = self.grid.spacing_nm
            self.park_detuning_nm = (
                spacing / 2.0 if math.isfinite(spacing) else self.rings[0][0].fsr_nm() / 8.0
            )
        self._build_param_cache()
        self._aligned = self._align()

    @property
    def n(self) -> int:
        return len(self.rings)

    def _build_param_cache(self):
        get = lambda value: _per_ring(self.rings, value)
        t1 = get(lambda r: r.self_coupling_t1)
        t2 = get(lambda r: r.self_coupling_t2)
        a = get(lambda r: r.round_trip_amplitude)
        n0 = get(lambda r: r.effective_index_at_ref)
        self._rate = get(lambda r: r.resonance_shift_per_mw)
        self._fab = get(lambda r: r.fabrication_detuning_nm)
        self._phase0 = get(
            lambda r: r.shifter.initial_phase_rad / (2.0 * math.pi) * r.fsr_nm()
        )
        self._max_power = get(lambda r: r.shifter.max_power_mw)
        # Lineshape constants, broadcast over the channel axis.
        ta = (t1 * t2 * a)[:, :, None]
        self._n0_c = n0[:, :, None]
        self._dispersion_c = (n0 - get(lambda r: r.group_index))[:, :, None]
        self._lam0_c = get(lambda r: r.reference_wavelength_nm)[:, :, None]
        self._length_c = get(lambda r: r.circumference_nm)[:, :, None]
        self._denom0_c = (1.0 - ta) ** 2
        self._four_ta_c = 4.0 * ta
        self._drop_num_c = (1.0 - t1**2)[:, :, None] * (1.0 - t2**2)[:, :, None] * a[:, :, None]
        self._drop_loss_c = get(lambda r: db_to_power(r.drop_excess_loss_db))[:, :, None]
        self._through_num_c = (t2 * a - t1)[:, :, None] ** 2

    def _align(self) -> np.ndarray:
        """Heater matrix putting every ring's resonance on its row channel.

        The thermo-optic shift is linear, so the modular inversion is exact;
        the residual is verified against ALIGNMENT_TOLERANCE_NM.
        """
        base = _per_ring(self.rings, lambda r: r.resonance_wavelength_nm(0.0))
        fsr = _per_ring(self.rings, lambda r: r.fsr_nm())
        target = self.grid.array[:, None]
        power = ((target - base) % fsr) / self._rate
        out_of_range = np.argwhere(power > self._max_power)
        if out_of_range.size:
            i, j = out_of_range[0]
            raise InfeasibleError(
                f"ring ({i},{j}) cannot reach channel {self.grid.channels_nm[i]} nm "
                "within its heater range"
            )
        shifted = base + self._rate * power
        residual = np.abs((shifted - target + fsr / 2.0) % fsr - fsr / 2.0)
        if np.any(residual > ALIGNMENT_TOLERANCE_NM):
            raise InfeasibleError(
                f"alignment residual {residual.max():.2e} nm exceeds tolerance"
            )
        return power

    def check_heaters(self, heaters: np.ndarray) -> np.ndarray:
        h = np.asarray(heaters, dtype=float)
        if h.shape != (self.n, self.n):
            raise ShapeError(f"heater matrix must be {self.n}x{self.n}; got {h.shape}")
        if (h < 0).any() or (h > self._max_power).any():
            raise ValueError("ring heater power out of range")
        return h

    def drop_through_tensor(self, heaters: np.ndarray):
        """(T_drop, T_through) with shape (n, n, channels), vectorized over the grid."""
        h = self.check_heaters(heaters)
        shift = self._fab + self._rate * h + self._phase0  # (n, n)
        lam = self.grid.array[None, None, :] - shift[:, :, None]  # (n, n, C)
        n_eff = self._n0_c + self._dispersion_c * (lam - self._lam0_c) / self._lam0_c
        phi = 2.0 * math.pi * n_eff * self._length_c / lam
        s2 = np.sin(phi / 2.0) ** 2
        denom = self._denom0_c + self._four_ta_c * s2
        t_drop = self._drop_num_c / denom * self._drop_loss_c
        t_through = (self._through_num_c + self._four_ta_c * s2) / denom
        return t_drop, t_through

    def aligned_heaters(self) -> np.ndarray:
        """Heater matrix putting every ring exactly on its row channel (a copy)."""
        return self._aligned.copy()

    def detuned_heaters(self, detunings_nm: np.ndarray) -> np.ndarray:
        """Heaters putting each ring `detunings_nm[i,j]` red of its row channel."""
        d = np.asarray(detunings_nm, dtype=float)
        if d.shape != (self.n, self.n):
            raise ShapeError("detuning matrix shape mismatch")
        if np.any(d < 0):
            raise ValueError("red-shift detunings must be non-negative")
        return self._aligned + d / self._rate

    def parked_heaters(self) -> np.ndarray:
        """All rings parked midway between channels (dark program)."""
        return self.detuned_heaters(np.full((self.n, self.n), self.park_detuning_nm))

    def identity_probe_heaters(self) -> np.ndarray:
        """Diagonal rings aligned, all others parked (full-scale probe program)."""
        h = self.parked_heaters()
        aligned = self.aligned_heaters()
        for k in range(self.n):
            h[k, k] = aligned[k, k]
        return h


def build_ring_grid(
    n: int,
    grid: WavelengthGrid,
    template: RingDevice | None = None,
    fabrication_sigma_nm: float = 0.0,
    seed: int | None = None,
) -> RingGrid:
    """Grid of rings designed for their row channels, with optional fab spread."""
    template = template or RingDevice()
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        designed = template.designed_for(grid.channels_nm[i])
        row = []
        for _ in range(n):
            ring = designed
            if fabrication_sigma_nm > 0:
                from dataclasses import replace

                ring = replace(
                    designed,
                    fabrication_detuning_nm=designed.fabrication_detuning_nm
                    + float(rng.normal(0.0, fabrication_sigma_nm)),
                )
            row.append(ring)
        rows.append(row)
    return RingGrid(rings=rows, grid=grid)


class CrossbarArray:
    """An assembled crossbar: topology + ring grid + two MZI input banks."""

    def __init__(
        self,
        topology: CrossbarTopology,
        ring_grid: RingGrid,
        forward_mzis: list[MziDevice],
        backward_mzis: list[MziDevice],
    ):
        n = topology.n
        if ring_grid.n != n or len(forward_mzis) != n or len(backward_mzis) != n:
            raise ShapeError("topology, ring grid and MZI banks must share the same n")
        self.topology = topology
        self.ring_grid = ring_grid
        self.forward_mzis = list(forward_mzis)
        self.backward_mzis = list(backward_mzis)
        # Each ring is allotted 1/n of its bus power; see module docstring.
        self.bus_budget = 1.0 / n
        self._norm_cache: dict[str, float] = {}
        self._path_transmission = {
            direction: topology.path_transmission(direction) for direction in (FORWARD, BACKWARD)
        }

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def channels(self) -> WavelengthGrid:
        return self.ring_grid.grid

    # -- input encoding ------------------------------------------------------

    def _bank(self, direction: str) -> list[MziDevice]:
        _check_direction(direction)
        return self.forward_mzis if direction == FORWARD else self.backward_mzis

    def encode_input(self, x: np.ndarray, direction: str) -> OpticalField:
        """Field produced by driving the direction's MZI bank to transmit x.

        x must lie in [0, 1]^n; signed values must be encoded upstream.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ShapeError(f"input vector must have shape ({self.n},); got {x.shape}")
        if np.any(x < 0) or np.any(x > 1):
            raise EncodingError("MZI-encodable inputs must lie in [0, 1]")
        bank = self._bank(direction)
        t = np.array(
            [dev.transmittance(dev.power_for(xi)) for dev, xi in zip(bank, x)]
        )
        powers = np.repeat(t[:, None], len(self.channels), axis=1)
        return OpticalField(powers=powers, channels_nm=self.channels.channels_nm)

    # -- propagation ---------------------------------------------------------

    def propagate(self, field: OpticalField, heaters: np.ndarray, direction: str) -> OpticalField:
        """Propagate an input field; returns a field over 2n output ports.

        Ports 0..n-1 are the drop-bus outputs (the MVM reading); ports
        n..2n-1 are the through-port residuals of the input buses.
        """
        _check_direction(direction)
        if field.powers.shape[0] != self.n:
            raise ShapeError(f"input field must cover {self.n} ports")
        if field.channels_nm != self.channels.channels_nm:
            raise ShapeError("field channel plan does not match the array")
        drop, _ = self.ring_grid.drop_through_tensor(heaters)  # (n, n, C)
        u = self._path_transmission[direction]  # (n, n)
        b = self.bus_budget
        p = field.powers  # (ports, C)
        if direction == FORWARD:
            # out[j, c] = sum_i p[i, c] * b * drop[i, j, c] * u[i, j]
            out = np.einsum("ic,ijc,ij->jc", p, drop, u)
            taken = b * drop.sum(axis=1)  # (n, C) fraction dropped off row i
        else:
            out = np.einsum("jc,ijc,ij->ic", p, drop, u)
            taken = b * drop.sum(axis=0)
        residual = p * np.clip(1.0 - taken, 0.0, None)
        residual *= self.topology.bus_transit_transmission(direction)
        powers = np.vstack([b * out, residual])
        return OpticalField(powers=powers, channels_nm=self.channels.channels_nm)

    def raw_output(self, x: np.ndarray, heaters: np.ndarray, direction: str) -> np.ndarray:
        """Per-port detected powers (channel sums) at the drop-bus outputs."""
        field = self.encode_input(x, direction)
        out = self.propagate(field, heaters, direction)
        return out.per_port[: self.n]

    # -- normalization and MVM -----------------------------------------------

    def normalization_constant(self, direction: str) -> float:
        """Full-scale output power per unit input, from a one-time probe.

        Probe: all MZIs at maximum with an identity-like ring program
        (diagonal aligned, off-diagonal parked), minus the dark baseline
        measured with every ring parked. The baseline subtraction removes the
        parked-ring leakage pedestal from the full-scale reference, and the
        per-output mean makes the constant identical for the two directions
        by construction.
        """
        _check_direction(direction)
        if direction not in self._norm_cache:
            ones = np.ones(self.n)
            probe = self.raw_output(ones, self.ring_grid.identity_probe_heaters(), direction)
            dark = self.raw_output(ones, self.ring_grid.parked_heaters(), direction)
            self._norm_cache[direction] = float((probe - dark).sum() / self.n)
        return self._norm_cache[direction]

    def forward_mvm(self, x: np.ndarray, heaters: np.ndarray) -> np.ndarray:
        """Normalized forward product: approximates T @ x for the programmed T."""
        raw = self.raw_output(x, heaters, FORWARD)
        return raw / self.normalization_constant(FORWARD)

    def backward_mvm(self, sigma: np.ndarray, heaters: np.ndarray) -> np.ndarray:
        """Normalized backward product: approximates T.T @ sigma, same heaters."""
        raw = self.raw_output(sigma, heaters, BACKWARD)
        return raw / self.normalization_constant(BACKWARD)

    def effective_matrix(self, heaters: np.ndarray, direction: str) -> np.ndarray:
        """Normalized matrix M with (forward) y = M.T @ x; M[i,j] ~ w_ij.

        Equivalent to probing with ideal unit vectors; used as the fast path
        for backends (the propagation model is linear in the input powers).
        """
        _check_direction(direction)
        drop, _ = self.ring_grid.drop_through_tensor(heaters)
        u = self._path_transmission[direction]
        g = drop.sum(axis=2) * u * self.bus_budget
        return g / self.normalization_constant(direction)

    def measure_matrix(self, heaters: np.ndarray, direction: str) -> np.ndarray:
        """Matrix measured by single-input probing, including MZI leakage.

        Row p of the result is the normalized output vector when only input
        port p is driven high and the remaining MZIs sit at their
        extinction floor.
        """
        _check_direction(direction)
        rows = []
        for k in range(self.n):
            x = np.zeros(self.n)
            x[k] = 1.0
            rows.append(self.raw_output(x, heaters, direction))
        return np.array(rows) / self.normalization_constant(direction)


def build_symmetric(
    n: int,
    grid: WavelengthGrid | None = None,
    ring_template: RingDevice | None = None,
    mzi_template: MziDevice | None = None,
    crossing_loss_db: float = DEFAULT_CROSSING_LOSS_DB,
    propagation_loss_db_per_cm: float = 1.3,
    segment_length_um: float = DEFAULT_SEGMENT_LENGTH_UM,
    omit_output_crossings: bool = False,
    fabrication_sigma_nm: float = 0.0,
    seed: int | None = None,
) -> CrossbarArray:
    """Symmetric crossbar: n^2 rings, 2n MZIs, 2n crossings on every path."""
    if grid is None:
        grid = WavelengthGrid.evenly_spaced(n) if n != 4 else WavelengthGrid.c_band_4()
    topology = CrossbarTopology(
        n=n,
        variant=SYMMETRIC,
        crossing_loss_db=crossing_loss_db,
        propagation_loss_db_per_cm=propagation_loss_db_per_cm,
        segment_length_um=segment_length_um,
        omit_output_crossings=omit_output_crossings,
    )
    ring_grid = build_ring_grid(n, grid, ring_template, fabrication_sigma_nm, seed)
    mzi = mzi_template or MziDevice()
    return CrossbarArray(topology, ring_grid, [mzi] * n, [mzi] * n)


def build_legacy_asymmetric(
    n: int,
    grid: WavelengthGrid | None = None,
    ring_template: RingDevice | None = None,
    mzi_template: MziDevice | None = None,
    crossing_loss_db: float = DEFAULT_CROSSING_LOSS_DB,
    propagation_loss_db_per_cm: float = 1.3,
    segment_length_um: float = DEFAULT_SEGMENT_LENGTH_UM,
    fabrication_sigma_nm: float = 0.0,
    seed: int | None = None,
) -> CrossbarArray:
    """Prior-generation asymmetric crossbar with position-dependent losses."""
    if grid is None:
        grid = WavelengthGrid.evenly_spaced(n) if n != 4 else WavelengthGrid.c_band_4()
    topology = CrossbarTopology(
        n=n,
        variant=LEGACY_ASYMMETRIC,
        crossing_loss_db=crossing_loss_db,
        propagation_loss_db_per_cm=propagation_loss_db_per_cm,
        segment_length_um=segment_length_um,
    )
    ring_grid = build_ring_grid(n, grid, ring_template, fabrication_sigma_nm, seed)
    mzi = mzi_template or MziDevice()
    return CrossbarArray(topology, ring_grid, [mzi] * n, [mzi] * n)
