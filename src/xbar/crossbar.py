"""Symmetric N x N microring crossbar: topology, multi-wavelength propagation, MVM.

The propagation model is incoherent power bookkeeping over single-drop paths.
Input port i carries the full channel comb scaled by its MZI transmittance
t_i; ring (i, j) sits near the row-i channel and routes a fraction of every
channel from row bus i onto column bus j through its drop port. Each ring is
allotted 1/n of the row bus power (`bus budget` b), so any heater program
conserves energy on the shared bus and the drop allocation is independent of
a ring's position along the row.

The model is linear in the input powers, so one gain matrix

    G[i, j] = b * u_ij * sum_c T_drop(i, j, c)    (u: path transmission)

describes a heater program, and every reading is the MZI-transmittance
vector times G: forward, output column j reads sum_i t_i G[i, j]; backward,
output row i reads sum_j G[i, j] t_j. `CrossbarArray.read` is that one
reading; the probed reading (`CrossbarArray.measure`) and the LUT
calibration sweep take their output powers from it. The symmetric layout
gives both directions the same path losses, so the forward and backward
readings are exact transposes. One calibration serves a program and its read-back: `RingGrid`
holds each ring's aligned resonance order, and `CrossbarArray.full_scale`
the drop that a unit target is programmed to and the decode divides out.

Crosstalk enters through two physical channels: off-resonance leakage of the
ring lineshape (foreign wavelengths and parked rings) and the finite
extinction ratio of the input MZIs. Every input port, in both directions,
carries the same MZI design, so one `MziDevice` models the whole array's
input modulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .devices import (
    WAVEGUIDE_LOSS_DB_PER_CM,
    AddDropLineshape,
    MziDevice,
    RingDevice,
    WavelengthGrid,
    read_only,
    tile_to,
)
from .errors import EncodingError, InfeasibleError, ShapeError

FORWARD = "forward"
BACKWARD = "backward"
SYMMETRIC = "symmetric"
LEGACY_ASYMMETRIC = "legacy_asymmetric"

CROSSING_LOSS_DB = 0.02  # assumption: low-loss crossing design, not a measured value
SEGMENT_LENGTH_UM = 150.0
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
            return np.full((n, n), 2 * n, dtype=int)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        if direction == FORWARD:
            return np.broadcast_to(j + (n - 1 - i), (n, n)).copy()
        counts = i + (n - 1 - j) + 2
        counts[0, n - 1] = 0
        return counts

    def segment_counts(self, direction: str) -> np.ndarray:
        """Waveguide segments (of SEGMENT_LENGTH_UM) traversed per path."""
        _check_direction(direction)
        n = self.n
        if self.variant == SYMMETRIC:
            return np.full((n, n), 2 * n, dtype=int)
        return self.crossing_counts(direction) + 2

    def path_loss_db(self, direction: str) -> np.ndarray:
        """Total dB loss per path from crossings plus propagation."""
        seg_cm = SEGMENT_LENGTH_UM * 1e-4
        return (
            self.crossing_counts(direction) * CROSSING_LOSS_DB
            + self.segment_counts(direction) * seg_cm * WAVEGUIDE_LOSS_DB_PER_CM
        )

    def path_transmission(self, direction: str) -> np.ndarray:
        return 10.0 ** (-self.path_loss_db(direction) / 10.0)


def _per_ring(rings: list, value) -> np.ndarray:
    """Read-only n x n array of value(ring) over a grid of rings."""
    return read_only(np.array([[value(ring) for ring in row] for row in rings]))


@dataclass(frozen=True)
class TiledRings:
    """Every per-ring constant of the heater solve and of
    `RingGrid.drop_through_tensor`, tiled to one stack's full shape as
    C-contiguous read-only arrays, so that each ufunc on a stack of that
    shape runs on operands of one shape (numpy broadcasts nothing).
    `lead` is the stack's leading shape: the (n, n) constants are tiled to
    lead + (n, n), the channel-resolved ones to lead + (n, n, channels).
    """

    solve: AddDropLineshape  # lead + (n, n), its inverse's cached terms computed
    drop: AddDropLineshape  # lead + (n, n, channels)
    channels: np.ndarray  # lead + (n, n, channels)
    aligned: np.ndarray  # the aligned heaters
    shift_per_mw: np.ndarray
    fab: np.ndarray
    phase0: np.ndarray
    max_power_mw: np.ndarray
    peaks: np.ndarray  # each ring's peak drop
    floor_rel: np.ndarray  # each ring's parked floor relative to its peak
    own: np.ndarray  # flat index of each ring's own channel in a lead + (n, n, channels) array


@dataclass
class RingGrid:
    """n x n grid of rings; ring (i, j) carries matrix element w_ij on channel i.

    Everything that depends only on the rings is computed once, at
    construction, and held in read-only arrays:
    - the per-ring heater rate (`shift_per_mw`), fabrication detuning,
      initial-phase shift, heater range (`max_power_mw`) and the zero-heater
      resonance of the order it is aligned on, read by
      `drop_through_tensor`, `drop_below_resonance` and the range checks;
    - `order_spacing_nm`, each ring's spacing from its resonance order to
      the next (bluer) one, from its own lineshape; the alignment wraps a
      channel blue of the resonance onto that order, and the LUT ring
      window wraps by it too;
    - the aligned heater matrix (checked against each ring's heater range
      and against ALIGNMENT_TOLERANCE_NM);
    - `lineshape`, every ring's `AddDropLineshape` stacked into fields of
      shape (n, n, 1), with each ring's `resonance_phase` that of the order
      it is aligned on. It is free of heater and fabrication detuning, so
      one evaluation, or one inverse solve
      (`RingDevice.detuning_for_relative_drop`), serves the whole grid;
    - each ring's peak drop and its parked floor relative to that peak,
      which bound the compiler's targets;
    - `park_detuning_nm`, the red detuning of a parked ring: half the
      channel spacing, or an eighth of the FSR for a single channel.

    `tiled(lead)` holds one `TiledRings` record per leading stack shape
    `lead` that the grid has been given heaters or detunings in: the
    constants above that the heater solve and `drop_through_tensor` read,
    tiled to the stack's full shape. A record is built on the first call
    with its shape (the first program of that shape), kept, and read-only.
    Its arrays hold the grid's values, so a stack computes what each of its
    matrices alone computes, bit for bit. The rings must not be replaced or
    mutated afterwards.
    """

    rings: list  # list of n lists of n RingDevice
    grid: WavelengthGrid
    park_detuning_nm: float = field(init=False)

    def __post_init__(self):
        n = len(self.rings)
        if any(len(row) != n for row in self.rings):
            raise ShapeError("ring grid must be square")
        if len(self.grid) != n:
            raise ShapeError("one wavelength channel per row is required")
        spacing = self.grid.spacing_nm
        self.park_detuning_nm = (
            spacing / 2.0 if math.isfinite(spacing) else self.rings[0][0].fsr_nm() / 8.0
        )
        get = lambda value: _per_ring(self.rings, value)
        self.shift_per_mw = get(lambda r: r.resonance_shift_per_mw)
        self._fab = get(lambda r: r.fabrication_detuning_nm)
        self._phase0 = get(lambda r: r.shifter.initial_phase_rad / (2.0 * math.pi) * r.fsr_nm())
        self.max_power_mw = get(lambda r: r.shifter.max_power_mw)
        base = get(lambda r: r.resonance_wavelength_nm(0.0))  # zero-heater resonance
        self._channels = read_only(self.grid.array)
        shape = AddDropLineshape.stack([[r.lineshape for r in row] for row in self.rings])
        next_order = shape.wavelength_at_phase(shape.resonance_phase + 2.0 * math.pi)
        self.order_spacing_nm = read_only((shape.resonance_wavelength - next_order)[:, :, 0])
        # A channel blue of a ring's resonance is reached on the next order:
        # one `order_spacing_nm` bluer, 2 pi more round-trip phase.
        wrapped = self._channels[:, None] < base
        self._aligned_resonance = read_only(np.where(wrapped, base - self.order_spacing_nm, base))
        phase = shape.resonance_phase + 2.0 * math.pi * wrapped[:, :, None]
        self.lineshape = replace(shape, resonance_phase=read_only(phase))
        self._aligned = self._align()
        self._peaks = read_only(self.lineshape.peak_drop[:, :, 0])
        # Residual relative coupling of a parked ring at its own channel.
        self._floor_rel = read_only(self.drop_below_resonance(self.park_detuning_nm) / self._peaks)
        self._tiled: dict[tuple, TiledRings] = {}

    @property
    def n(self) -> int:
        return len(self.rings)

    def tiled(self, lead: tuple) -> TiledRings:
        """The per-ring constants tiled to the stack shape lead + (n, n),
        built on the first call with `lead` and kept."""
        record = self._tiled.get(lead)
        if record is None:
            record = self._tiled[lead] = self._tile(lead)
        return record

    def _tile(self, lead: tuple) -> TiledRings:
        n, channels = self.n, len(self.grid)
        full = lead + (n, n)
        shape = self.lineshape
        # The solve's lineshape has no channel axis.
        solve = AddDropLineshape(*(tile_to(getattr(shape, f.name)[..., 0], full) for f in fields(shape)))
        # Its inverse's wavelength-independent terms, cached here so that the
        # record is complete before its first solve.
        for cached in ("resonance_wavelength", "half_fsr", "_two_pi_length", "_dispersion_per_lam0"):
            getattr(solve, cached)
        return TiledRings(
            solve=solve,
            drop=shape.broadcast_to(full + (channels,)),
            channels=tile_to(self._channels, full + (channels,)),
            aligned=tile_to(self._aligned, full),
            shift_per_mw=tile_to(self.shift_per_mw, full),
            fab=tile_to(self._fab, full),
            phase0=tile_to(self._phase0, full),
            max_power_mw=tile_to(self.max_power_mw, full),
            peaks=tile_to(self._peaks, full),
            floor_rel=tile_to(self._floor_rel, full),
            own=read_only(np.arange(math.prod(full)).reshape(full) * channels + np.arange(n)[:, None]),
        )

    def _align(self) -> np.ndarray:
        """Heater matrix putting every ring's aligned order on its row channel.
        The shift is linear, so the inversion is exact; its residual is
        checked against ALIGNMENT_TOLERANCE_NM."""
        order, target = self._aligned_resonance, self._channels[:, None]
        power = (target - order) / self.shift_per_mw
        out_of_range = np.argwhere(power > self.max_power_mw)
        if out_of_range.size:
            i, j = out_of_range[0]
            raise InfeasibleError(
                f"ring ({i},{j}) cannot reach channel {self.grid.channels_nm[i]} nm "
                "within its heater range"
            )
        residual = np.abs(order + self.shift_per_mw * power - target)
        if np.any(residual > ALIGNMENT_TOLERANCE_NM):
            raise InfeasibleError(
                f"alignment residual {residual.max():.2e} nm exceeds tolerance"
            )
        return read_only(power)

    def check_heaters(self, heaters: np.ndarray, rings=None) -> np.ndarray:
        """`heaters`, (n, n) or a stack (..., n, n), checked against every
        ring's heater range; with `rings`, flat ring indices i * n + j, one
        heater per ring they select, broadcast against them."""
        h = np.asarray(heaters, dtype=float)
        if rings is not None:
            top = self.max_power_mw.take(rings)
        elif h.shape[-2:] != (self.n, self.n):
            raise ShapeError(f"heater matrix must be {self.n}x{self.n}; got {h.shape}")
        else:
            top = self.tiled(h.shape[:-2]).max_power_mw
        if not np.logical_and.reduce((0.0 <= h) & (h <= top), axis=None):
            raise ValueError("ring heater power out of range")
        return h

    def drop_through_tensor(self, heaters: np.ndarray, rings=None) -> np.ndarray:
        """T_drop of every ring on every channel, shape (..., n, n, channels)
        for heaters (..., n, n), as a new array, on the constants tiled to
        the stack (`tiled`). With `rings`, an integer array of flat ring
        indices i * n + j, only the rings it selects: heaters (...) hold one
        power per selected ring, broadcast against `rings`, and the result
        is (..., channels). The through port, which no grid caller reads, is
        left to `RingDevice.drop_through`."""
        h = self.check_heaters(heaters, rings)
        if rings is None:
            t = self.tiled(h.shape[:-2])
            fab, rate, phase0, shape, channels = t.fab, t.shift_per_mw, t.phase0, t.drop, t.channels
        else:
            fab, rate, phase0 = (a.take(rings) for a in (self._fab, self.shift_per_mw, self._phase0))
            shape, channels = self.lineshape.take(rings[..., None]), self._channels
        shift = rate * h  # fab + rate * h + phase0: (..., n, n), or the selection's shape
        shift += fab
        shift += phase0
        return shape.drop(np.subtract(channels, shift[..., None]))

    def drop_below_resonance(self, detuning_nm: float) -> np.ndarray:
        """T_drop of every ring at zero heater power, `detuning_nm` blue of
        the zero-heater resonance of its aligned order, shape (n, n), in one
        evaluation of the stacked lineshape."""
        lam = self._aligned_resonance - detuning_nm - (self._fab + self._phase0)
        return self.lineshape.drop(lam[:, :, None])[:, :, 0]

    def aligned_heaters(self) -> np.ndarray:
        """Heater matrix putting every ring exactly on its row channel (a copy)."""
        return self._aligned.copy()

    def detuned_heaters(self, detunings_nm: np.ndarray) -> np.ndarray:
        """Heaters putting each ring `detunings_nm[..., i, j]` red of its row
        channel, for one detuning matrix or a stack (..., n, n)."""
        d = np.asarray(detunings_nm, dtype=float)
        if d.shape[-2:] != (self.n, self.n):
            raise ShapeError("detuning matrix shape mismatch")
        if not np.logical_and.reduce(0.0 <= d, axis=None):
            raise ValueError("red-shift detunings must be non-negative")
        t = self.tiled(d.shape[:-2])
        heaters = d / t.shift_per_mw
        heaters += t.aligned  # aligned + d / rate
        return heaters

    def parked_heaters(self) -> np.ndarray:
        """All rings parked midway between channels (dark program)."""
        return self.detuned_heaters(np.full((self.n, self.n), self.park_detuning_nm))


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
                ring = replace(
                    designed,
                    fabrication_detuning_nm=designed.fabrication_detuning_nm
                    + float(rng.normal(0.0, fabrication_sigma_nm)),
                )
            row.append(ring)
        rows.append(row)
    return RingGrid(rings=rows, grid=grid)


class CrossbarArray:
    """An assembled crossbar: topology + ring grid + the MZI design of its
    2n input ports (n per direction).

    Its calibration (full scale, normalization, MZI extinction floor, dark
    program's summed drop) depends on the array alone; each part is computed
    on first use and kept.
    """

    def __init__(self, topology: CrossbarTopology, ring_grid: RingGrid, mzi: MziDevice):
        if ring_grid.n != topology.n:
            raise ShapeError("topology and ring grid must share the same n")
        self.topology = topology
        self.ring_grid = ring_grid
        self.mzi = mzi
        # Each ring is allotted 1/n of its bus power; see module docstring.
        self.bus_budget = 1.0 / topology.n
        self._path_transmission = {
            direction: topology.path_transmission(direction) for direction in (FORWARD, BACKWARD)
        }

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def channels(self) -> WavelengthGrid:
        return self.ring_grid.grid

    def input_transmittances(self, x: np.ndarray) -> np.ndarray:
        """Transmittances of n input MZIs driven to transmit x (..., n), in
        either direction (every port carries the same MZI design).

        x must lie in [0, 1] (NaN raises EncodingError); signed values must
        be encoded upstream. An MZI driven to 0 still leaks at its extinction
        floor.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ShapeError(f"input vectors must have shape (..., {self.n}); got {x.shape}")
        if not ((0.0 <= x) & (x <= 1.0)).all():
            raise EncodingError("MZI-encodable inputs must lie in [0, 1]")
        return self.mzi.transmittance(self.mzi.power_for(x))

    @cached_property
    def full_scale(self) -> float:
        """The drop a unit target is programmed to: the smallest own-channel
        drop of the aligned program, which a calibration measures by aligning
        each ring and reading its drop port. The lossiest ring binds."""
        grid = self.ring_grid
        drop = grid.drop_through_tensor(grid.aligned_heaters())
        k = np.arange(self.n)
        return float(drop[k[:, None], k, k[:, None]].min())

    @cached_property
    def _normalization(self) -> dict[str, float]:
        full_drive = self.mzi.transmittance(self.mzi.power_for(1.0))
        scale = self.full_scale * self.bus_budget * full_drive
        return {d: scale * float(np.diagonal(u).mean()) for d, u in self._path_transmission.items()}

    @cached_property
    def mzi_floor(self) -> float:
        """Transmittance of an input MZI driven to 0: its extinction floor."""
        return self.mzi.transmittance(self.mzi.power_for(0.0))

    @cached_property
    def dark_summed_drop(self) -> np.ndarray:
        """Channel-summed drop of the dark program, every ring parked (read-only)."""
        return read_only(self.summed_drop(self.ring_grid.parked_heaters()))

    def summed_drop(self, heaters: np.ndarray) -> np.ndarray:
        """Channel-summed drop transmittance of every ring: the part of the
        gain that both directions share. Heaters (..., n, n) give (..., n, n)."""
        return self.ring_grid.drop_through_tensor(heaters).sum(axis=-1)

    def _gain(self, summed_drop: np.ndarray, direction: str, port=None) -> np.ndarray:
        """Unnormalized gain matrix G of a program, from its channel-summed
        drop (see module docstring); with `port`, the line of G that output
        `port` reads, from the drops on that line (see `read`)."""
        _check_direction(direction)
        path = self._path_transmission[direction]
        if port is not None:
            path = (path.T if direction == FORWARD else path)[port]
        return summed_drop * path * self.bus_budget

    def read(self, t: np.ndarray, summed_drop: np.ndarray, direction: str, port=None) -> np.ndarray:
        """Raw output powers for input-port transmittances `t` (..., n) through
        the program whose channel-summed drop is `summed_drop` (..., n, n):
        t @ G going forward, t @ G^T going backward. This is the array's one
        reading; operands broadcast as in np.matmul.

        With `port`, only output `port` is read, for a stack of programs:
        `summed_drop` (..., programs, n) holds each program's drops on the
        port's line (grid column `port` going forward, row `port` backward),
        `port` broadcasts against its leading axes (..., programs), and `t`
        (..., inputs, n) reads (..., inputs, programs)."""
        gain = self._gain(summed_drop, direction, port)
        if port is not None or direction == BACKWARD:
            gain = np.swapaxes(gain, -1, -2)
        return t @ gain

    def normalization_constant(self, direction: str) -> float:
        """Output power of a unit-target element through a fully driven port:
        `full_scale` x bus budget x full-drive MZI transmittance x the mean
        path transmission of the diagonal, which is exact on the symmetric
        layout: there every path, in both directions, has one transmission."""
        _check_direction(direction)
        return self._normalization[direction]

    def measure(self, x: np.ndarray, heaters: np.ndarray, direction: str) -> np.ndarray:
        """Normalized reading of inputs `x` (..., n) through the program
        `heaters`, MZI leakage included: forward it approximates T.T @ x for
        the programmed T, backward T @ x. `np.eye(n)` gives the matrix
        measured by single-input probing, whose row p is the output vector
        with only input port p driven high and every other MZI at its
        extinction floor."""
        raw = self.read(self.input_transmittances(x), self.summed_drop(heaters), direction)
        return raw / self.normalization_constant(direction)

    def effective_matrix(self, summed_drop: np.ndarray, direction: str) -> np.ndarray:
        """Normalized gain M = G / norm: forward y = M.T @ x, backward y = M @ s.

        M[i, j] ~ w_ij of the program whose channel-summed drop is
        `summed_drop` (..., n, n), as `summed_drop(heaters)` gives it; a
        stack gives a stack of matrices. Both directions of one program
        share that drop, so its lineshape is evaluated once. Equivalent to
        probing with ideal unit vectors (MZIs without an extinction floor);
        the photonic backend's products read it.
        """
        return self._gain(summed_drop, direction) / self.normalization_constant(direction)


def build_crossbar(
    n: int,
    ring_template: RingDevice | None = None,
    mzi_template: MziDevice | None = None,
    variant: str = SYMMETRIC,
    fabrication_sigma_nm: float = 0.0,
    seed: int | None = None,
) -> CrossbarArray:
    """Crossbar of n^2 rings and 2n MZIs of one design with the given waveguide layout.

    The symmetric variant has 2n crossings on every path; the legacy one
    has the prior generation's position-dependent losses. Four channels
    follow the demonstrator's plan; other sizes are spaced evenly in one FSR.
    """
    grid = WavelengthGrid.c_band_4() if n == 4 else WavelengthGrid.evenly_spaced(n)
    ring_grid = build_ring_grid(n, grid, ring_template, fabrication_sigma_nm, seed)
    mzi = mzi_template or MziDevice()
    return CrossbarArray(CrossbarTopology(n=n, variant=variant), ring_grid, mzi)
