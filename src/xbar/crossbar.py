"""Symmetric N x N microring crossbar: topology, ring grid, multi-wavelength propagation, MVM.

`RingGrid` owns the physics of the grid of rings: each ring's constants
(`RingConstants`), their alignment on the row channels, the drop tensor of
a heater program and the heater solve that sets a program's channel-summed
drops. `CrossbarArray` owns the waveguide layout, the input MZIs, the one
reading of a program and its calibration (`CrossbarArray.full_scale`, the
drop a unit target is programmed to and the decode divides out). A single
ring or MZI is `xbar.devices`'; the encoding of signed matrices onto unit
targets is `xbar.compiler`'s.

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
readings are exact transposes.

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
)
from .errors import EncodingError, InfeasibleError, ShapeError

FORWARD = "forward"
BACKWARD = "backward"
SYMMETRIC = "symmetric"
LEGACY_ASYMMETRIC = "legacy_asymmetric"

CROSSING_LOSS_DB = 0.02  # assumption: low-loss crossing design, not a measured value
SEGMENT_LENGTH_UM = 150.0
ALIGNMENT_TOLERANCE_NM = 1e-4
# Knots of each ring's summed-response table (`RingGrid.summed_response`),
# and the fewest falling cells from its channel that a ring must have.
RESPONSE_KNOTS = 256
MIN_BRANCH_CELLS = 4


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


def tile_to(value, shape: tuple) -> np.ndarray:
    """`value` broadcast to `shape` as a C-contiguous read-only array: `value`
    itself if it is one already, else a new one. (A slice assignment
    broadcasts in C; `np.broadcast_to(...).copy()` costs several
    microseconds of Python per call.)"""
    if (
        isinstance(value, np.ndarray)
        and value.shape == shape
        and value.flags.c_contiguous
        and not value.flags.writeable
    ):
        return value
    out = np.empty(shape, dtype=np.result_type(value))
    out[...] = value
    return read_only(out)


def _mapped(record, fn):
    """A copy of a frozen record with `fn` applied to each of its arrays, the
    arrays of its lineshapes included."""
    return type(record)(
        *(
            _mapped(value, fn) if isinstance(value, AddDropLineshape) else fn(value)
            for value in (getattr(record, f.name) for f in fields(record))
        )
    )


@dataclass(frozen=True)
class RingConstants:
    """The per-ring constants that the drop tensor and the heater solve
    read, one value per ring in every field.

    `RingGrid.constants` holds the grid's own, over rings (n, n), and
    `RingGrid.tiled` tiles them to a stack's full shape; both are
    read-only. `take` selects rings from the grid's own into new arrays. A
    channel-resolved field has a last channel axis, of length 1 where its
    value is the same on every channel.
    """

    lineshape: AddDropLineshape  # on the order aligned on; channel-resolved
    solve: AddDropLineshape  # the same, without the channel axis, for its inverse
    channels: np.ndarray  # every channel's wavelength; channel-resolved
    aligned: np.ndarray  # the heater that puts the ring on its row channel
    shift_per_mw: np.ndarray  # the heater's red shift, nm per mW
    fab: np.ndarray  # fabrication detuning, nm
    max_power_mw: np.ndarray  # the heater's cap
    peaks: np.ndarray  # the peak drop
    floor_rel: np.ndarray  # a parked ring's own-channel drop relative to its peak

    def take(self, rings) -> "RingConstants":
        """The grid's constants of the rings at flat indices `rings`
        (i * n + j), over rings of the shape of `rings`."""
        return _mapped(self, lambda a: a.reshape((-1,) + a.shape[2:])[rings])


@dataclass(frozen=True)
class SummedResponse:
    """Each ring's channel-summed drop S and its foreign-channel pedestal P
    (S less the drop on the ring's own channel), tabulated against the
    ring's red detuning from its channel on RESPONSE_KNOTS uniform knots
    over [0, park]. A ring's pedestal depends on its own detuning alone, so
    the table serves every program.

    Each ring's table is cut at the end of S's first strictly falling run,
    its summed minimum: S rises by up to about 1e-7 of its peak just before
    park. Over the cell from knot k to k + 1, P is linear in S: slope x S +
    intercept. `slope` and `intercept` are (n, n, RESPONSE_KNOTS), and flat
    index `first + k` reads ring (i, j)'s cell k in them and in `keys`.
    Every array is read-only.
    """

    # Search keys, flat and ascending: first + 1j * (-S), with -S = +inf past
    # the cut. Complex values order by real part, then imaginary part, so one
    # `searchsorted` of first + 1j * (-s) counts ring (i, j)'s knots above s,
    # exactly.
    keys: np.ndarray
    first: np.ndarray  # (n, n): flat index of each ring's knot 0
    slope: np.ndarray  # dP/dS over each cell; 0 from the cut on
    intercept: np.ndarray  # P - slope x S at each cell's knot


@dataclass
class RingGrid:
    """n x n grid of rings; ring (i, j) carries matrix element w_ij on channel i.

    The grid owns its rings' physics beyond one device: their constants,
    their alignment, the drop tensor of a heater program and the heater
    solve of a program's summed drops. At construction it computes, in
    read-only arrays:
    - `constants` (`RingConstants`): each ring's lineshape on the resonance
      order it is aligned on, free of heater and fabrication detuning, so
      one evaluation serves the whole grid; the aligned heaters (checked
      against each heater's cap and ALIGNMENT_TOLERANCE_NM); the heater
      rate and cap and the fabrication detuning; and each ring's peak drop
      and parked floor relative to it, which bound the solve;
    - `order_spacing_nm`, each ring's spacing from its resonance order to
      the next (bluer) one: a channel blue of the zero-heater resonance is
      aligned on that order, and the LUT ring window wraps by it too;
    - `park_detuning_nm`, the red detuning of a parked ring: half the
      channel spacing, or an eighth of the FSR for a single channel.

    Built on first use and kept: `tiled(lead)`, the constants tiled to a
    stack's leading shape `lead`, and `summed_response`, each ring's summed
    drop and pedestal against its detuning. The rings must not be replaced
    or mutated afterwards.
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
        rate = get(lambda r: r.resonance_shift_per_mw)
        fab = get(lambda r: r.fabrication_detuning_nm)
        top = get(lambda r: r.max_power_mw)
        base = get(lambda r: r.resonance_wavelength_nm(0.0))  # zero-heater resonance
        channel = self.grid.array[:, None]  # each row's
        shape = AddDropLineshape.stack([[r.lineshape for r in row] for row in self.rings])
        next_order = shape.wavelength_at_phase(shape.resonance_phase + 2.0 * math.pi)
        self.order_spacing_nm = read_only((shape.resonance_wavelength - next_order)[:, :, 0])
        # A channel blue of a ring's resonance is reached on the next order:
        # one `order_spacing_nm` bluer, 2 pi more round-trip phase.
        wrapped = channel < base
        resonance = np.where(wrapped, base - self.order_spacing_nm, base)
        phase = shape.resonance_phase + 2.0 * math.pi * wrapped[:, :, None]
        shape = replace(shape, resonance_phase=read_only(phase))
        # The heater shift is linear, so the alignment inverts exactly.
        aligned = (channel - resonance) / rate
        out_of_range = np.argwhere(aligned > top)
        if out_of_range.size:
            i, j = out_of_range[0]
            raise InfeasibleError(
                f"ring ({i},{j}) cannot reach channel {self.grid.channels_nm[i]} nm "
                "within its heater range"
            )
        residual = np.abs(resonance + rate * aligned - channel)
        if np.any(residual > ALIGNMENT_TOLERANCE_NM):
            raise InfeasibleError(
                f"alignment residual {residual.max():.2e} nm exceeds tolerance"
            )
        peaks = read_only(shape.peak_drop[:, :, 0])
        # A parked ring's residual drop at its own channel: at zero heater
        # power, park_detuning_nm blue of its aligned order's resonance.
        parked = (resonance - self.park_detuning_nm - fab)[:, :, None]
        self.constants = RingConstants(
            lineshape=shape,
            solve=AddDropLineshape(*(getattr(shape, f.name)[..., 0] for f in fields(shape))),
            channels=tile_to(self.grid.array, (n, n, n)),
            aligned=read_only(aligned),
            shift_per_mw=rate,
            fab=fab,
            max_power_mw=top,
            peaks=peaks,
            floor_rel=read_only(shape.drop(parked)[:, :, 0] / peaks),
        )
        self._tiled: dict[tuple, RingConstants] = {}

    @property
    def n(self) -> int:
        return len(self.rings)

    def tiled(self, lead: tuple) -> RingConstants:
        """`constants` tiled to the stack shape lead + (n, n), a channel-resolved
        field to lead + (n, n, channels), as C-contiguous read-only arrays,
        so that a stack's ufuncs broadcast nothing and compute, bit for bit,
        what each of its matrices alone computes. Built on the first call
        with `lead` (the first program of that shape) and kept; its solve
        lineshape holds its inverse's wavelength-independent terms."""
        record = self._tiled.get(lead)
        if record is None:
            full = lead + (self.n, self.n)
            record = _mapped(self.constants, lambda a: tile_to(a, full + (len(self.grid),) * (a.ndim - 2)))
            for cached in ("resonance_wavelength", "half_fsr", "_two_pi_length", "_dispersion_per_lam0"):
                getattr(record.solve, cached)
            self._tiled[lead] = record
        return record

    @cached_property
    def summed_response(self) -> SummedResponse:
        """Each ring's summed drop and pedestal against its detuning
        (`SummedResponse`), built on first use (the first program) from one
        `drop_through_tensor` call on the ring selection. Backends that
        never program heaters (`lut`) never build it; on 9x9 it costs about
        as much as the rest of the construction. A ring whose summed drop
        falls over fewer than MIN_BRANCH_CELLS cells from its channel has
        no branch to program and raises InfeasibleError."""
        n, knots = self.n, RESPONSE_KNOTS
        rings = np.arange(n * n)
        detunings = np.linspace(0.0, self.park_detuning_nm, knots)
        c = self.constants
        heaters = c.aligned.ravel() + detunings[:, None] / c.shift_per_mw.ravel()
        drop = self.drop_through_tensor(heaters, rings)  # (knots, rings, channels)
        summed = drop.sum(axis=-1).T.reshape(n, n, knots)
        pedestal = summed - drop[:, rings, rings // n].T.reshape(n, n, knots)
        step = np.diff(summed, axis=-1)
        falling = step < 0.0
        # The cut knot: the first cell that does not fall starts there.
        cut = np.where(falling.all(axis=-1), knots - 1, falling.argmin(axis=-1))
        short = np.argwhere(cut < MIN_BRANCH_CELLS)
        if short.size:
            i, j = short[0]
            raise InfeasibleError(
                f"ring ({i},{j}): its channel-summed drop falls over {cut[i, j]} of "
                f"{knots - 1} detuning cells from its channel, fewer than {MIN_BRANCH_CELLS}"
            )
        cells = np.arange(knots)
        slope = np.zeros((n, n, knots))
        np.divide(np.diff(pedestal, axis=-1), step, out=slope[..., :-1], where=cells[:-1] < cut[..., None])
        first = rings.reshape(n, n) * knots
        keys = np.empty((n, n, knots), dtype=complex)
        keys.real = first[..., None]
        keys.imag = np.where(cells > cut[..., None], np.inf, -summed)
        return SummedResponse(
            keys=read_only(keys.ravel()),
            first=read_only(first),
            slope=read_only(slope),
            intercept=read_only(pedestal - slope * summed),
        )

    def heaters_for_summed_drops(self, drops: np.ndarray):
        """Heaters whose channel-summed drops reach `drops`, (n, n) or a stack
        (..., n, n), with each ring's summed drop at its own element; returns
        (heaters, clamped).

        A ring's drop on the other channels (its pedestal) depends on its
        own detuning alone, so each request is one equation in that
        detuning. The pedestal at the request is read from the ring's
        `summed_response` table, by linear interpolation on the cell the
        request falls in. What is left is the ring's own-channel drop,
        relative to its peak, clamped to its realizable [floor, 1] span
        (`clamped` marks where the clamp was active), and one inverse
        lineshape call on the stack's tiled constants solves it for every
        ring of every matrix. A ring is never detuned past park.
        """
        tiled = self.tiled(drops.shape[:-2])
        response = self.summed_response
        # The table cell whose knots bracket the request: the ring's knots
        # above it, less one. A request above knot 0 reads cell 0; one below
        # the cut reads the cut knot, whose slope is 0.
        query = np.multiply(drops, -1j)
        query += response.first
        cell = response.keys.searchsorted(query)
        cell -= 1
        np.maximum(cell, response.first, out=cell)
        # The pedestal at the request, linear in S over the cell, and the
        # own-channel drop left to program, relative to the ring's peak.
        request = response.slope.take(cell)
        request *= drops
        request += response.intercept.take(cell)
        np.subtract(drops, request, out=request)
        request /= tiled.peaks
        rel = np.maximum(request, tiled.floor_rel)
        np.minimum(rel, 1.0, out=rel)
        # Any ring solves the whole grid: the tiled lineshape carries every
        # ring's constants.
        det = self.rings[0][0].detuning_for_relative_drop(rel, tiled.solve)
        np.minimum(det, self.park_detuning_nm, out=det)
        clamped = request < tiled.floor_rel
        clamped |= request > 1.0
        return self.detuned_heaters(det), clamped

    def drop_through_tensor(self, heaters: np.ndarray, rings=None) -> np.ndarray:
        """T_drop of every ring on every channel, shape (..., n, n, channels)
        for heaters (..., n, n), as a new array, on the constants tiled to
        the stack (`tiled`). With `rings`, an integer array of flat ring
        indices i * n + j, only the rings it selects
        (`RingConstants.take`): heaters (...) hold one power per selected
        ring, broadcast against `rings`, and the result is (..., channels).
        Every heater must lie in [0, its ring's cap]. The through port,
        which no grid caller reads, is left to `RingDevice.drop_through`."""
        h = np.asarray(heaters, dtype=float)
        if rings is not None:
            c = self.constants.take(rings)
        elif h.shape[-2:] != (self.n, self.n):
            raise ShapeError(f"heater matrix must be {self.n}x{self.n}; got {h.shape}")
        else:
            c = self.tiled(h.shape[:-2])
        if not np.logical_and.reduce((0.0 <= h) & (h <= c.max_power_mw), axis=None):
            raise ValueError("ring heater power out of range")
        shift = c.shift_per_mw * h  # fab + rate * h
        shift += c.fab
        return c.lineshape.drop(np.subtract(c.channels, shift[..., None]))

    def aligned_heaters(self) -> np.ndarray:
        """Heater matrix putting every ring exactly on its row channel (a copy)."""
        return self.constants.aligned.copy()

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
