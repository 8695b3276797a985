"""Calibration look-up tables: heater powers -> measured output power.

A LUT records the detected output power of one crossbar element while its
input MZI and its ring heater sweep a rectangular window, the way a
hardware-in-the-loop calibration would measure it. The `lut` backend
calibrates one forward/backward pair per ring design in one calibration
sweep over every design (`build_lut`): every swept ring's lineshape is
evaluated once, in one call, and each ring setting is read at two ports of
its element, the forward and the backward output, through the crossbar's one
reading (`CrossbarArray.read`), so the LUTs share the array's propagation
model and its ring alignment. The sweep returns, per direction, the designs'
LUTs as one `CalibrationLUT` stack with a leading design axis, the only form
a LUT takes; one LUT is a 1-design stack. Each direction reads its own LUT,
normalized by that LUT's own full scale.

Multiplications invert the two axes on their rising branches and read the
stored power by bilinear interpolation. An axis's rising branch is the
strictly increasing run of its response that ends at the response's maximum:
it starts after the last non-increase before the peak, so a falling run or a
neighbouring resonance inside the window is never inverted. Every design's
branches are found in one pass over the stacked grids.

There is one read, in two halves. A weight sets its ring's heater once, when
the matrix is programmed: `LutStack.set_rings` inverts the ring axis of
every target into a `RingSetting`. Each product then only drives the MZIs:
`LutStack.multiply` inverts the MZI axis of its inputs and reads the stored
power against the ring setting, for as many products as the program serves.
A stack holds, per direction, every design's rising branches and grid axes
concatenated in design order, and the stacked output grid once, so that the
products of all elements and a whole batch are one vectorised read. Each
axis is inverted with one exact search: complex keys design + 1j * level,
which numpy orders by design first, find every level among its own design's
knots; the grid cell to read follows from the knot found. The result is
bit-for-bit what np.interp on each branch followed by a bilinear lookup
after a search of each grid axis gives, on any grid whose knots lie more
than a few ulps apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import BACKWARD, FORWARD, CrossbarArray
from .errors import InfeasibleError, ShapeError

# Fig.-7(a)-style calibration windows: the MZI sweeps most of one rising
# fringe; the ring approaches its aligned resonance from 0.65 nm below.
DEFAULT_MZI_WINDOW_MW = (3.3, 19.7)
LUT_RING_WINDOW_NM = 0.65
LUT_STEPS = 64  # settings per heater axis


@dataclass(frozen=True)
class CalibrationLUT:
    """Dense (MZI power, MRR power) -> output power grids of a stack of
    elements, one per design along a leading design axis."""

    mzi_powers_mw: np.ndarray  # (designs, n_mzi)
    mrr_powers_mw: np.ndarray  # (designs, n_mrr)
    output_power: np.ndarray  # (designs, n_mzi, n_mrr)

    def __post_init__(self):
        mzi = np.asarray(self.mzi_powers_mw, dtype=float)
        mrr = np.asarray(self.mrr_powers_mw, dtype=float)
        out = np.asarray(self.output_power, dtype=float)
        if mzi.ndim != 2 or mrr.shape[:-1] != mzi.shape[:-1] or min(mzi.shape[-1], mrr.shape[-1]) < 2:
            raise ValueError("LUT axes must be one row per design, with at least two points")
        # Written so that a NaN fails each check.
        if not ((np.diff(mzi) > 0).all() and (np.diff(mrr) > 0).all()):
            raise ValueError("LUT axes must be strictly increasing")
        want = (*mzi.shape, mrr.shape[-1])
        if out.shape != want:
            raise ShapeError(f"output grid must be {want}; got {out.shape}")
        if not (out >= 0).all():
            raise ValueError("output powers must be non-negative")
        object.__setattr__(self, "mzi_powers_mw", mzi)
        object.__setattr__(self, "mrr_powers_mw", mrr)
        object.__setattr__(self, "output_power", out)


def _rising_branches(output: np.ndarray):
    """(full scale, per axis (response, start, stop)) of every design of the
    LUT stack `output` (designs, n_mzi, n_mrr), without a loop over designs.

    The full scale is the design's maximum. The MZI response is the output
    column at the ring setting that maximizes power; the ring response is
    the row at the MZI setting that maximizes power; both are normalized by
    the full scale. Each axis's rising branch is knots [start, stop) of its
    response: the strictly increasing run that ends at the response's first
    maximum, starting after the last non-increase before it.
    """
    designs, _, n_mrr = output.shape
    d = np.arange(designs)
    i_pk, j_pk = np.divmod(output.reshape(designs, -1).argmax(axis=1), n_mrr)
    full = output[d, i_pk, j_pk]
    branches = []
    for response in (output[d, :, j_pk], output[d, i_pk, :]):
        response /= full[:, None]
        stop = response.argmax(axis=1) + 1
        # Knot q + 1 of every non-increase from knot q to q + 1 before the peak.
        after = np.arange(1, response.shape[1])
        falls = (np.diff(response) <= 0) & (after < stop[:, None])
        branches.append((response, np.where(falls, after, 0).max(axis=1), stop))
    return full, branches


def _keys(design, values) -> np.ndarray:
    """Exact complex search keys design + 1j * values (values' shape holds design's).

    numpy orders complex numbers by real part, then imaginary part, and a
    design index is an exact integer, so a search among keys sorted by
    (design, value) finds each value inside its own design's knots.
    """
    keys = np.empty(values.shape, dtype=complex)
    keys.real = design
    keys.imag = values
    return keys


class _StackedAxis:
    """One heater axis of a LUT stack, every design's knots concatenated.

    For the inversion: each design's rising branch (response -> power) with
    its per-segment slopes, computed as np.interp computes them, searched by
    complex keys (see `_keys`). For the bilinear read: each design's grid
    axis, and for every branch knot the grid cell that the segment starting
    there covers. The per-design bounds a read needs are gathered once, at
    the elements' designs. What a read gathers at one index is held as the
    rows of one table, gathered in one `take`. Built from the stacked grids
    (designs, steps) and responses, and each design's branch [start, stop)
    (`_rising_branches`), with no loop over designs.
    """

    def __init__(self, grid, response, start, stop, design: np.ndarray):
        designs, steps = grid.shape
        length = stop - start
        ends = np.cumsum(length)
        # Per branch knot: its design and its index on that design's grid.
        owner = np.repeat(np.arange(designs), length)
        knot = np.arange(ends[-1]) + np.repeat(start - (ends - length), length)
        grid = grid.reshape(-1)
        flat = owner * steps + knot
        power, response = grid[flat], response.reshape(-1)[flat]
        self.design = design
        self.lo = response[ends - length][design]
        self.hi = response[ends - 1][design]
        # A design's last knot gets slope 0: a value clamped to the branch
        # end then reads the end's power, as np.interp does.
        last = np.zeros(len(flat), dtype=bool)
        last[ends - 1] = True
        q = np.flatnonzero(~last)
        slope = np.zeros(len(flat))
        slope[q] = (power[q + 1] - power[q]) / (response[q + 1] - response[q])
        self.knots = _keys(owner, response)
        # Branch powers are grid knots, so the segment that starts at a branch
        # knot covers the grid cell that starts there. A power on the grid's
        # last knot reads the last cell at fraction 1, which is where a search
        # of the grid puts it. np.interp can overshoot a segment's end by an
        # ulp or so (never past the next knot on a grid whose knots are
        # further apart); a power beyond the cell's top moves on to the next
        # cell, if any.
        top = np.where(knot < steps - 2, grid.take(flat + 1, mode="clip"), np.inf)
        # Per branch segment: its start knot's response, slope and power, and
        # the top of its grid cell; indexed by a search's insertion point, one
        # past the knot below the level, so column 0 is never read.
        self.segment = np.zeros((4, len(flat) + 1))
        self.segment[:, 1:] = [response, slope, power, top]
        self.cell = np.concatenate([[0], owner * steps + np.minimum(knot, steps - 2)])
        # Cell i: its lower grid knot and its width (read only inside a design).
        self.cells = np.stack([grid[:-1], np.diff(grid)])

    def read(self, v):
        """(i, f, clamped) for relative levels v on each element's branch.

        The heater power is np.interp(v, response, power) on the branch; i
        is the flat index of the grid knot below it and f the fraction of
        the way to the next knot, clipped to 1, as a search of the grid
        would give them (a power on an interior grid knot may read the cell
        above it at fraction 0 where a search reads the one below at
        fraction 1: both give the same bits). v outside the branch is
        clamped to its ends and flagged.
        """
        vc = np.minimum(np.maximum(v, self.lo), self.hi)
        clamped = vc != v
        j = self.knots.searchsorted(_keys(self.design, vc), side="right")
        r, slope, power, top = self.segment.take(j, axis=1)
        p = vc - r  # slope (v - r) + power, in place
        p *= slope
        p += power
        i = self.cell.take(j) + (top < p)
        knot, width = self.cells.take(i, axis=1)
        f = (p - knot) / width
        return i, np.minimum(f, 1.0), clamped


@dataclass(frozen=True)
class RingSetting:
    """The ring half of a LUT read: targets set on the rings, once per program.

    Per element: `index`, the grid knot below the ring's heater power as a
    flat index into its design's block of the stacked output grid (the
    design's offset folded in, so that adding ix * n_mrr gives knot (ix,
    iy)); `fy`, the fraction of the way to the next knot, and `gy` = 1 - fy;
    and `clamped`, whether the target lay outside the ring's rising branch.
    Indexing slices every field alike, so the setting of a stack of matrices
    slices with them.
    """

    index: np.ndarray
    fy: np.ndarray
    gy: np.ndarray
    clamped: np.ndarray

    def __getitem__(self, key) -> "RingSetting":
        return RingSetting(self.index[key], self.fy[key], self.gy[key], self.clamped[key])


class LutStack:
    """Calibration LUTs of several ring designs, stacked for one vectorised read.

    `luts` is a CalibrationLUT stack. Holds, per heater axis, every design's
    rising branch and grid axis concatenated in design order (no padding),
    and the stack's (designs, n_mzi, n_mrr) output grid. `design` gives the
    LUT each element reads (integers that broadcast against the read's
    targets).
    """

    def __init__(self, luts: CalibrationLUT, design):
        z = luts.output_power
        design = np.asarray(design)
        full, (mzi, mrr) = _rising_branches(z)
        self._mzi = _StackedAxis(luts.mzi_powers_mw, *mzi, design)
        self._mrr = _StackedAxis(luts.mrr_powers_mw, *mrr, design)
        # The stacked output grid, flat, and its views from knots (1, 0),
        # (0, 1) and (1, 1): element k of each is a corner of the cell that
        # starts at flat knot k.
        nr = z.shape[2]
        z = z.reshape(-1)
        self._corners = (z, z[nr:], z[1:], z[nr + 1 :])
        self._full = full[design]
        self._n_mrr = nr
        self._design_offset = design * nr

    def set_rings(self, w) -> RingSetting:
        """Every element's ring set to its target `w`: the ring axis
        inverted on its design's rising branch, for any number of reads."""
        iy, fy, clamped = self._mrr.read(np.asarray(w, dtype=float))
        return RingSetting(iy - self._design_offset, fy, 1 - fy, clamped)

    def multiply(self, x, rings: RingSetting):
        """(values, clamped) of the products x * w at every element, for the
        targets w that `rings` holds; x broadcasts against them.

        The MZI axis is inverted on its design's rising branch, the output
        power is read by bilinear interpolation in the design's grid and
        divided by the design's full scale.
        """
        ix, fx, x_clamped = self._mzi.read(x)
        # Flat index of knot (ix, iy) in the stacked (designs, n_mzi, n_mrr) grid.
        k = ix * self._n_mrr + rings.index
        val, z10, z01, z11 = [z.take(k) for z in self._corners]
        gx, fy, gy = 1 - fx, rings.fy, rings.gy
        # z00 gx gy + z10 fx gy + z01 gx fy + z11 fx fy, left to right, in place.
        val *= gx
        val *= gy
        for term, a, b in ((z10, fx, gy), (z01, gx, fy), (z11, fx, fy)):
            term *= a
            term *= b
            val += term
        val /= self._full
        return val, x_clamped | rings.clamped


def lut_multiply_many(stack: LutStack, x_targets, rings: RingSetting):
    """Vectorized LUT products x * w; broadcasts x against the targets w that
    `rings` holds (`stack.set_rings(w)`). Returns (values, clamped).

    Targets outside a rising branch's span are clamped to its ends and
    flagged.
    """
    return stack.multiply(np.asarray(x_targets, dtype=float), rings)


def build_lut(array: CrossbarArray, rows: np.ndarray, cols: np.ndarray) -> dict[str, CalibrationLUT]:
    """Simulated calibration sweep of every element (rows[k], cols[k]) of a
    crossbar, for 1-D index arrays `rows` and `cols`. Returns {FORWARD:
    stack, BACKWARD: stack}: per direction, the elements' LUTs in index order
    along the stack's design axis.

    One sweep serves both directions. Each element's input MZI sweeps
    DEFAULT_MZI_WINDOW_MW while its ring approaches its aligned resonance
    from LUT_RING_WINDOW_NM below, in LUT_STEPS settings each; all other
    MZIs sit at their extinction floor and all other rings are parked, as
    in the dark program. Each entry is the crossbar's own reading
    (`CrossbarArray.read`) of one calibration program per setting, taken at
    the element's own output port: its column going forward, its row going
    backward. Every swept ring's lineshape is evaluated in one call, for
    both directions, and each direction reads every element in one product,
    with no loop over elements.
    """
    n = array.n
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ShapeError(
            f"element indices must be 1-D arrays of one length; got {rows.shape} and {cols.shape}"
        )
    outside = ~((0 <= rows) & (rows < n) & (0 <= cols) & (cols < n))
    if outside.any():
        e = int(np.argmax(outside))
        raise ShapeError(f"element ({rows[e]},{cols[e]}) outside a {n}x{n} crossbar")
    grid = array.ring_grid
    ring = rows * n + cols  # flat ring index
    rate = grid.constants.shift_per_mw.take(ring)
    span = LUT_RING_WINDOW_NM / rate
    p_align = grid.aligned_heaters().take(ring)
    # A window that would run below zero power approaches the next resonance
    # order instead, one order spacing of heater power higher.
    p_align = np.where(p_align < span, p_align + grid.order_spacing_nm.take(ring) / rate, p_align)
    top = grid.constants.max_power_mw.take(ring)
    beyond = p_align > top
    if beyond.any():
        e = int(np.argmax(beyond))
        raise InfeasibleError(
            f"element ({rows[e]},{cols[e]}): the LUT ring window needs {p_align[e]:.4g} mW, "
            f"beyond the heater range of {top[e]} mW"
        )
    mzi_powers = np.linspace(DEFAULT_MZI_WINDOW_MW[0], DEFAULT_MZI_WINDOW_MW[1], LUT_STEPS)
    mrr_powers = np.linspace(p_align - span, p_align, LUT_STEPS).T  # (elements, steps)
    swept = array.mzi.transmittance(mzi_powers)
    mzi_powers = np.broadcast_to(mzi_powers, mrr_powers.shape)

    # One calibration program per ring setting: the dark program's summed
    # drop with the element's ring swept over the window. Only the element's
    # own port is read, so a program is the line of drops on that port,
    # where the element's ring sits at index `driven`.
    element = np.arange(len(rows))
    drop = grid.drop_through_tensor(mrr_powers, ring[:, None]).sum(axis=-1)
    dark = array.dark_summed_drop
    luts = {}
    for direction, driven, port in ((FORWARD, rows, cols), (BACKWARD, cols, rows)):
        lines = np.repeat((dark.T if direction == FORWARD else dark)[port][:, None], LUT_STEPS, axis=1)
        lines[element, :, driven] = drop
        # Input ports at the extinction floor (one MZI design on every
        # port), but the element's own, which sweeps the MZI window.
        t = np.full((len(rows), LUT_STEPS, n), array.mzi_floor)
        t[element, :, driven] = swept
        # (element, MZI setting, ring setting)
        output = array.read(t, lines, direction, port=port[:, None])
        luts[direction] = CalibrationLUT(mzi_powers, mrr_powers, output)
    return luts
