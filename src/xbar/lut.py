"""Calibration look-up tables: heater powers -> measured output power.

A LUT records the detected output power of one crossbar element while its
input MZI and its ring heater sweep a rectangular window, the way a
hardware-in-the-loop calibration would measure it: `build_lut` takes every
entry from the crossbar's own reading (`CrossbarArray.read`) of a
calibration program, so the LUTs share the array's one propagation model
and its ring alignment. Multiplications are then
performed by inverting the two axes on their rising branches and reading the
stored power by bilinear interpolation. An axis's rising branch is the
strictly increasing run of its response that ends at the response's maximum:
it starts after the last non-increase before the peak, so a falling run or a
neighbouring resonance inside the window is never inverted. The `lut`
backend calibrates one forward/backward pair per ring design, and each
direction reads its own LUT, normalized by that LUT's own full scale.

There is one read, in two halves, and one LUT is its one-design case. A
weight sets its ring's heater once, when the matrix is programmed:
`LutStack.set_rings` inverts the ring axis of every target into a
`RingSetting`. Each product then only drives the MZIs: `LutStack.multiply`
inverts the MZI axis of its inputs and reads the stored power against the
ring setting, for as many products as the program serves. A stack holds,
per direction, every design's rising branches and grid axes concatenated
in design order and their output grids stacked, so that the products of
all elements and a whole batch are one vectorised read. Each axis is
inverted with one exact search: complex keys design + 1j * level, which
numpy orders by design first, find every level among its own design's
knots; the grid cell to read follows from the knot found. The result is
bit-for-bit what np.interp on each branch followed by a bilinear lookup
after a search of each grid axis gives, on any grid whose knots lie more
than a few ulps apart.

Serialization: CSV (`mzi_mw,mrr_mw,power`) and a compact binary layout with
an 8-value float64 header [magic, version, n_mzi, n_mrr, mzi_min, mzi_max,
mrr_min, mrr_max] followed by the row-major float64 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .crossbar import FORWARD, CrossbarArray, _check_direction
from .errors import DataFormatError, InfeasibleError, ShapeError

LUT_MAGIC = float(0x4C555431)  # 'LUT1'
LUT_VERSION = 1.0

# Fig.-7(a)-style calibration windows: the MZI sweeps most of one rising
# fringe; the ring approaches its aligned resonance from 0.65 nm below.
DEFAULT_MZI_WINDOW_MW = (3.3, 19.7)
LUT_RING_WINDOW_NM = 0.65


@dataclass(frozen=True)
class CalibrationLUT:
    """Dense (MZI power, MRR power) -> output power grid for one element."""

    mzi_powers_mw: np.ndarray
    mrr_powers_mw: np.ndarray
    output_power: np.ndarray  # shape (n_mzi, n_mrr)

    def __post_init__(self):
        mzi = np.asarray(self.mzi_powers_mw, dtype=float)
        mrr = np.asarray(self.mrr_powers_mw, dtype=float)
        out = np.asarray(self.output_power, dtype=float)
        if mzi.ndim != 1 or mrr.ndim != 1 or len(mzi) < 2 or len(mrr) < 2:
            raise ValueError("LUT axes must be 1-D with at least two points")
        # Written so that a NaN fails each check.
        if not ((np.diff(mzi) > 0).all() and (np.diff(mrr) > 0).all()):
            raise ValueError("LUT axes must be strictly increasing")
        if out.shape != (len(mzi), len(mrr)):
            raise ShapeError(f"output grid must be {(len(mzi), len(mrr))}; got {out.shape}")
        if not (out >= 0).all():
            raise ValueError("output powers must be non-negative")
        object.__setattr__(self, "mzi_powers_mw", mzi)
        object.__setattr__(self, "mrr_powers_mw", mrr)
        object.__setattr__(self, "output_power", out)

    def rising_branches(self):
        """((mzi powers, response), (mrr powers, response), full scale).

        The MZI branch is the output column at the ring setting that
        maximizes power; the ring branch is the row at the MZI setting that
        maximizes power. Responses are normalized by the full scale (that
        maximum) and cut to their rising branch (see `_rising_branch`).
        """
        i_pk, j_pk = np.unravel_index(int(np.argmax(self.output_power)), self.output_power.shape)
        full = self.output_power[i_pk, j_pk]
        return (
            _rising_branch(self.mzi_powers_mw, self.output_power[:, j_pk] / full),
            _rising_branch(self.mrr_powers_mw, self.output_power[i_pk, :] / full),
            full,
        )


def _rising_branch(powers: np.ndarray, response: np.ndarray):
    """(powers, response) on the rising branch: the strictly increasing run
    that ends at the response's maximum, starting after the last
    non-increase before it."""
    stop = int(np.argmax(response)) + 1
    falls = np.flatnonzero(np.diff(response[:stop]) <= 0)
    start = int(falls[-1]) + 1 if falls.size else 0
    return powers[start:stop], response[start:stop]


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
    rows of one table, gathered in one `take`.
    """

    def __init__(self, branches, grids, design: np.ndarray):
        self.design = design
        self.lo = np.array([r[0] for _, r in branches])[design]
        self.hi = np.array([r[-1] for _, r in branches])[design]
        power = np.concatenate([p for p, _ in branches])
        response = np.concatenate([r for _, r in branches])
        # A design's last knot gets slope 0: a value clamped to the branch
        # end then reads the end's power, as np.interp does.
        slope = np.concatenate([np.append(np.diff(p) / np.diff(r), 0.0) for p, r in branches])
        self.knots = _keys(np.repeat(np.arange(len(branches)), [len(r) for _, r in branches]), response)
        steps = len(grids[0])
        grid = np.concatenate(grids)
        cells, tops = [], []
        for d, ((powers, _), g) in enumerate(zip(branches, grids)):
            # Branch powers are grid knots, so the segment that starts at a
            # branch knot covers the grid cell that starts there. A power on
            # the grid's last knot reads the last cell at fraction 1, which
            # is where a search of the grid puts it.
            cell = np.minimum(np.searchsorted(g, powers), steps - 2)
            cells.append(d * steps + cell)
            # np.interp can overshoot a segment's end by an ulp or so (never
            # past the next knot on a grid whose knots are further apart);
            # a power beyond the cell's top moves on to the next cell, if any.
            tops.append(np.where(cell < steps - 2, g[np.minimum(cell + 1, steps - 1)], np.inf))
        # Per branch segment: its start knot's response, slope and power, and
        # the top of its grid cell; indexed by a search's insertion point, one
        # past the knot below the level, so column 0 is never read.
        self.segment = np.zeros((4, len(response) + 1))
        self.segment[:, 1:] = [response, slope, power, np.concatenate(tops)]
        self.cell = np.concatenate([[0], *cells])
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

    Holds, per heater axis, every design's rising branch and grid axis
    concatenated in design order (no padding), and the designs' output
    grids stacked to (designs, n_mzi, n_mrr). All LUTs must share one grid
    shape. `design` gives the LUT each element reads (integers that
    broadcast against the read's targets); one LUT is the 1-design case.
    """

    def __init__(self, luts, design=0):
        luts = list(luts)
        shape = luts[0].output_power.shape
        if any(lut.output_power.shape != shape for lut in luts):
            raise ShapeError("stacked LUTs must share one grid shape")
        design = np.asarray(design)
        branches = [lut.rising_branches() for lut in luts]
        self._mzi = _StackedAxis([b[0] for b in branches], [lut.mzi_powers_mw for lut in luts], design)
        self._mrr = _StackedAxis([b[1] for b in branches], [lut.mrr_powers_mw for lut in luts], design)
        # The stacked (designs, n_mzi, n_mrr) output grid, flat, and its views
        # from knots (1, 0), (0, 1) and (1, 1): element k of each is a corner
        # of the cell that starts at flat knot k.
        nr = shape[1]
        z = np.concatenate([lut.output_power.ravel() for lut in luts])
        self._corners = (z, z[nr:], z[1:], z[nr + 1 :])
        self._full = np.array([b[2] for b in branches])[design]
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


def build_lut(
    array: CrossbarArray,
    row: int,
    col: int,
    steps: int = 64,
    direction: str = FORWARD,
) -> CalibrationLUT:
    """Simulated calibration sweep for element (row, col) of a crossbar.

    The crossbar's own reading (`CrossbarArray.read`) of one calibration
    program per setting, taken at output port `col` going forward and at
    port `row` going backward. The element's input MZI sweeps
    DEFAULT_MZI_WINDOW_MW while its ring approaches its aligned resonance
    from LUT_RING_WINDOW_NM below; all other MZIs sit at their extinction
    floor and all other rings are parked, as in the dark program.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2 per axis")
    _check_direction(direction)
    n = array.n
    if not (0 <= row < n and 0 <= col < n):
        raise ShapeError(f"element ({row},{col}) outside a {n}x{n} crossbar")
    grid = array.ring_grid
    ring = grid.rings[row][col]
    p_align = grid.aligned_heaters()[row, col]
    span = LUT_RING_WINDOW_NM / ring.resonance_shift_per_mw
    if p_align < span:
        # The window would run below zero power: approach the next
        # resonance order instead, one order spacing of heater power higher.
        p_align += grid.order_spacing_nm[row, col] / ring.resonance_shift_per_mw
        if p_align > ring.shifter.max_power_mw:
            raise InfeasibleError(
                f"element ({row},{col}): the LUT ring window needs {p_align:.4g} mW, "
                f"beyond the heater range of {ring.shifter.max_power_mw} mW"
            )
    mzi_powers = np.linspace(DEFAULT_MZI_WINDOW_MW[0], DEFAULT_MZI_WINDOW_MW[1], steps)
    mrr_powers = np.linspace(p_align - span, p_align, steps)

    # One calibration program per ring setting: the dark program's summed
    # drop, with this element's ring swept over the window.
    program = np.repeat(array.dark_summed_drop[None], steps, axis=0)
    drop, _ = ring.drop_through(grid.grid.array[None, :], mrr_powers[:, None])
    program[:, row, col] = drop.sum(axis=1)
    # Input ports at the extinction floor (one MZI design on every port),
    # but the element's own, which sweeps the MZI window.
    t = np.full((steps, n), array.mzi_floor)
    driven, port = (row, col) if direction == FORWARD else (col, row)
    t[:, driven] = array.mzi.transmittance(mzi_powers)
    # (ring setting, MZI setting, port) -> (MZI setting, ring setting), copied
    # so that the LUT does not hold every port's reading.
    output = array.read(t, program, direction)[:, :, port].T.copy()
    return CalibrationLUT(
        mzi_powers_mw=mzi_powers,
        mrr_powers_mw=mrr_powers,
        output_power=output,
    )


# -- serialization -------------------------------------------------------------


def lut_to_csv(lut: CalibrationLUT, path) -> None:
    """Long-format CSV: mzi_mw,mrr_mw,power."""
    with open(path, "w") as fh:
        fh.write("mzi_mw,mrr_mw,power\n")
        for i, pm in enumerate(lut.mzi_powers_mw):
            for j, pr in enumerate(lut.mrr_powers_mw):
                fh.write(
                    f"{format(pm, '.17g')},{format(pr, '.17g')},"
                    f"{format(lut.output_power[i, j], '.17g')}\n"
                )


def lut_from_csv(path) -> CalibrationLUT:
    values = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "mzi_mw,mrr_mw,power":
            raise DataFormatError(f"{path}: unexpected LUT CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 columns")
            try:
                values.append([float(v) for v in parts])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric field") from None
    if not values:
        raise DataFormatError(f"{path}: no LUT data rows")
    mzi, mrr, power = np.reshape(values, (-1, 3)).T
    mzi_axis, mrr_axis = np.unique(mzi), np.unique(mrr)
    grid = [(a, b) for a in mzi_axis.tolist() for b in mrr_axis.tolist()]
    for k, (row, point) in enumerate(zip_longest(zip(mzi, mrr), grid)):
        if row != point:
            want = f"mzi {point[0]:.17g}, mrr {point[1]:.17g}" if point else "the end"
            raise DataFormatError(f"{path}:{k + 2}: expected {want} (row-major grid of LUT points)")
    return _checked_lut(path, mzi_axis, mrr_axis, power.reshape(len(mzi_axis), len(mrr_axis)))


def lut_to_binary(lut: CalibrationLUT, path) -> None:
    header = np.array(
        [
            LUT_MAGIC,
            LUT_VERSION,
            float(len(lut.mzi_powers_mw)),
            float(len(lut.mrr_powers_mw)),
            lut.mzi_powers_mw[0],
            lut.mzi_powers_mw[-1],
            lut.mrr_powers_mw[0],
            lut.mrr_powers_mw[-1],
        ],
        dtype="<f8",
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(lut.output_power.astype("<f8").tobytes())


def lut_from_binary(path) -> CalibrationLUT:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 64:
        raise DataFormatError(f"{path}: truncated LUT header")
    header = np.frombuffer(raw[:64], dtype="<f8")
    if header[0] != LUT_MAGIC:
        raise DataFormatError(f"{path}: bad LUT magic {header[0]!r}")
    if header[1] != LUT_VERSION:
        raise DataFormatError(f"{path}: unsupported LUT version {header[1]}")
    counts = [float(c) for c in header[2:4]]
    # NaN and infinite counts fail too.
    if not all(c >= 2 and c % 1 == 0 for c in counts):
        raise DataFormatError(f"{path}: grid counts must be integers >= 2, got {counts}")
    n_mzi, n_mrr = map(int, counts)
    expected = 64 + 8 * n_mzi * n_mrr
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    grid = np.frombuffer(raw[64:], dtype="<f8").reshape(n_mzi, n_mrr)
    return _checked_lut(
        path,
        np.linspace(header[4], header[5], n_mzi),
        np.linspace(header[6], header[7], n_mrr),
        grid.copy(),
    )


def _checked_lut(path, *fields) -> CalibrationLUT:
    """The CalibrationLUT read from `path`; a table it rejects is a
    DataFormatError that names the file."""
    try:
        return CalibrationLUT(*fields)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
