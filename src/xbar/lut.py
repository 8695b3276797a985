"""Calibration look-up tables: heater powers -> measured output power.

A LUT records the detected output power of one crossbar element while its
input MZI and its ring heater sweep a rectangular window, the way a
hardware-in-the-loop calibration would measure it. Multiplications are then
performed by inverting the two axes on their rising branches and reading the
stored power by bilinear interpolation. An axis's rising branch is the
strictly increasing run of its response that ends at the response's maximum:
it starts after the last non-increase before the peak, so a falling run or a
neighbouring resonance inside the window is never inverted. The `lut`
backend calibrates one forward/backward pair per ring design. The pair may
differ when per-port losses are unbalanced; a constant additive bias in
normalized power, applied in the direction `compensate_asymmetry` names,
compensates.

Serialization: CSV (`mzi_mw,mrr_mw,power`) and a compact binary layout with
an 8-value float64 header [magic, version, n_mzi, n_mrr, mzi_min, mzi_max,
mrr_min, mrr_max] followed by the row-major float64 grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .crossbar import BACKWARD, FORWARD, CrossbarArray, _check_direction
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
    direction: str = FORWARD

    def __post_init__(self):
        mzi = np.asarray(self.mzi_powers_mw, dtype=float)
        mrr = np.asarray(self.mrr_powers_mw, dtype=float)
        out = np.asarray(self.output_power, dtype=float)
        if mzi.ndim != 1 or mrr.ndim != 1 or len(mzi) < 2 or len(mrr) < 2:
            raise ValueError("LUT axes must be 1-D with at least two points")
        if np.any(np.diff(mzi) <= 0) or np.any(np.diff(mrr) <= 0):
            raise ValueError("LUT axes must be strictly increasing")
        if out.shape != (len(mzi), len(mrr)):
            raise ShapeError(f"output grid must be {(len(mzi), len(mrr))}; got {out.shape}")
        if np.any(out < 0):
            raise ValueError("output powers must be non-negative")
        object.__setattr__(self, "mzi_powers_mw", mzi)
        object.__setattr__(self, "mrr_powers_mw", mrr)
        object.__setattr__(self, "output_power", out)
        _check_direction(self.direction)

    # -- raw reads ------------------------------------------------------------

    def lookup(self, mzi_mw, mrr_mw):
        """Bilinear interpolation of the output power at arbitrary settings."""
        x = np.asarray(mzi_mw, dtype=float)
        y = np.asarray(mrr_mw, dtype=float)
        gx, gy, z = self.mzi_powers_mw, self.mrr_powers_mw, self.output_power
        ix = np.clip(np.searchsorted(gx, x) - 1, 0, len(gx) - 2)
        iy = np.clip(np.searchsorted(gy, y) - 1, 0, len(gy) - 2)
        fx = np.clip((x - gx[ix]) / (gx[ix + 1] - gx[ix]), 0.0, 1.0)
        fy = np.clip((y - gy[iy]) / (gy[iy + 1] - gy[iy]), 0.0, 1.0)
        z00 = z[ix, iy]
        z10 = z[ix + 1, iy]
        z01 = z[ix, iy + 1]
        z11 = z[ix + 1, iy + 1]
        val = (
            z00 * (1 - fx) * (1 - fy)
            + z10 * fx * (1 - fy)
            + z01 * (1 - fx) * fy
            + z11 * fx * fy
        )
        return val if val.ndim else float(val)

    # -- monotone-branch inversion ---------------------------------------------

    def _branches(self):
        """Rising-branch responses along each axis, normalized to [~0, 1].

        MZI branch: the output column at the ring setting that maximizes
        power. Ring branch: the row at the MZI setting that maximizes power.
        Each is cut to its rising branch (see `_rising_branch`).
        """
        cached = getattr(self, "_branch_cache", None)
        if cached is not None:
            return cached
        i_pk, j_pk = np.unravel_index(int(np.argmax(self.output_power)), self.output_power.shape)
        full = self.output_power[i_pk, j_pk]
        result = (
            *_rising_branch(self.mzi_powers_mw, self.output_power[:, j_pk] / full),
            *_rising_branch(self.mrr_powers_mw, self.output_power[i_pk, :] / full),
            full,
        )
        object.__setattr__(self, "_branch_cache", result)
        return result

    def invert(self, x_targets, w_targets):
        """Heater powers realizing relative levels (x, w) on the rising branches.

        Returns (mzi_mw, mrr_mw, clamped): targets outside the realizable
        span are clamped to the branch ends and flagged.
        """
        mzi_p, mzi_r, mrr_p, mrr_r, _ = self._branches()
        x = np.asarray(x_targets, dtype=float)
        w = np.asarray(w_targets, dtype=float)
        clamped = (
            (x < mzi_r[0]) | (x > mzi_r[-1]) | (w < mrr_r[0]) | (w > mrr_r[-1])
        )
        px = np.interp(x, mzi_r, mzi_p)
        pw = np.interp(w, mrr_r, mrr_p)
        return px, pw, clamped


def _rising_branch(powers: np.ndarray, response: np.ndarray):
    """(powers, response) on the rising branch: the strictly increasing run
    that ends at the response's maximum, starting after the last
    non-increase before it."""
    stop = int(np.argmax(response)) + 1
    falls = np.flatnonzero(np.diff(response[:stop]) <= 0)
    start = int(falls[-1]) + 1 if falls.size else 0
    return powers[start:stop], response[start:stop]


def lut_multiply_many(lut: CalibrationLUT, x_targets, w_targets):
    """Vectorized LUT products; broadcasts x against w. Returns (values, clamped)."""
    x = np.asarray(x_targets, dtype=float)
    w = np.asarray(w_targets, dtype=float)
    x, w = np.broadcast_arrays(x, w)
    px, pw, clamped = lut.invert(x, w)
    *_, full = lut._branches()
    values = np.asarray(lut.lookup(px, pw)) / full
    return values, clamped


def build_lut(
    array: CrossbarArray,
    row: int,
    col: int,
    steps: int = 64,
    direction: str = FORWARD,
) -> CalibrationLUT:
    """Simulated calibration sweep for element (row, col) of a crossbar.

    The element's input MZI sweeps DEFAULT_MZI_WINDOW_MW while its ring
    approaches its aligned resonance from LUT_RING_WINDOW_NM below; all
    other MZIs sit at their extinction floor and all other rings are parked.
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
        # resonance order instead, one FSR of heater power higher.
        p_align += ring.fsr_nm() / ring.resonance_shift_per_mw
        if p_align > ring.shifter.max_power_mw:
            raise InfeasibleError(
                f"element ({row},{col}): the LUT ring window needs {p_align:.4g} mW, "
                f"beyond the heater range of {ring.shifter.max_power_mw} mW"
            )
    mzi_powers = np.linspace(DEFAULT_MZI_WINDOW_MW[0], DEFAULT_MZI_WINDOW_MW[1], steps)
    mrr_powers = np.linspace(p_align - span, p_align, steps)

    # Input port: the driven MZI for this element's bus in this direction.
    port = row if direction == FORWARD else col
    bank = array.forward_mzis if direction == FORWARD else array.backward_mzis
    mzi = bank[port]
    t_mzi = np.asarray(mzi.transmittance(mzi_powers))

    heaters = grid.parked_heaters()
    u_all = array.topology.path_transmission(direction)
    u = u_all[row, col]
    b = array.bus_budget
    # Element response summed over channels at each ring setting.
    g = np.empty(steps)
    for k, p in enumerate(mrr_powers):
        h = heaters.copy()
        h[row, col] = p
        drop, _ = grid.drop_through_tensor(h)
        g[k] = drop[row, col, :].sum()
    # Pedestal from the other (parked) rings on this bus, fed by the dark MZIs.
    drop_dark, _ = grid.drop_through_tensor(heaters)
    floor_t = array.input_transmittances(np.zeros(n), direction)
    if direction == FORWARD:
        # output col: sum over input rows i of floor_i * G[i, col] (i != row)
        others = sum(
            floor_t[i] * drop_dark[i, col, :].sum() * u_all[i, col] * b
            for i in range(n)
            if i != row
        )
    else:
        others = sum(
            floor_t[j] * drop_dark[row, j, :].sum() * u_all[row, j] * b
            for j in range(n)
            if j != col
        )
    output = np.outer(t_mzi, g) * (b * u) + others
    return CalibrationLUT(
        mzi_powers_mw=mzi_powers,
        mrr_powers_mw=mrr_powers,
        output_power=output,
        direction=direction,
    )


@dataclass(frozen=True)
class AsymmetryBias:
    """Constant additive bias (normalized power) applied to the weaker port."""

    bias: float
    apply_to: str  # direction whose readings receive the bias


def compensate_asymmetry(forward_lut: CalibrationLUT, backward_lut: CalibrationLUT) -> AsymmetryBias:
    """Least-squares constant bias between forward and backward LUTs.

    Both LUTs are normalized by the same (forward) full scale; the bias is
    the mean discrepancy and is assigned to the direction with lower power.
    """
    if (
        forward_lut.output_power.shape != backward_lut.output_power.shape
        or not np.allclose(forward_lut.mzi_powers_mw, backward_lut.mzi_powers_mw)
        or not np.allclose(forward_lut.mrr_powers_mw, backward_lut.mrr_powers_mw)
    ):
        raise ShapeError("forward and backward LUTs must share the same grid")
    full = forward_lut.output_power.max()
    diff = float(np.mean(forward_lut.output_power - backward_lut.output_power) / full)
    if diff >= 0:
        return AsymmetryBias(bias=diff, apply_to=BACKWARD)
    return AsymmetryBias(bias=-diff, apply_to=FORWARD)


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


def lut_from_csv(path, direction: str = FORWARD) -> CalibrationLUT:
    mzi, mrr, power = [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "mzi_mw,mrr_mw,power":
            raise DataFormatError(f"{path}: unexpected LUT CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 columns")
            mzi.append(float(parts[0]))
            mrr.append(float(parts[1]))
            power.append(float(parts[2]))
    mzi_axis = np.unique(np.asarray(mzi))
    mrr_axis = np.unique(np.asarray(mrr))
    grid = np.asarray(power).reshape(len(mzi_axis), len(mrr_axis))
    return CalibrationLUT(mzi_axis, mrr_axis, grid, direction=direction)


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


def lut_from_binary(path, direction: str = FORWARD) -> CalibrationLUT:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 64:
        raise DataFormatError(f"{path}: truncated LUT header")
    header = np.frombuffer(raw[:64], dtype="<f8")
    if header[0] != LUT_MAGIC:
        raise DataFormatError(f"{path}: bad LUT magic {header[0]!r}")
    if header[1] != LUT_VERSION:
        raise DataFormatError(f"{path}: unsupported LUT version {header[1]}")
    n_mzi, n_mrr = int(header[2]), int(header[3])
    expected = 64 + 8 * n_mzi * n_mrr
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    grid = np.frombuffer(raw[64:], dtype="<f8").reshape(n_mzi, n_mrr)
    return CalibrationLUT(
        np.linspace(header[4], header[5], n_mzi),
        np.linspace(header[6], header[7], n_mrr),
        grid.copy(),
        direction=direction,
    )
