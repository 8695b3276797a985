"""Affine encoding and heater calibration for the crossbar.

The affine min-max encoding maps signed matrices and vectors onto [0, 1],
and `decode_output` is its exact electronic inverse; the backend handle
encodes each program with them (`xbar.backends`). `compile_unit` takes the
unit targets and programs each target t as the drop t x
`CrossbarArray.full_scale`: a heater detuning from each ring's aligned
setting, on the resonance order it is aligned on (`RingGrid` holds both).
The detunings of all n^2 rings, of every matrix of a stack, come from one
inverse-lineshape solve per pass. Each solve reads the grid's record for
the stack's leading shape (`RingGrid.tiled`): every per-ring constant of
the solve and of the drop evaluation (the lineshapes, the channels, the
aligned heaters, heater rates and ranges, fabrication and phase offsets,
peak drops and parked floors) tiled to the stack's full shape, so every
ufunc of a pass runs on operands of one shape and numpy broadcasts
nothing. The record is built on the first program of that shape, kept,
and read-only. Programming works against the ring's measured response:
every solve runs COMPENSATION_PASSES fixed-point passes, each subtracting
the predicted foreign-channel leakage from each element's target, as a
physical calibration programs each element from its measured response
curve. A parked ring still leaks at its floor, so targets are clamped from
below; `CompiledMatrix.clamped_elements` marks where.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import CrossbarArray
from .errors import ShapeError

# Leakage-compensation passes of every heater solve.
COMPENSATION_PASSES = 2


@dataclass(frozen=True)
class AffineEncoding:
    """Min-max map value -> (value - offset) / scale onto [0, 1].

    `scale` and `offset` are floats, or arrays of shape (..., 1, 1) holding
    one map per matrix of a stack (see `encode_signed`); every scale must be
    positive.
    """

    scale: float | np.ndarray
    offset: float | np.ndarray

    def __post_init__(self):
        if not np.logical_and.reduce(np.greater(self.scale, 0.0), axis=None):
            raise ValueError("encoding scale must be positive")

    def __getitem__(self, index) -> "AffineEncoding":
        """The encoding of matrix `index` of the stack's leading axis. Its
        scales are a slice of checked ones, so they are not checked again."""
        part = object.__new__(AffineEncoding)
        part.__dict__.update(scale=self.scale[index], offset=self.offset[index])
        return part


def _min_and_span(a: np.ndarray, axis):
    """(min, max - min) of `a` over `axis`, kept as length-1 axes; a span of 0
    (constant values) is returned as 1, so the span divides as a scale."""
    lo = np.minimum.reduce(a, axis=axis, keepdims=True)
    span = np.maximum.reduce(a, axis=axis, keepdims=True) - lo
    # A NaN or an infinity among the values makes their span non-finite.
    if not np.logical_and.reduce(np.isfinite(span), axis=None):
        raise ValueError("cannot encode non-finite values")
    span[span == 0.0] = 1.0
    return lo, span


def encode_signed(values):
    """Affine-encode a signed matrix, or every matrix of a stack
    (..., rows, cols), onto [0, 1]; returns (encoded, encoding).

    Each matrix gets its own map: the encoding's scale and offset have shape
    (..., 1, 1). A degenerate all-equal matrix encodes to zeros with the
    common value carried in the offset.
    """
    arr = np.asarray(values, dtype=float)
    lo, scale = _min_and_span(arr, (-2, -1))
    return (arr - lo) / scale, AffineEncoding(scale=scale, offset=lo)


def encode_signed_columns(arr: np.ndarray):
    """Column-wise affine encoding for (..., dim, batch) signed vectors.

    Returns (encoded, scales, offsets) with encoded in [0, 1] and scales and
    offsets of shape (..., 1, batch); degenerate constant columns get scale 1
    with the value carried in the offset.
    """
    a = np.asarray(arr, dtype=float)
    lo, scales = _min_and_span(a, -2)
    encoded = a - lo
    encoded /= scales
    return encoded, scales, lo


def pad(matrix, n: int) -> np.ndarray:
    """Zero-pad a (rows, cols) matrix, or each of a stack (..., rows, cols),
    to an n x n crossbar."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-2] > n or m.shape[-1] > n:
        raise ShapeError(f"matrix {m.shape} does not fit a {n}x{n} crossbar")
    out = np.zeros(m.shape[:-2] + (n, n))
    out[..., : m.shape[-2], : m.shape[-1]] = m
    return out


def decode_output(raw, matrix_encoding: AffineEncoding, scales, offsets, sums, n: int, ones=0.0):
    """Exact algebraic inverse of the affine encodings applied to a product.

    With W = s_M W' + m_M J and each input column x = s_x x' + m_x 1:

        y = s_M s_x y' + s_M m_x (W' 1) + m_M s_x (sum x') 1 + m_M m_x n 1

    `raw` (..., n, B) holds the measured y' = W' x' of every column; the
    encoding's scale and offset broadcast over it (one per matrix of a
    stack), and `scales`, `offsets` and `sums` (sum x') describe each column.
    `ones` is the (..., n, 1) response W' 1 of one all-ones pass; it is only
    read through the offsets. The terms are added in place on one new array,
    in the order written.

    `scales` and `offsets` None stand for inputs that were not encoded
    (scale 1, offset 0: the forward products). Their decode is
    s_M y' + m_M (sum x') 1, the same bits as the four terms give, without
    the products by 1 and the two terms of zeros; `ones` is not read.
    """
    s_m, m_m = matrix_encoding.scale, matrix_encoding.offset
    if offsets is None:
        y = np.multiply(s_m, raw)
        y += m_m * sums
        return y
    y = np.multiply(s_m * scales, raw)
    y += s_m * offsets * ones
    y += m_m * scales * sums
    y += m_m * offsets * n
    return y


@dataclass(frozen=True)
class CompiledMatrix:
    """Unit targets, (n, n) or a stack of them, mapped onto heater powers;
    every array has the stack's leading axes.

    `clamped_elements` marks the elements whose target lay outside the
    ring's realizable [floor, 1] span, where the floor is the parked ring's
    residual coupling at its own channel, and was clamped to it.
    """

    heater_settings_mw: np.ndarray
    clamped_elements: np.ndarray

    def __getitem__(self, index) -> "CompiledMatrix":
        """Matrix `index` of the stack's leading axis."""
        return CompiledMatrix(self.heater_settings_mw[index], self.clamped_elements[index])


class MatrixCompiler:
    """Programs transmittance targets onto a crossbar's ring grid.

    Within one solve, the requested drop `t * CrossbarArray.full_scale` is
    computed once, and the clamp mask once, from the final pass's request.
    Every per-ring constant comes from the grid's record for the stack's
    leading shape (`RingGrid.tiled`): the aligned heaters, each ring's peak
    drop and relative floor, and the lineshape that the inverse solve and
    the drop evaluation read. A stack of target matrices (..., n, n) is
    solved in the same calls, each matrix exactly as on its own.
    """

    def __init__(self, array: CrossbarArray):
        self.array = array

    @property
    def n(self) -> int:
        return self.array.n

    def heaters_for_targets(self, unit_targets: np.ndarray):
        """Heater matrix realizing absolute drop targets unit_targets * full scale.

        `unit_targets` is (n, n) or a stack (..., n, n). The full scale is
        the array's (`CrossbarArray.full_scale`). Returns (heaters,
        clamped). Targets are clamped to each ring's realizable span, and
        `clamped` marks where that clamp was active.
        Each compensation pass subtracts the predicted foreign-channel
        pedestal from each element's own-channel target, so the summed
        response lands on the request.
        """
        t = np.asarray(unit_targets, dtype=float)
        if t.shape[-2:] != (self.n, self.n):
            raise ShapeError(f"target matrix must be {self.n}x{self.n}")
        if not np.logical_and.reduce((0.0 <= t) & (t <= 1.0), axis=None):
            raise ValueError("unit targets must lie in [0, 1]")
        grid = self.array.ring_grid
        tiled = grid.tiled(t.shape[:-2])
        floor = tiled.floor_rel
        # Any ring solves the whole grid: the tiled lineshape carries every
        # ring's constants.
        solver = grid.rings[0][0]
        absolute = t * self.array.full_scale  # the drop each element must reach
        foreign = 0.0  # the first solve predicts no pedestal
        for compensation in range(COMPENSATION_PASSES + 1):
            if compensation:
                drop = grid.drop_through_tensor(grid.detuned_heaters(det))
                foreign = drop.sum(axis=-1)
                foreign -= drop.take(tiled.own)  # the response on the ring's own channel
            # Relative-to-peak own-channel request for each ring, before the clamp.
            request = absolute - foreign
            request /= tiled.peaks
            rel = np.maximum(request, floor)
            np.minimum(rel, 1.0, out=rel)
            det = solver.detuning_for_relative_drop(rel, tiled.solve)
            np.minimum(det, grid.park_detuning_nm, out=det)
        clamped = request < floor
        clamped |= request > 1.0
        return grid.detuned_heaters(det), clamped

    def compile_unit(self, unit_targets: np.ndarray) -> CompiledMatrix:
        """Compile unit targets in [0, 1], (n, n) or a stack (..., n, n)."""
        heaters, clamped = self.heaters_for_targets(unit_targets)
        return CompiledMatrix(heater_settings_mw=heaters, clamped_elements=clamped)
