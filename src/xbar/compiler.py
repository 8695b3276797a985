"""Affine encoding and heater calibration for the crossbar.

The affine min-max encoding maps signed matrices and vectors onto [0, 1],
and `decode_output` is its exact electronic inverse; the backend handle
encodes each program with them (`xbar.backends`). `compile_unit` takes the
unit targets and programs each target t as the summed drop t x
`CrossbarArray.full_scale`: a heater detuning from each ring's aligned
setting, on the resonance order it is aligned on (`RingGrid` holds both).
Programming works against the ring's measured response, as a physical
calibration programs each element from its measured response curve: a
ring's drop on the other channels (its pedestal) depends only on its own
detuning, so each ring's request is one equation in that detuning. The
grid tabulates each ring's summed drop and pedestal once
(`RingGrid.summed_response`); a program reads each ring's pedestal at its
request from the table, by linear interpolation on the cell the request
falls in, and solves what is left on the ring's own channel with one
inverse-lineshape call for all n^2 rings of every matrix of a stack. That
call reads the grid's record for the stack's leading shape
(`RingGrid.tiled`), whose per-ring constants are tiled to the stack's full
shape, so its ufuncs broadcast nothing. A parked ring still leaks at its
floor, so requests are clamped from below; `CompiledMatrix.clamped_elements`
marks where.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import CrossbarArray
from .errors import ShapeError


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

    One solve per program: each element's pedestal is read from its ring's
    summed-response table (`RingGrid.summed_response`), and one inverse
    solve sets every ring's own-channel drop to the rest of its target.
    The per-ring constants of that solve come from the grid's record for
    the stack's leading shape (`RingGrid.tiled`): the lineshape, each
    ring's peak drop and relative floor. A stack of target matrices
    (..., n, n) is solved in the same calls, each matrix exactly as on its
    own.
    """

    def __init__(self, array: CrossbarArray):
        self.array = array

    @property
    def n(self) -> int:
        return self.array.n

    def heaters_for_targets(self, unit_targets: np.ndarray):
        """Heater matrix whose channel-summed drops reach unit_targets * full scale.

        `unit_targets` is (n, n) or a stack (..., n, n). The full scale is
        the array's (`CrossbarArray.full_scale`). Returns (heaters,
        clamped). Each ring's own-channel request is its target less its
        pedestal there, read from its summed-response table. Requests are
        clamped to each ring's realizable [floor, 1] span relative to its
        peak, and `clamped` marks where that clamp was active.
        """
        t = np.asarray(unit_targets, dtype=float)
        if t.shape[-2:] != (self.n, self.n):
            raise ShapeError(f"target matrix must be {self.n}x{self.n}")
        if not np.logical_and.reduce((0.0 <= t) & (t <= 1.0), axis=None):
            raise ValueError("unit targets must lie in [0, 1]")
        grid = self.array.ring_grid
        tiled = grid.tiled(t.shape[:-2])
        response = grid.summed_response
        floor = tiled.floor_rel
        absolute = t * self.array.full_scale  # the summed drop each element must reach
        # The table cell whose knots bracket the request: the ring's knots
        # above it, less one. A request above knot 0 reads cell 0; one below
        # the cut reads the cut knot, whose slope is 0.
        query = np.multiply(absolute, -1j)
        query += response.first
        cell = response.keys.searchsorted(query)
        cell -= 1
        np.maximum(cell, response.first, out=cell)
        # The pedestal at the request, linear in S over the cell, and the
        # own-channel drop left to program, relative to the ring's peak.
        request = response.slope.take(cell)
        request *= absolute
        request += response.intercept.take(cell)
        np.subtract(absolute, request, out=request)
        request /= tiled.peaks
        rel = np.maximum(request, floor)
        np.minimum(rel, 1.0, out=rel)
        # Any ring solves the whole grid: the tiled lineshape carries every
        # ring's constants.
        det = grid.rings[0][0].detuning_for_relative_drop(rel, tiled.solve)
        np.minimum(det, grid.park_detuning_nm, out=det)
        clamped = request < floor
        clamped |= request > 1.0
        return grid.detuned_heaters(det), clamped

    def compile_unit(self, unit_targets: np.ndarray) -> CompiledMatrix:
        """Compile unit targets in [0, 1], (n, n) or a stack (..., n, n)."""
        heaters, clamped = self.heaters_for_targets(unit_targets)
        return CompiledMatrix(heater_settings_mw=heaters, clamped_elements=clamped)
