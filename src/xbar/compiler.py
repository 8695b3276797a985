"""Weight compilation and heater calibration for the crossbar.

Maps signed matrices/vectors onto non-negative transmittances via an affine
min-max encoding with an exact electronic decode, equalizes per-ring peak
power, and converts transmittance targets into heater detunings from each
ring's aligned setting (which `RingGrid` computes once). Programming works
against the ring's measured response: a fixed-point pass subtracts the
predicted foreign-channel leakage from each element's target, mirroring how
a physical calibration programs each element from its measured response
curve. A parked ring still leaks at its floor, so targets are clamped from
below; `CompiledMatrix.transmittances` records what was actually programmed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crossbar import CrossbarArray
from .devices import RingDevice
from .errors import ProtocolError, ShapeError

MATRIX = "matrix"
VECTOR = "vector"


@dataclass(frozen=True)
class AffineEncoding:
    """Min-max map value -> (value - offset) / scale onto [0, 1]."""

    scale: float
    offset: float
    axis: str = MATRIX

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("encoding scale must be positive")
        if self.axis not in (MATRIX, VECTOR):
            raise ValueError("axis must be 'matrix' or 'vector'")

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and self.offset == 0.0

    def encode(self, values):
        return (np.asarray(values, dtype=float) - self.offset) / self.scale

    def decode_values(self, encoded):
        return np.asarray(encoded, dtype=float) * self.scale + self.offset


def encode_signed(values, axis: str = MATRIX):
    """Affine-encode a signed array onto [0, 1]; returns (encoded, encoding).

    Degenerate all-equal input encodes to zeros with the common value carried
    in the offset.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot encode non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        enc = AffineEncoding(scale=1.0, offset=lo, axis=axis)
    else:
        enc = AffineEncoding(scale=hi - lo, offset=lo, axis=axis)
    return enc.encode(arr), enc


def identity_encoding(axis: str = VECTOR) -> AffineEncoding:
    return AffineEncoding(scale=1.0, offset=0.0, axis=axis)


def encode_signed_columns(arr: np.ndarray):
    """Column-wise affine encoding for a (dim, batch) matrix of signed vectors.

    Returns (encoded, scales, offsets) with encoded in [0, 1]; degenerate
    constant columns get scale 1 with the value carried in the offset.
    """
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot encode non-finite values")
    lo = a.min(axis=0)
    hi = a.max(axis=0)
    scales = np.where(hi > lo, hi - lo, 1.0)
    return (a - lo) / scales, scales, lo


def decode_output(
    y_prime,
    enc_matrix: AffineEncoding,
    enc_vector: AffineEncoding,
    sum_x_prime: float,
    n: int,
    w_prime_ones=None,
):
    """Exact algebraic inverse of the affine encoding applied to an MVM.

    With W = s_M W' + m_M J and x = s_x x' + m_x 1:

        y = s_M s_x y' + s_M m_x (W' 1) + m_M s_x (sum x') 1 + m_M m_x n 1

    `w_prime_ones` is the W' @ 1 vector obtained from one extra photonic pass
    with the all-ones input; it is only required when the vector encoding is
    non-trivial (m_x != 0).
    """
    y_prime = np.asarray(y_prime, dtype=float)
    s_m, m_m = enc_matrix.scale, enc_matrix.offset
    s_x, m_x = enc_vector.scale, enc_vector.offset
    result = s_m * s_x * y_prime
    if m_x != 0.0:
        if w_prime_ones is None:
            raise ProtocolError(
                "vector encoding has a non-zero offset: the all-ones photonic "
                "pass (W' @ 1) is required to decode"
            )
        result = result + s_m * m_x * np.asarray(w_prime_ones, dtype=float)
    if m_m != 0.0:
        result = result + m_m * s_x * sum_x_prime + m_m * m_x * n
    return result


# -- peak-power equalization ---------------------------------------------------


def equalize_peak_power(peaks: np.ndarray):
    """Common full-scale drop target so every ring can reach it.

    `peaks` holds the per-ring peak drop transmittances. Returns
    (per_ring_scaling, common_target): the common target is the minimum
    peak (the lossiest ring binds), and per_ring_scaling[i, j] <= 1 maps
    each ring's peak onto it.
    """
    common = float(peaks.min())
    return common / peaks, common


@dataclass(frozen=True)
class CompiledMatrix:
    """A signed matrix mapped onto ring transmittances and heater powers.

    `transmittances` holds the physically programmed relative targets: the
    encoded matrix clamped to each ring's realizable [floor, 1] span, where
    the floor is the parked ring's residual coupling at its own channel.
    """

    transmittances: np.ndarray
    encoding: AffineEncoding
    heater_settings_mw: np.ndarray
    requested: np.ndarray

    @property
    def clamped_elements(self) -> np.ndarray:
        """Boolean mask of elements that could not be programmed exactly."""
        return ~np.isclose(self.transmittances, self.requested, atol=1e-12)


class MatrixCompiler:
    """Programs transmittance targets onto a crossbar's ring grid."""

    def __init__(
        self,
        array: CrossbarArray,
        compensate_leakage: bool = True,
        compensation_passes: int = 2,
    ):
        self.array = array
        self.compensate_leakage = compensate_leakage
        self.compensation_passes = compensation_passes
        grid = array.ring_grid
        self._peaks = np.array(
            [[ring.peak_drop_transmittance() for ring in row] for row in grid.rings]
        )
        _, self._full_scale = equalize_peak_power(self._peaks)
        # Residual relative coupling of a parked ring at its own channel.
        park = grid.park_detuning_nm
        self._floor_rel = (
            np.array([[self._drop_at(ring, park) for ring in row] for row in grid.rings])
            / self._peaks
        )
        # The inverse lineshape does not depend on a ring's fabrication
        # detuning (it is measured from the ring's own resonance), so rings
        # sharing a design share one batched solve.
        designs: dict[RingDevice, list] = {}
        for i, row in enumerate(grid.rings):
            for j, ring in enumerate(row):
                designs.setdefault(replace(ring, fabrication_detuning_nm=0.0), []).append((i, j))
        self._designs = [(design, tuple(np.array(cells).T)) for design, cells in designs.items()]

    @property
    def n(self) -> int:
        return self.array.n

    @property
    def full_scale(self) -> float:
        return self._full_scale

    @staticmethod
    def _drop_at(ring: RingDevice, detuning_nm: float) -> float:
        res = ring.resonance_wavelength_nm(0.0)
        drop, _ = ring.drop_through(res - detuning_nm, 0.0)
        return drop

    def _detunings_for(self, relative_targets: np.ndarray) -> np.ndarray:
        det = np.empty((self.n, self.n))
        for design, cells in self._designs:
            det[cells] = design.detuning_for_relative_drop(relative_targets[cells])
        return np.minimum(det, self.array.ring_grid.park_detuning_nm)

    def heaters_for_targets(self, unit_targets: np.ndarray):
        """Heater matrix realizing absolute drop targets unit_targets * full_scale.

        Returns (heaters, achieved_unit_targets). Targets are clamped to each
        ring's realizable span; with leakage compensation enabled, the
        predicted foreign-channel pedestal is subtracted from each element's
        own-channel target so the summed response lands on the request.
        """
        t = np.asarray(unit_targets, dtype=float)
        if t.shape != (self.n, self.n):
            raise ShapeError(f"target matrix must be {self.n}x{self.n}")
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError("unit targets must lie in [0, 1]")
        grid = self.array.ring_grid
        # Relative-to-peak own-channel target for each ring.
        rel = t * self._full_scale / self._peaks
        rel = np.clip(rel, self._floor_rel, 1.0)
        det = self._detunings_for(rel)
        if self.compensate_leakage:
            rows = np.arange(self.n)[:, None]
            cols = np.arange(self.n)[None, :]
            for _ in range(self.compensation_passes):
                heaters = grid.detuned_heaters(det)
                drop, _ = grid.drop_through_tensor(heaters)
                own = drop[rows, cols, rows]  # response on the ring's own channel
                foreign = drop.sum(axis=2) - own
                rel = (t * self._full_scale - foreign) / self._peaks
                rel = np.clip(rel, self._floor_rel, 1.0)
                det = self._detunings_for(rel)
        heaters = grid.detuned_heaters(det)
        achieved = rel * self._peaks / self._full_scale
        return heaters, achieved

    def compile_unit(self, unit_matrix: np.ndarray, encoding: AffineEncoding | None = None) -> CompiledMatrix:
        """Compile a matrix already normalized to [0, 1]."""
        encoding = encoding or identity_encoding(MATRIX)
        heaters, achieved = self.heaters_for_targets(unit_matrix)
        return CompiledMatrix(
            transmittances=achieved,
            encoding=encoding,
            heater_settings_mw=heaters,
            requested=np.asarray(unit_matrix, dtype=float).copy(),
        )

    def compile_signed(self, matrix: np.ndarray) -> CompiledMatrix:
        """Affine-encode a signed matrix and compile it."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.n, self.n):
            raise ShapeError(f"matrix must be {self.n}x{self.n}; pad before compiling")
        encoded, enc = encode_signed(m, axis=MATRIX)
        return self.compile_unit(encoded, encoding=enc)

    def pad(self, matrix: np.ndarray) -> np.ndarray:
        """Zero-pad a (rows, cols) matrix to the crossbar size."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] > self.n or m.shape[1] > self.n:
            raise ShapeError(f"matrix {m.shape} does not fit a {self.n}x{self.n} crossbar")
        out = np.zeros((self.n, self.n))
        out[: m.shape[0], : m.shape[1]] = m
        return out
