"""Matrix-product backends for the network engine.

Every backend exposes `program(W) -> handle`, and the handle computes the
signed products

    handle.forward(X)  ~ W @ X     (X non-negative, in [0, 1])
    handle.backward(S) ~ W.T @ S   (S signed)

with all crossbar mechanics hidden inside: the signed matrix is transposed
onto the ring grid (the crossbar's forward pass contracts over input rows),
zero-padded to the array size, affine-encoded, compiled to heater settings,
and decoded electronically on the way out. Signed backward inputs use the
affine vector encoding plus the all-ones pass measured once per program.

The `lut` backend never propagates whole vectors; every scalar product is
fetched from calibration look-up tables, as the training experiments did.
"""

from __future__ import annotations

import numpy as np

from .compiler import (
    AffineEncoding,
    MatrixCompiler,
    decode_output,
    encode_signed,
    encode_signed_columns,
)
from .crossbar import BACKWARD, FORWARD, CrossbarArray
from .errors import EncodingError
from .lut import (
    AsymmetryBias,
    CalibrationLUT,
    build_lut,
    compensate_asymmetry,
    lut_multiply_many,
)
from .noise import NoiseConfig, make_rng, perturb, time_average

_INPUT_TOL = 1e-9


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim == 2:
        return x, False
    raise ValueError("inputs must be vectors or (dim, batch) matrices")


def _check_unit_interval(x):
    if np.any(x < -_INPUT_TOL) or np.any(x > 1.0 + _INPUT_TOL):
        raise EncodingError("forward inputs must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


class IdealProgrammed:
    """Exact electronic reference for a programmed matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)

    def forward(self, x):
        xb, squeeze = _as_batch(x)
        y = self.matrix @ xb
        return y[:, 0] if squeeze else y

    def backward(self, s):
        sb, squeeze = _as_batch(s)
        y = self.matrix.T @ sb
        return y[:, 0] if squeeze else y


class IdealBackend:
    name = "ideal"

    def program(self, matrix: np.ndarray) -> IdealProgrammed:
        return IdealProgrammed(matrix)


class _NoiseMixin:
    """Shared measurement-noise plumbing for physical backends."""

    def _init_noise(self, noise: NoiseConfig | None, time_average_count: int):
        self.noise = noise
        self.time_average_count = max(1, int(time_average_count))
        self._rng = make_rng(noise.seed, noise.stream) if noise is not None else None

    def _measure(self, clean: np.ndarray) -> np.ndarray:
        """One detector reading of `clean` powers (may be signed after decode
        pre-stages, so noise acts on magnitudes)."""
        if self.noise is None or not self.noise.enabled:
            return clean
        def one():
            factors = perturb(np.ones(clean.shape), self.noise, self._rng)
            return clean * factors
        return time_average(one, self.time_average_count)


class PhotonicProgrammed:
    """A signed matrix held as heater settings on a crossbar."""

    def __init__(self, backend: "PhotonicBackend", matrix: np.ndarray):
        self.backend = backend
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("programmed matrix must be 2-D")
        self.out_dim, self.in_dim = m.shape
        compiler = backend.compiler
        # The crossbar contracts over input ports: program the transpose.
        self.compiled = compiler.compile_signed(compiler.pad(m.T))
        array = backend.array
        self._eff_fwd = array.effective_matrix(self.compiled.heater_settings_mw, FORWARD)
        self._eff_bwd = array.effective_matrix(self.compiled.heater_settings_mw, BACKWARD)
        self._ones_response: np.ndarray | None = None

    def forward(self, x):
        xb, squeeze = _as_batch(x)
        if xb.shape[0] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {xb.shape[0]}")
        xb = _check_unit_interval(xb)
        n = self.backend.array.n
        xp = np.zeros((n, xb.shape[1]))
        xp[: self.in_dim] = xb
        raw = self.backend._measure(self._eff_fwd.T @ xp)
        y = decode_output(raw, self.compiled.encoding, 1.0, 0.0, xp.sum(axis=0), n)[: self.out_dim]
        return y[:, 0] if squeeze else y

    def _measured_ones_response(self) -> np.ndarray:
        """Backward all-ones pass (T' @ 1), measured once per program."""
        if self._ones_response is None:
            self._ones_response = self.backend._measure(
                self._eff_bwd @ np.ones(self.backend.array.n)
            )
        return self._ones_response

    def backward(self, s):
        sb, squeeze = _as_batch(s)
        if sb.shape[0] != self.out_dim:
            raise ValueError(f"expected error dim {self.out_dim}, got {sb.shape[0]}")
        n = self.backend.array.n
        sp = np.zeros((n, sb.shape[1]))
        sp[: self.out_dim] = sb
        s_prime, scales, offsets = encode_signed_columns(sp)
        raw = self.backend._measure(self._eff_bwd @ s_prime)
        ones = self._measured_ones_response()[:, None]
        y = decode_output(
            raw, self.compiled.encoding, scales, offsets, s_prime.sum(axis=0), n, ones
        )[: self.in_dim]
        return y[:, 0] if squeeze else y


class PhotonicBackend(_NoiseMixin):
    """Routes products through the crossbar propagation model."""

    name = "photonic"

    def __init__(
        self,
        array: CrossbarArray,
        noise: NoiseConfig | None = None,
        time_average_count: int = 1,
    ):
        self.array = array
        self.compiler = MatrixCompiler(array)
        self._init_noise(noise, time_average_count)

    def program(self, matrix: np.ndarray) -> PhotonicProgrammed:
        return PhotonicProgrammed(self, matrix)


class LutProgrammed:
    """A signed matrix held as per-element LUT targets."""

    def __init__(self, backend: "LutBackend", matrix: np.ndarray):
        self.backend = backend
        m = np.asarray(matrix, dtype=float)
        self.out_dim, self.in_dim = m.shape
        padded = backend.compiler.pad(m.T)
        encoded, enc = encode_signed(padded)
        self.encoding: AffineEncoding = enc
        self.targets = encoded  # (n, n): targets[i, j] multiplies input i
        self._ones_response: np.ndarray | None = None

    def forward(self, x):
        xb, squeeze = _as_batch(x)
        if xb.shape[0] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {xb.shape[0]}")
        xb = _check_unit_interval(xb)
        n = self.backend.array.n
        xp = np.zeros((n, xb.shape[1]))
        xp[: self.in_dim] = xb
        raw = self._products_forward(xp)
        y = decode_output(raw, self.encoding, 1.0, 0.0, xp.sum(axis=0), n)[: self.out_dim]
        return y[:, 0] if squeeze else y

    def _products_forward(self, xp):
        # y'[j, b] = sum_i lut_ij(x[i, b], T'[i, j])
        n = self.backend.array.n
        if self.backend.shared_lut:
            est = self.backend.element_products(
                0, xp[:, None, :], self.targets[:, :, None], FORWARD
            )  # (n, n, B)
            return est.sum(axis=0)
        out = np.zeros((n, xp.shape[1]))
        for i in range(n):
            out += self.backend.element_products(
                i, xp[i][None, :], self.targets[i][:, None], FORWARD
            )
        return out

    def _products_backward(self, s_prime):
        # y'[i, b] = sum_j lut_ij(s'[j, b], T'[i, j])
        n = self.backend.array.n
        if self.backend.shared_lut:
            est = self.backend.element_products(
                0, s_prime[None, :, :], self.targets[:, :, None], BACKWARD
            )  # (n, n, B)
            return est.sum(axis=1)
        out = np.zeros((n, s_prime.shape[1]))
        for i in range(n):
            out[i] = self.backend.element_products(
                i, s_prime, self.targets[i][:, None], BACKWARD
            ).sum(axis=0)
        return out

    def _measured_ones_response(self) -> np.ndarray:
        if self._ones_response is None:
            ones = np.ones((self.backend.array.n, 1))
            self._ones_response = self._products_backward(ones)[:, 0]
        return self._ones_response

    def backward(self, s):
        sb, squeeze = _as_batch(s)
        if sb.shape[0] != self.out_dim:
            raise ValueError(f"expected error dim {self.out_dim}, got {sb.shape[0]}")
        n = self.backend.array.n
        sp = np.zeros((n, sb.shape[1]))
        sp[: self.out_dim] = sb
        s_prime, scales, offsets = encode_signed_columns(sp)
        raw = self._products_backward(s_prime)
        ones = self._measured_ones_response()[:, None]
        y = decode_output(raw, self.encoding, scales, offsets, s_prime.sum(axis=0), n, ones)[
            : self.in_dim
        ]
        return y[:, 0] if squeeze else y


class LutBackend(_NoiseMixin):
    """Performs every multiplication by fetching calibration LUT entries.

    When the ring grid is uniform a single LUT pair is shared by all
    elements; otherwise one pair is built per ring. A forward/backward
    power imbalance is compensated by a constant additive bias.
    """

    name = "lut"

    def __init__(
        self,
        array: CrossbarArray,
        steps: int = 64,
        noise: NoiseConfig | None = None,
        time_average_count: int = 1,
    ):
        self.array = array
        self.compiler = MatrixCompiler(array)
        self._init_noise(noise, time_average_count)
        rings = array.ring_grid.rings
        self.shared_lut = all(
            ring.fabrication_detuning_nm == rings[0][0].fabrication_detuning_nm
            and ring.self_coupling_t1 == rings[0][0].self_coupling_t1
            for row in rings
            for ring in row
        )
        self._fwd: dict[tuple, CalibrationLUT] = {}
        self._bwd: dict[tuple, CalibrationLUT] = {}
        self._bias: dict[tuple, AsymmetryBias] = {}
        keys = [(0, 0)] if self.shared_lut else [
            (i, j) for i in range(array.n) for j in range(array.n)
        ]
        for key in keys:
            fwd = build_lut(array, key[0], key[1], steps=steps, direction=FORWARD)
            bwd = build_lut(array, key[0], key[1], steps=steps, direction=BACKWARD)
            self._fwd[key] = fwd
            self._bwd[key] = bwd
            self._bias[key] = compensate_asymmetry(fwd, bwd)

    def element_products(self, row: int, values, targets, direction: str) -> np.ndarray:
        """LUT product estimates values * targets for elements of grid row `row`.

        `values` and `targets` broadcast together; per-element LUTs are used
        unless the grid is uniform. Estimates are clamped to the calibrated
        span (a LUT cannot represent levels outside its windows).
        """
        values = np.asarray(values, dtype=float)
        targets = np.asarray(targets, dtype=float)
        shape = np.broadcast_shapes(values.shape, targets.shape)
        if self.shared_lut:
            lut = self._fwd[(0, 0)] if direction == FORWARD else self._bwd[(0, 0)]
            est, _ = lut_multiply_many(lut, values, targets)
            est = np.broadcast_to(est, shape).copy()
            if direction == BACKWARD:
                bias = self._bias[(0, 0)]
                if bias.apply_to == BACKWARD:
                    est += bias.bias
            return self._measure(est)
        out = np.empty(shape)
        v_b = np.broadcast_to(values, shape)
        t_b = np.broadcast_to(targets, shape)
        for j in range(shape[0]):
            key = (row, j)
            lut = self._fwd[key] if direction == FORWARD else self._bwd[key]
            est, _ = lut_multiply_many(lut, v_b[j], t_b[j])
            if direction == BACKWARD:
                bias = self._bias[key]
                if bias.apply_to == BACKWARD:
                    est = est + bias.bias
            out[j] = est
        return self._measure(out)

    def program(self, matrix: np.ndarray) -> LutProgrammed:
        return LutProgrammed(self, matrix)


def make_backend(
    name: str,
    array: CrossbarArray | None = None,
    noise: NoiseConfig | None = None,
    time_average_count: int = 1,
):
    """Factory used by the experiment layer."""
    if name == "ideal":
        return IdealBackend()
    if array is None:
        raise ValueError(f"backend {name!r} requires a crossbar array")
    if name == "photonic":
        return PhotonicBackend(array, noise=noise, time_average_count=time_average_count)
    if name == "lut":
        return LutBackend(array, noise=noise, time_average_count=time_average_count)
    raise ValueError(f"unknown backend {name!r}")
