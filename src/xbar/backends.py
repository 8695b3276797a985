"""Matrix-product backends for the network engine.

Every backend exposes `program(W) -> handle`, and the handle computes the
signed products

    handle.forward(X)  ~ W @ X     (X non-negative, in [0, 1])
    handle.backward(S) ~ W.T @ S   (S signed)

of (dim, batch) column operands, with all crossbar mechanics hidden inside;
a scalar or a lone vector raises ShapeError. Both physical backends program
through one path. The handle (`_ProgrammedMatrix`) encodes: it transposes
the signed matrix onto the ring grid (the crossbar's forward pass contracts
over input rows), zero-pads it to the array size and affine-encodes it,
once per program. Its subclass only sets the hardware to those unit
targets, heater settings (`photonic`) or LUT ring settings (`lut`), and
returns clean raw products. The handle measures them through the backend
and decodes them electronically. Signed backward inputs use the affine
vector encoding plus the all-ones pass that every backward reads with its
product. `_PhysicalBackend` owns the array, the noise streams, the
measurement and `program`. Each product returns a new array, which shares
no memory with its operand or the program: the caller may write into it.

`program` also takes a stack of matrices (..., out, in), programmed in the
same calls, each with its own encoding: slice k of the stack is bit for bit
what programming that matrix on its own gives. The handle's products then
broadcast over the leading axes: a (dim, batch) input reaches every matrix,
and a stacked input (..., dim, batch) gives each matrix its own. A
physical backend's measurement noise is one stream for every reading, or
one stream per slice of the stack's last leading axis (`noise` a
sequence), each drawn in the order that slice's own program would draw it.
A time-averaged reading draws all its repeats in one `perturb` per stream.

`handle.view(k, out, in)` is matrix k of a stack's leading axis, held
zero-padded, as the program of its own (out, in) matrix: it shares the
stack's operands and reads bit for bit what programming that matrix alone
reads. The MLP programs all its layers, each padded to the widest, in one
call per training step (a (layers, runs, out, in) stack) and reads each
layer through its view.

The `lut` backend never propagates whole vectors; every scalar product is
fetched from calibration look-up tables, as the training experiments did.
It calibrates one LUT pair per ring design (rings with equal fabrication
detuning and coupling): a uniform grid is one design, a grid with a
fabrication spread has one per ring. Both directions' LUTs come from one
calibration sweep over every design (`xbar.lut.build_lut`), which reads
each ring setting at the element's forward and backward ports; each
direction's LUTs are stacked into one table (`xbar.lut.LutStack`), read
with an exact search keyed on (design, level), so each product of every
element and the whole batch is one vectorised lookup, whatever the number
of designs. Each LUT is inverted on the rising branch of each axis (see
`xbar.lut`). The read has a program-time half: `program` sets every
element's ring to its target once per direction (`LutStack.set_rings` of
`LutBackend.tables`), and each product inverts only its inputs' MZI axis
against those ring settings. A backward appends the all-ones column to its
error columns and reads both in one LUT read.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .compiler import (
    MatrixCompiler,
    decode_output,
    encode_signed,
    encode_signed_columns,
    pad,
)
from .crossbar import BACKWARD, FORWARD, CrossbarArray
from .errors import EncodingError, ShapeError
from .lut import LutStack, RingSetting, build_lut, lut_multiply_many
from .noise import NoiseConfig, make_rng, perturb

_INPUT_TOL = 1e-9


def _columns(v) -> np.ndarray:
    """`v` as float (..., dim, batch) columns; a scalar or a lone vector raises."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2:
        raise ShapeError(f"operands must be (dim, batch) columns or stacks of them, got {v.shape}")
    return v


def _check_unit_interval(x):
    """`x` clipped to [0, 1]; values further out than _INPUT_TOL, or NaN, raise.
    Returns `x` itself when it already lies in [0, 1]."""
    # NaN propagates into both; the initial values let an empty batch pass.
    lo, hi = x.min(initial=np.inf), x.max(initial=-np.inf)
    if not (lo >= -_INPUT_TOL and hi <= 1.0 + _INPUT_TOL):
        raise EncodingError("forward inputs must lie in [0, 1]")
    if lo >= 0.0 and hi <= 1.0:
        return x
    return np.clip(x, 0.0, 1.0)


class IdealProgrammed:
    """Exact electronic reference for a programmed matrix or stack."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)

    def forward(self, x):
        return self.matrix @ _columns(x)

    def backward(self, s):
        return self.matrix.swapaxes(-1, -2) @ _columns(s)

    def view(self, index: int, out_dim: int, in_dim: int) -> "IdealProgrammed":
        """Matrix `index` of the stack's leading axis, cut to (out_dim, in_dim).
        A C-ordered copy, so its products have the bits of its own program."""
        return IdealProgrammed(np.ascontiguousarray(self.matrix[index, ..., :out_dim, :in_dim]))


class IdealBackend:
    def program(self, matrix: np.ndarray) -> IdealProgrammed:
        """A snapshot of `matrix`: a copy, so writing into `matrix` afterwards
        leaves the program's products as they were."""
        return IdealProgrammed(np.array(matrix, dtype=float))


class _PhysicalBackend:
    """The crossbar array, its measurement noise and `program`, shared by
    the physical backends; `programmed` is the backend's handle type.

    `noise` is None, one NoiseConfig, whose stream perturbs every reading
    whole, or a sequence of them, one per matrix on the stack's last leading
    axis: stream k perturbs slice k of that axis in every reading. One
    stream's draws for a whole one-slice reading are its draws for that
    slice, so a one-stream sequence reads as its single NoiseConfig does.
    Every reading is the mean of `time_average_count` (at least 1) repeats,
    which each stream draws in one call, as consecutive draws.
    """

    programmed: type

    def __init__(
        self,
        array: CrossbarArray,
        noise: NoiseConfig | Sequence[NoiseConfig] | None,
        time_average_count: int,
    ):
        self.array = array
        self.time_average_count = int(time_average_count)
        if self.time_average_count < 1:
            raise ValueError(f"time_average_count must be >= 1, got {time_average_count}")
        self.stream_count = None
        if noise is not None and not isinstance(noise, NoiseConfig):
            self.stream_count = len(noise)
            noise = noise[0] if self.stream_count == 1 else list(noise)
        self.noise = noise
        self._rng = self._slice_rngs = None
        if isinstance(noise, NoiseConfig):
            self._rng = make_rng(noise.seed, noise.stream)
        elif noise is not None:
            self._slice_rngs = [make_rng(cfg.seed, cfg.stream) for cfg in noise]

    def program(self, matrix: np.ndarray):
        return self.programmed(self, matrix)

    def _measure(self, clean: np.ndarray, axis: int) -> np.ndarray:
        """One detector reading of the raw product powers `clean`, which are
        non-negative before any decode; `axis` is the stack's last leading
        axis, the one that per-slice streams zip over. Each stream draws
        all `time_average_count` repeats of its part in one `perturb`."""
        repeats = self.time_average_count
        if self._slice_rngs is not None:
            slices = np.moveaxis(clean, axis, 0)
            return np.stack(
                [
                    perturb(powers, cfg, rng, repeats)
                    for powers, cfg, rng in zip(slices, self.noise, self._slice_rngs)
                ],
                axis=axis,
            )
        if self._rng is not None:
            return perturb(clean, self.noise, self._rng, repeats)
        return clean


class _ProgrammedMatrix:
    """A signed matrix, or a stack (..., out, in), programmed onto a
    crossbar-sized backend.

    The handle does the whole product but the hardware. It encodes the
    matrix once, here: the padded transpose W' (the crossbar contracts over
    input rows) goes through `encode_signed`, and `_program` sets the
    backend's hardware to the unit targets. Each product pads, checks and
    encodes its inputs, asks the subclass for the clean raw products of the
    encoded inputs, measures them through the backend (`_measure`) and
    decodes. `_raw_forward(x')` ~ W'^T x' and `_raw_backward(s')` ~
    (W' s', W' 1): every backward reads its own all-ones response with its
    product, and each is measured at the shape it has read alone, the
    product first. The subclass names the operands it holds per matrix of
    the stack (`_stacked`, which a `view` slices). The handle holds only its
    program, so no product changes it.
    """

    def __init__(self, backend, matrix: np.ndarray):
        self.backend = backend
        self.n = backend.array.n
        m = np.asarray(matrix, dtype=float)
        streams = backend.stream_count
        if streams is not None and m.shape[-3:-2] != (streams,):
            raise ValueError(f"{streams} noise streams need {streams} matrices on the last stack axis")
        targets, self.encoding = encode_signed(pad(m.swapaxes(-1, -2), self.n))
        self._program(targets)
        self.out_dim, self.in_dim = m.shape[-2:]

    def view(self, index: int, out_dim: int, in_dim: int):
        """Matrix `index` of the stack's leading axis as the program of its
        own (out_dim, in_dim) matrix, which the stack holds zero-padded.
        Zeros padded before `pad` give the padded transpose that programming
        the matrix alone gives, so the view's encoding and operands are bit
        for bit that program's. It shares the stack's operands (slices of
        `_stacked`)."""
        # Copied attribute by attribute: a copy through `__dict__` would slow
        # every later attribute read.
        view = object.__new__(type(self))
        for name, value in vars(self).items():
            setattr(view, name, value[index] if name in self._stacked else value)
        view.out_dim, view.in_dim = out_dim, in_dim
        return view

    def _padded(self, v, dim: int, what: str) -> np.ndarray:
        """`v` as float (..., dim, batch) columns (`_columns`), zero-padded
        to n rows, C-ordered. It may be `v` itself, so no caller writes into
        it. (A Fortran-ordered operand would change the bits of the BLAS
        product, hence the copy of a transposed view.)"""
        v = _columns(v)
        if v.shape[-2] != dim:
            raise ValueError(f"expected {what} dim {dim}, got {v.shape[-2]}")
        if dim == self.n:
            return np.ascontiguousarray(v)
        out = np.zeros(v.shape[:-2] + (self.n, v.shape[-1]))
        out[..., :dim, :] = v
        return out

    def forward(self, x):
        """~ W @ x. The result is a new array (or a view of one) that shares
        no memory with `x` or the program: the caller may overwrite it, and
        the next product reads the same bits."""
        xp = _check_unit_interval(self._padded(x, self.in_dim, "input"))
        raw = self._raw_forward(xp)
        sums = xp.sum(axis=-2, keepdims=True)
        return decode_output(raw, self.encoding, None, None, sums, self.n)[..., : self.out_dim, :]

    def backward(self, s):
        """~ W.T @ s, a new array under `forward`'s contract."""
        s_prime, scales, offsets = encode_signed_columns(self._padded(s, self.out_dim, "error"))
        raw, ones = self._raw_backward(s_prime)
        sums = s_prime.sum(axis=-2, keepdims=True)
        y = decode_output(raw, self.encoding, scales, offsets, sums, self.n, ones)
        return y[..., : self.in_dim, :]


class PhotonicProgrammed(_ProgrammedMatrix):
    """A signed matrix held as heater settings on a crossbar."""

    _stacked = ("encoding", "compiled", "_eff_fwd_t", "_eff_bwd")

    def _program(self, targets):
        self.compiled = self.backend.compiler.compile_unit(targets)
        array = self.backend.array
        # Both directions scale one drop tensor of the final heaters.
        summed = array.summed_drop(self.compiled.heater_settings_mw)
        self._eff_fwd_t = array.effective_matrix(summed, FORWARD).swapaxes(-1, -2)
        self._eff_bwd = array.effective_matrix(summed, BACKWARD)

    def _raw_forward(self, xp):
        return self.backend._measure(self._eff_fwd_t @ xp, -3)

    def _raw_backward(self, s_prime):
        # Two products: BLAS may read one column apart from several.
        measure = self.backend._measure
        raw = measure(self._eff_bwd @ s_prime, -3)
        return raw, measure(self._eff_bwd @ np.ones((self.n, 1)), -3)


class PhotonicBackend(_PhysicalBackend):
    """Routes products through the crossbar propagation model."""

    programmed = PhotonicProgrammed

    def __init__(
        self,
        array: CrossbarArray,
        noise: NoiseConfig | Sequence[NoiseConfig] | None = None,
        time_average_count: int = 1,
    ):
        super().__init__(array, noise, time_average_count)
        self.compiler = MatrixCompiler(array)


class LutProgrammed(_ProgrammedMatrix):
    """A signed matrix held as per-element LUT ring settings, one per direction."""

    _stacked = ("encoding", "_rings_fwd", "_rings_bwd")

    def _program(self, targets):
        # targets[..., i, j] multiplies input i. The rings hold their targets
        # for the program's life: each direction's ring axis is set here,
        # once, for every element and any batch.
        tables = self.backend.tables
        self._rings_fwd = tables[FORWARD].set_rings(targets[..., None])
        self._rings_bwd = tables[BACKWARD].set_rings(targets[..., None])

    def _raw_forward(self, xp):
        # y'[j, b] = sum_i lut_ij(x[i, b], T'[i, j]), each product measured.
        est = self.backend.element_products(xp[..., :, None, :], self._rings_fwd, FORWARD)
        return self.backend._measure(est, -4).sum(axis=-3)

    def _raw_backward(self, s_prime):
        # y'[i, b] = sum_j lut_ij(s'[j, b], T'[i, j]). The all-ones pass is a
        # column of ones after s', in the same LUT read; the two parts are
        # measured apart, each C-ordered (a sum over a strided part can
        # differ in its last bits from the sum over the part read alone).
        batch = s_prime.shape[-1]
        s_prime = np.concatenate((s_prime, np.ones(s_prime.shape[:-1] + (1,))), axis=-1)
        est = self.backend.element_products(s_prime[..., None, :, :], self._rings_bwd, BACKWARD)
        return tuple(
            self.backend._measure(np.ascontiguousarray(part), -4).sum(axis=-2)
            for part in (est[..., :batch], est[..., batch:])
        )


class LutBackend(_PhysicalBackend):
    """Performs every multiplication by fetching calibration LUT entries.

    One LUT pair is calibrated per ring design, on the design's first
    element; a uniform grid is one design. Both directions come from one
    calibration sweep (`build_lut`) over every design's element: each ring
    setting is read at the element's forward and backward output ports
    through `CrossbarArray.read`. Each direction's LUTs are stacked into
    its table, so every product is one vectorised read.
    """

    programmed = LutProgrammed

    def __init__(
        self,
        array: CrossbarArray,
        noise: NoiseConfig | Sequence[NoiseConfig] | None = None,
        time_average_count: int = 1,
    ):
        super().__init__(array, noise, time_average_count)
        n = array.n
        designs: dict[tuple, list] = {}
        for k, ring in enumerate(r for row in array.ring_grid.rings for r in row):
            designs.setdefault((ring.fabrication_detuning_nm, ring.self_coupling_t1), []).append(k)
        design = np.empty(n * n, dtype=int)
        for d, members in enumerate(designs.values()):
            design[members] = d
        rows, cols = np.divmod([members[0] for members in designs.values()], n)
        # Ring design of element (row, col), broadcast over the batch axis.
        design = design.reshape(n, n, 1)
        luts = build_lut(array, rows, cols)
        self.tables = {direction: LutStack(lut, design) for direction, lut in luts.items()}

    def element_products(self, values, rings: RingSetting, direction: str) -> np.ndarray:
        """Clean LUT product estimates values * targets for every grid
        element, for the targets that `rings` holds (`LutStack.set_rings` of
        `tables[direction]`); the handle measures them.

        `values` broadcast against the ring setting to (..., n, n, batch).
        Each ring reads its design's LUT, all in one vectorised call;
        estimates are clamped to the calibrated span (a LUT cannot represent
        levels outside its windows).
        """
        est, _ = lut_multiply_many(self.tables[direction], values, rings)
        return est


def make_backend(
    name: str,
    array: CrossbarArray | None = None,
    noise: NoiseConfig | Sequence[NoiseConfig] | None = None,
    time_average_count: int = 1,
):
    """Factory used by the experiment layer; `noise` as in `_PhysicalBackend`."""
    if name == "ideal":
        return IdealBackend()
    if array is None:
        raise ValueError(f"backend {name!r} requires a crossbar array")
    if name == "photonic":
        return PhotonicBackend(array, noise=noise, time_average_count=time_average_count)
    if name == "lut":
        return LutBackend(array, noise=noise, time_average_count=time_average_count)
    raise ValueError(f"unknown backend {name!r}")
