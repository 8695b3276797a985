"""Thermo-optic device primitives: MZI amplitude modulators and add-drop microrings.

This module owns one device at a time: the MZI fringe and its heater
(`PhaseShifter`, `MziDevice`), and one ring's add-drop lineshape, its
thermal tuning and the lineshape's inverse (`AddDropLineshape`,
`RingDevice`). A grid of rings, its per-ring constants and the heater solve
of a program live in `xbar.crossbar.RingGrid`, which evaluates the same
lineshape and inverse on stacked fields.

All transfer functions are power transmittances (dimensionless, in [0, 1]).
Wavelengths are in nm, heater powers in mW, radii in um. Devices are frozen
after construction; every method is a pure function of (device, inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, PowerRangeError

# Defaults follow the fabricated 4x4 demonstrator: 19.3 mW per pi phase
# shift, 20 um ring radius, 4.4 nm FSR near 1550 nm, 1.3 dB/cm propagation
# loss. The group index is fixed by inverting FSR = lam^2/(n_g * 2*pi*R).
DEFAULT_POWER_PER_PI_MW = 19.3
DEFAULT_RADIUS_UM = 20.0
DEFAULT_GROUP_INDEX = 4.345
DEFAULT_REFERENCE_NM = 1550.0
WAVEGUIDE_LOSS_DB_PER_CM = 1.3

# One FSR of ring tuning costs 2*P_pi of heater power by default; only the
# ratio (nm/mW) enters any experiment. Every heater stops at 4*P_pi.
DEFAULT_SHIFT_NM_PER_MW = 4.4 / (2.0 * DEFAULT_POWER_PER_PI_MW)
DEFAULT_MAX_POWER_MW = 4.0 * DEFAULT_POWER_PER_PI_MW


def read_only(value):
    """`value`, made read-only if it is an array: for arrays computed once and
    shared by every later call, which an in-place write must not corrupt."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _out(x):
    """`x` as a ufunc's output: in place for an array, None for a scalar,
    which is immutable."""
    return x if isinstance(x, np.ndarray) else None


def db_to_power(db: float) -> float:
    """Convert a loss in dB to a power transmission factor."""
    return 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class PhaseShifter:
    """Thermo-optic heater: phase = initial_phase + pi * power / power_per_pi."""

    power_per_pi_mw: float = DEFAULT_POWER_PER_PI_MW
    initial_phase_rad: float = 0.0
    max_power_mw: float = DEFAULT_MAX_POWER_MW

    def __post_init__(self):
        if self.power_per_pi_mw <= 0:
            raise ValueError("power_per_pi_mw must be positive")
        if self.max_power_mw < 0:
            raise ValueError("max_power_mw must be non-negative")

    def phase(self, power_mw):
        """Phase in radians for a heater power; raises PowerRangeError out of
        range or for NaN."""
        p = np.asarray(power_mw, dtype=float)
        if not ((0.0 <= p) & (p <= self.max_power_mw)).all():
            raise PowerRangeError(
                f"heater power must lie in [0, {self.max_power_mw}] mW"
            )
        out = self.initial_phase_rad + math.pi * p / self.power_per_pi_mw
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MziDevice:
    """Two-arm interferometer used as an amplitude modulator.

    The cross-port transmittance follows the ideal 50:50 interference form
    sin^2(phase/2), clipped from below at the extinction-ratio floor and
    scaled by the excess loss. extinction_ratio_db=None models an ideal
    (infinite-ER) device.
    """

    shifter: PhaseShifter = field(default_factory=PhaseShifter)
    extinction_ratio_db: float | None = None
    excess_loss_db: float = 0.0

    def __post_init__(self):
        if self.extinction_ratio_db is not None and self.extinction_ratio_db <= 0:
            raise ValueError("extinction_ratio_db must be positive or None")
        if self.excess_loss_db < 0:
            raise ValueError("excess_loss_db must be non-negative")

    @property
    def floor(self) -> float:
        """Minimum relative transmittance set by the extinction ratio."""
        if self.extinction_ratio_db is None:
            return 0.0
        return db_to_power(self.extinction_ratio_db)

    def transmittance(self, power_mw):
        """Power transmittance at a heater power, in [floor, 1] * excess loss."""
        phase = self.shifter.phase(power_mw)
        raw = np.sin(np.asarray(phase) / 2.0) ** 2
        t = np.maximum(raw, self.floor) * db_to_power(self.excess_loss_db)
        return t if t.ndim else float(t)

    def power_for(self, target):
        """Smallest heater power whose relative transmittance equals `target`.

        `target` is relative to the fringe maximum (excess loss divided out)
        and is clamped to the achievable [floor, 1] interval. The phases
        that give it are +/- theta modulo 2 pi; the power is the smaller
        phase advance from the initial phase onto one of them.
        """
        t = np.clip(np.asarray(target, dtype=float), self.floor, 1.0)
        theta = 2.0 * np.arcsin(np.sqrt(t))  # principal phase in [0, pi]
        phi0 = self.shifter.initial_phase_rad
        advance = np.minimum((theta - phi0) % (2.0 * math.pi), (-theta - phi0) % (2.0 * math.pi))
        p = advance * self.shifter.power_per_pi_mw / math.pi
        # Written so that a NaN target, whose power is NaN, raises too.
        if not np.logical_and.reduce(p <= self.shifter.max_power_mw, axis=None):
            raise PowerRangeError("target transmittance requires power beyond max_power")
        return p if p.ndim else float(p)


@dataclass(frozen=True)
class AddDropLineshape:
    """Add-drop power transfer of one ring (scalar fields) or a grid of rings
    (array fields broadcasting against the wavelengths).

    With round-trip amplitude a, self-coupling coefficients t1, t2,
    k_i^2 = 1 - t_i^2 and round-trip phase phi:

        T_drop    = k1^2 k2^2 a / ((1 - t1 t2 a)^2 + 4 t1 t2 a sin^2(phi/2))
        T_through = ((t2 a - t1)^2 + 4 t1 t2 a sin^2(phi/2)) / (same denominator)

    T_drop carries the drop-port excess loss. The effective index is treated
    to first order in wavelength through the group index. The fields hold
    the wavelength-independent factors, so a grid computes them once; the
    group index and the resonance phase serve the inverse
    (`RingDevice.detuning_for_relative_drop`), whose wavelength-independent
    terms (`resonance_wavelength`, `half_fsr`) are computed once per
    lineshape object. No field depends on the ring's heater or fabrication
    detuning.
    """

    n0: float  # effective index at the reference wavelength
    dispersion: float  # n0 - group index
    lam0: float  # reference wavelength, nm
    length: float  # circumference, nm
    denom0: float  # (1 - t1 t2 a)^2
    four_ta: float  # 4 t1 t2 a
    drop_num: float  # k1^2 k2^2 a
    drop_loss: float  # drop-port excess loss as a power factor
    through_num: float  # (t2 a - t1)^2
    group_index: float
    resonance_phase: float  # 2 pi m for the resonance order m

    @classmethod
    def stack(cls, shapes: list) -> "AddDropLineshape":
        """Grid lineshape from a square list of per-ring ones; fields get shape
        (n, n, 1) and are read-only."""
        return cls(
            **{
                f.name: read_only(
                    np.array([[getattr(s, f.name) for s in row] for row in shapes])[:, :, None]
                )
                for f in fields(cls)
            }
        )

    def __call__(self, lam):
        """(T_drop, T_through) at wavelengths `lam` in the ring's unshifted frame."""
        q = self._four_ta_sin2(lam)
        through = (self.through_num + q) / (self.denom0 + q)
        return self._drop_from(q), through

    def drop(self, lam):
        """T_drop alone at wavelengths `lam`: the same values as `__call__`,
        computed in place on one new array."""
        return self._drop_from(self._four_ta_sin2(lam))

    def _four_ta_sin2(self, lam):
        """4 t1 t2 a sin^2(phi/2) at `lam` (broadcast against the fields), on
        a new array where `lam` is an array; `lam` is left unchanged."""
        x = lam - self.lam0
        x *= self.dispersion
        x /= self.lam0
        x += self.n0  # n_eff
        x *= 2.0 * math.pi
        x *= self.length
        x /= lam  # phi
        x /= 2.0
        x = np.sin(x, out=_out(x))
        x *= x
        x *= self.four_ta
        return x

    def _drop_from(self, q):
        """T_drop from 4 t1 t2 a sin^2(phi/2), computed in place on `q`."""
        q += self.denom0  # the denominator
        q = np.divide(self.drop_num, q, out=_out(q))
        q *= self.drop_loss
        return q

    @property
    def peak_drop(self):
        """T_drop exactly on resonance (includes the excess loss)."""
        return self.drop_num / self.denom0 * self.drop_loss

    @cached_property
    def resonance_wavelength(self):
        """Wavelength of the resonance order, in the unshifted frame."""
        return read_only(self.wavelength_at_phase(self.resonance_phase))

    @cached_property
    def half_fsr(self):
        """Half the free spectral range at the reference wavelength."""
        return read_only(self.lam0**2 / (self.group_index * self.length) / 2.0)

    @cached_property
    def _two_pi_length(self):
        """2 pi L, cached: `wavelength_at_phase` reads it on every call."""
        return read_only(2.0 * math.pi * self.length)

    @cached_property
    def _dispersion_per_lam0(self):
        """dispersion / lam0, cached likewise."""
        return read_only(self.dispersion / self.lam0)

    def wavelength_at_phase(self, phi):
        """Wavelength whose round-trip phase equals phi in the unshifted frame.

        n_eff is linear in wavelength, so phi(lam) inverts in closed form.
        """
        return self.group_index / (phi / self._two_pi_length - self._dispersion_per_lam0)


@dataclass(frozen=True)
class RingDevice:
    """Add-drop microring resonator with thermo-optic resonance tuning.

    Power transfer follows `AddDropLineshape`. The ring's heater is a rate
    and a cap: heater power in [0, max_power_mw] and the fabrication
    detuning translate the spectrum rigidly, the resonance red-shifting by
    resonance_shift_per_mw per mW. Every field changes the drop spectrum or
    the heater range.
    """

    radius_um: float = DEFAULT_RADIUS_UM
    group_index: float = DEFAULT_GROUP_INDEX
    effective_index_at_ref: float = 2.4052290774762684  # resonance order 195 at 1550.0 nm
    reference_wavelength_nm: float = DEFAULT_REFERENCE_NM
    self_coupling_t1: float = 0.979
    self_coupling_t2: float = 0.979
    round_trip_amplitude: float = 0.99812
    resonance_shift_per_mw: float = DEFAULT_SHIFT_NM_PER_MW
    max_power_mw: float = DEFAULT_MAX_POWER_MW
    drop_excess_loss_db: float = 0.0
    fabrication_detuning_nm: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.self_coupling_t1 < 1.0 and 0.0 < self.self_coupling_t2 < 1.0):
            raise ValueError("self-coupling coefficients must lie in (0, 1)")
        if not (0.0 < self.round_trip_amplitude <= 1.0):
            raise ValueError("round_trip_amplitude must lie in (0, 1]")
        if self.radius_um <= 0 or self.group_index <= 0:
            raise ValueError("radius and group index must be positive")
        if self.max_power_mw < 0:
            raise ValueError("max_power_mw must be non-negative")

    # -- geometry -----------------------------------------------------------

    @property
    def circumference_nm(self) -> float:
        return 2.0 * math.pi * self.radius_um * 1e3

    def fsr_nm(self, wavelength_nm: float | None = None) -> float:
        """Free spectral range lam^2 / (n_g * 2*pi*R)."""
        lam = self.reference_wavelength_nm if wavelength_nm is None else wavelength_nm
        return lam**2 / (self.group_index * self.circumference_nm)

    @property
    def resonance_order(self) -> int:
        return round(
            self.effective_index_at_ref
            * self.circumference_nm
            / self.reference_wavelength_nm
        )

    def resonance_wavelength_nm(self, heater_power_mw: float = 0.0) -> float:
        """Resonance nearest the reference wavelength at a heater setting."""
        lam0 = self.reference_wavelength_nm
        n0 = self.effective_index_at_ref
        ng = self.group_index
        length = self.circumference_nm
        m = self.resonance_order
        # Solve n_eff(lam) * L = m * lam with linear-dispersion n_eff.
        base = length * ng / (m - (n0 - ng) * length / lam0)
        return base + self._shift_nm(heater_power_mw)

    def _shift_nm(self, heater_power_mw) -> float:
        p = np.asarray(heater_power_mw, dtype=float)
        if not ((0.0 <= p) & (p <= self.max_power_mw)).all():
            raise PowerRangeError(f"ring heater power must lie in [0, {self.max_power_mw}] mW")
        return self.fabrication_detuning_nm + self.resonance_shift_per_mw * p

    # -- transfer functions -------------------------------------------------

    @property
    def lineshape(self) -> AddDropLineshape:
        t1, t2, a = self.self_coupling_t1, self.self_coupling_t2, self.round_trip_amplitude
        ta = t1 * t2 * a
        return AddDropLineshape(
            n0=self.effective_index_at_ref,
            dispersion=self.effective_index_at_ref - self.group_index,
            lam0=self.reference_wavelength_nm,
            length=self.circumference_nm,
            denom0=(1.0 - ta) ** 2,
            four_ta=4.0 * ta,
            drop_num=(1.0 - t1**2) * (1.0 - t2**2) * a,
            drop_loss=db_to_power(self.drop_excess_loss_db),
            through_num=(t2 * a - t1) ** 2,
            group_index=self.group_index,
            resonance_phase=2.0 * math.pi * self.resonance_order,
        )

    def drop_through(self, wavelength_nm, heater_power_mw=0.0):
        """(T_drop, T_through) power transmittances; vectorized over wavelength."""
        lam = np.asarray(wavelength_nm, dtype=float) - self._shift_nm(heater_power_mw)
        t_drop, t_through = self.lineshape(lam)
        if np.ndim(t_drop):
            return t_drop, t_through
        return float(t_drop), float(t_through)

    def fwhm_nm(self) -> float:
        """Analytic full-width half-maximum of the drop resonance."""
        ta = self.self_coupling_t1 * self.self_coupling_t2 * self.round_trip_amplitude
        return self.fsr_nm() * (1.0 - ta) / (math.pi * math.sqrt(ta))

    def quality_factor(self) -> float:
        return self.reference_wavelength_nm / self.fwhm_nm()

    def detuning_for_relative_drop(self, relative, shape: AddDropLineshape | None = None):
        """Detuning (nm, >= 0) at which T_drop equals `relative` times its peak.

        Exact inverse of the add-drop lineshape including the wavelength
        dependence of the round-trip phase; vectorized over `relative`, whose
        values must lie in (0, 1]. A scalar input returns a float. Beyond the
        lineshape floor the ring parks half an FSR away.

        `shape` defaults to this ring's lineshape. A stacked grid lineshape
        (the `solve` field of `RingGrid.tiled`'s record, tiled to a stack of
        matrices) solves every ring of the grid in one call, with
        `relative` broadcast against its fields. The inverse does not
        depend on fabrication detuning: it is measured from each ring's own
        resonance.
        """
        shape = self.lineshape if shape is None else shape
        r = np.asarray(relative, dtype=float)
        if not np.logical_and.reduce((r > 0.0) & (r <= 1.0), axis=None):
            raise ValueError("relative drop level must lie in (0, 1]")
        s2 = np.divide(1.0, r)
        s2 -= 1.0
        s2 = np.multiply(shape.denom0, s2)  # a new array of the broadcast shape
        s2 /= shape.four_ta
        # numpy's arcsin gives the same bits whatever the batch length (its
        # SIMD loop may differ from the C library's asin in the last bit), so
        # a stack solves each matrix as alone. Values with s2 >= 1 are masked
        # below.
        dphi = np.minimum(s2, 1.0)
        dphi = np.sqrt(dphi, out=_out(dphi))
        dphi = np.arcsin(dphi, out=_out(dphi))
        dphi *= 2.0
        dphi += shape.resonance_phase
        # Red-shifting the ring moves the operating point blue of resonance,
        # where the round-trip phase is larger.
        det = shape.resonance_wavelength - shape.wavelength_at_phase(dphi)
        out = np.where(s2 >= 1.0, shape.half_fsr, det)
        return out if out.ndim else float(out)

    def designed_for(self, channel_nm: float) -> "RingDevice":
        """Copy of this ring whose zero-power resonance sits at `channel_nm`.

        Solves the effective index so a resonance order lands exactly on the
        channel (fabrication detuning still applies on top).
        """
        length = self.circumference_nm
        lam0 = self.reference_wavelength_nm
        ng = self.group_index
        m = self.resonance_order
        # Invert resonance_wavelength_nm's base expression for n0.
        n0 = (m * channel_nm + (channel_nm - lam0) * ng * length / lam0) / (
            length * (1.0 + (channel_nm - lam0) / lam0)
        )
        return replace(self, effective_index_at_ref=n0)


def couplings_for_q(
    target_q: float,
    radius_um: float = DEFAULT_RADIUS_UM,
    group_index: float = DEFAULT_GROUP_INDEX,
    round_trip_amplitude: float = 0.99812,
    wavelength_nm: float = DEFAULT_REFERENCE_NM,
) -> tuple[float, float]:
    """Symmetric (t1, t2) realizing a target loaded quality factor.

    Solves Q = lam / FWHM with FWHM = FSR * (1 - t^2 a) / (pi * sqrt(t^2 a)).
    Raises InfeasibleError when the target lies beyond the loss-limited Q.
    """
    if target_q <= 0:
        raise ValueError("target_q must be positive")
    length = 2.0 * math.pi * radius_um * 1e3
    fsr = wavelength_nm**2 / (group_index * length)
    g = wavelength_nm * math.pi / (target_q * fsr)
    sqrt_v = (-g + math.sqrt(g * g + 4.0)) / 2.0
    v = sqrt_v * sqrt_v  # v = t^2 * a
    a = round_trip_amplitude
    if v >= a:
        q_max = wavelength_nm * math.pi * math.sqrt(a) / (fsr * (1.0 - a)) if a < 1.0 else math.inf
        raise InfeasibleError(
            f"Q={target_q:.3g} is loss-limited (max achievable ~{q_max:.3g} at t=1)"
        )
    t = math.sqrt(v / a)
    return t, t


def sweep_spectrum(
    dev: RingDevice,
    start_nm: float,
    stop_nm: float,
    steps: int,
    heater_power_mw: float = 0.0,
):
    """Uniformly sampled (wavelength, T_drop, T_through) spectrum."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    wl = np.linspace(start_nm, stop_nm, steps)
    t_drop, t_through = dev.drop_through(wl, heater_power_mw)
    return wl, t_drop, t_through


@dataclass(frozen=True)
class WavelengthGrid:
    """Ordered WDM channel plan, all channels within one FSR of the design."""

    channels_nm: tuple
    reference_nm: float = DEFAULT_REFERENCE_NM

    def __post_init__(self):
        ch = np.asarray(self.channels_nm, dtype=float)
        if ch.ndim != 1 or len(ch) == 0:
            raise ValueError("channels must be a non-empty 1-D sequence")
        if np.any(np.diff(ch) <= 0):
            raise ValueError("channels must be strictly increasing")
        object.__setattr__(self, "channels_nm", tuple(float(c) for c in ch))

    def __len__(self) -> int:
        return len(self.channels_nm)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.channels_nm)

    @property
    def spacing_nm(self) -> float:
        """Minimum inter-channel spacing."""
        if len(self.channels_nm) == 1:
            return math.inf
        return float(np.diff(self.array).min())

    @classmethod
    def c_band_4(cls) -> "WavelengthGrid":
        """The four-channel plan of the fabricated demonstrator."""
        return cls(channels_nm=(1549.00, 1549.75, 1550.50, 1551.25), reference_nm=1550.0)

    @classmethod
    def evenly_spaced(
        cls, n: int, reference_nm: float = DEFAULT_REFERENCE_NM, fsr_nm: float = 4.4
    ) -> "WavelengthGrid":
        """n channels evenly distributed within one FSR, centered on reference."""
        k = np.arange(n)
        ch = reference_nm - fsr_nm / 2.0 + (k + 0.5) * fsr_nm / n
        return cls(channels_nm=tuple(ch), reference_nm=reference_nm)
