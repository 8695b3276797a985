"""Device-model tests: phase shifters, MZI fringes, add-drop ring spectra."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from xbar.devices import (
    MziDevice,
    PhaseShifter,
    RingDevice,
    WavelengthGrid,
    couplings_for_q,
    sweep_spectrum,
)
from xbar.errors import InfeasibleError, PowerRangeError

# Measurements of a sampled spectrum, the oracles for the analytic resonance
# positions, FWHM and Q below.


def find_drop_peaks(wavelength_nm: np.ndarray, t_drop: np.ndarray) -> list[float]:
    """Wavelengths of local maxima of a sampled drop spectrum above half scale."""
    t = np.asarray(t_drop)
    wl = np.asarray(wavelength_nm)
    thresh = t.max() / 2.0
    peaks = []
    for i in range(1, len(t) - 1):
        if t[i] >= t[i - 1] and t[i] > t[i + 1] and t[i] > thresh:
            # Parabolic refinement around the sample peak.
            denom = t[i - 1] - 2 * t[i] + t[i + 1]
            offset = 0.5 * (t[i - 1] - t[i + 1]) / denom if denom != 0 else 0.0
            peaks.append(float(wl[i] + offset * (wl[1] - wl[0])))
    return peaks


def measure_fwhm(wavelength_nm: np.ndarray, t_drop: np.ndarray) -> float:
    """FWHM of the tallest drop peak, via interpolated half-max crossings."""
    t = np.asarray(t_drop, dtype=float)
    wl = np.asarray(wavelength_nm, dtype=float)
    i_pk = int(np.argmax(t))
    half = t[i_pk] / 2.0

    def crossing(side: int) -> float:
        j = i_pk
        while 0 < j < len(t) - 1 and t[j + side] > half:
            j += side
        j2 = j + side
        if j2 < 0 or j2 >= len(t):
            raise ValueError("half-max crossing outside the scanned window")
        frac = (t[j] - half) / (t[j] - t[j2])
        return wl[j] + frac * (wl[j2] - wl[j])

    return abs(crossing(+1) - crossing(-1))


class TestPhaseShifter:
    def test_pi_at_power_per_pi(self):
        ps = PhaseShifter(power_per_pi_mw=19.3)
        assert ps.phase(19.3) == pytest.approx(math.pi, rel=1e-15)

    def test_zero_power_gives_initial_phase(self):
        ps = PhaseShifter(initial_phase_rad=0.7)
        assert ps.phase(0.0) == 0.7

    def test_linearity(self):
        ps = PhaseShifter(power_per_pi_mw=19.3)
        assert ps.phase(9.65) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_power_out_of_range(self):
        ps = PhaseShifter(max_power_mw=10.0)
        with pytest.raises(PowerRangeError):
            ps.phase(10.1)
        with pytest.raises(PowerRangeError):
            ps.phase(-0.1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PhaseShifter(power_per_pi_mw=0.0)

    def test_nan_power_is_rejected(self):
        with pytest.raises(PowerRangeError):
            PhaseShifter().phase(np.array([1.0, math.nan]))
        with pytest.raises(PowerRangeError):
            MziDevice().transmittance(math.nan)


class TestMzi:
    def test_full_transfer_at_pi(self):
        dev = MziDevice(excess_loss_db=0.5)
        t = dev.transmittance(dev.shifter.power_per_pi_mw)
        assert t == pytest.approx(10 ** (-0.05), rel=1e-12)

    def test_null_state_at_zero_phase(self):
        dev = MziDevice(extinction_ratio_db=51.0)
        assert dev.transmittance(0.0) == pytest.approx(10 ** (-5.1), rel=1e-12)

    def test_ideal_null_is_zero(self):
        assert MziDevice().transmittance(0.0) == 0.0

    def test_worst_case_fringe_extinction(self):
        # Appendix-A worst case: full fringe over one period keeps ER >= 37.6 dB.
        dev = MziDevice(extinction_ratio_db=37.6)
        p = np.linspace(0.0, 2 * dev.shifter.power_per_pi_mw, 2001)
        t = dev.transmittance(p)
        assert t.max() == pytest.approx(1.0, abs=1e-9)
        er_db = 10 * np.log10(t.max() / t.min())
        assert er_db >= 37.6 - 1e-9

    def test_heater_periodicity(self):
        dev = MziDevice(shifter=PhaseShifter(initial_phase_rad=0.3))
        p = np.linspace(0.0, 2 * dev.shifter.power_per_pi_mw, 57)
        t1 = dev.transmittance(p)
        t2 = dev.transmittance(p + 2 * dev.shifter.power_per_pi_mw)
        assert np.abs(t1 - t2).max() < 1e-12

    def test_monotone_on_half_period(self):
        dev = MziDevice()
        p = np.linspace(0.0, dev.shifter.power_per_pi_mw, 500)
        t = dev.transmittance(p)
        assert np.all(np.diff(t) > 0)

    def test_power_for_round_trip(self):
        rng = np.random.default_rng(3)
        for phi0 in (0.0, 0.4, 2.1, 5.9):
            dev = MziDevice(shifter=PhaseShifter(initial_phase_rad=phi0))
            targets = rng.uniform(0.0, 1.0, 32)
            powers = dev.power_for(targets)
            assert np.all(powers >= 0)
            assert np.abs(dev.transmittance(powers) - targets).max() < 1e-15

    def test_power_for_is_the_smallest_power_on_the_fringe(self):
        # Every phase 2 pi k +/- theta gives the target; the power is the
        # smallest non-negative advance onto one of them.
        rng = np.random.default_rng(4)
        for phi0 in (0.0, 0.4, 2.1, 5.9):
            dev = MziDevice(shifter=PhaseShifter(initial_phase_rad=phi0))
            targets = [0.0, 1.0, *rng.uniform(0.0, 1.0, 16).tolist()]
            powers = dev.power_for(np.array(targets))
            for target, power in zip(targets, powers.tolist()):
                theta = 2.0 * math.asin(math.sqrt(target))
                advances = [
                    2.0 * math.pi * k + sign * theta - phi0 for k in range(-1, 3) for sign in (1.0, -1.0)
                ]
                smallest = min(a for a in advances if a >= -1e-12) * dev.shifter.power_per_pi_mw / math.pi
                assert power == pytest.approx(max(smallest, 0.0), abs=1e-12)

    def test_power_for_rejects_nan_targets(self):
        with pytest.raises(PowerRangeError):
            MziDevice().power_for(math.nan)
        with pytest.raises(PowerRangeError):
            MziDevice(extinction_ratio_db=37.6).power_for(np.array([0.5, math.nan]))


def settable_values(device, prefix=""):
    """(dotted name, value) of every settable value of a device, those of
    the devices it holds included."""
    for f in fields(device):
        value = getattr(device, f.name)
        if is_dataclass(value):
            yield from settable_values(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def with_value(device, dotted: str, value):
    """A copy of `device` with the settable value `dotted` replaced."""
    head, _, rest = dotted.partition(".")
    if rest:
        value = with_value(getattr(device, head), rest, value)
    return replace(device, **{head: value})


def ring_response(ring: RingDevice) -> list:
    """The ring's drop spectrum at heater powers across the default heater
    range, None for a power beyond the ring's own range."""
    wl = np.linspace(1545.0, 1555.0, 4001)
    spectra = []
    for power in (0.0, 10.0, 77.1):  # the default heater stops at 77.2 mW
        try:
            spectra.append(ring.drop_through(wl, power)[0])
        except PowerRangeError:
            spectra.append(None)
    return spectra


def test_every_settable_ring_value_changes_its_spectrum_or_heater_range():
    # No ring knob is silently ignored: 1% less of each value (or 0.01 for
    # a zero) changes the drop spectrum, or moves the heater's cap.
    base = RingDevice()
    reference = ring_response(base)
    for name, value in settable_values(base):
        changed = ring_response(with_value(base, name, 0.99 * value if value else 0.01))
        same = all(
            (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in zip(changed, reference)
        )
        assert not same, f"RingDevice.{name} changes neither the spectrum nor the heater range"


class TestRing:
    def test_nan_heater_power_is_rejected(self):
        with pytest.raises(PowerRangeError):
            RingDevice().drop_through(1550.0, math.nan)
        with pytest.raises(PowerRangeError):
            RingDevice().resonance_wavelength_nm(math.nan)

    def test_critical_transfer_on_resonance(self):
        ring = RingDevice(self_coupling_t1=0.9, self_coupling_t2=0.9, round_trip_amplitude=1.0)
        t_drop, t_through = ring.drop_through(ring.resonance_wavelength_nm())
        assert t_drop == pytest.approx(1.0, abs=1e-10)
        assert t_through == pytest.approx(0.0, abs=1e-10)

    def test_far_off_resonance_floor(self):
        # At half an FSR the round-trip phase is pi: closed-form leakage floor.
        ring = RingDevice()
        t1 = t2 = ring.self_coupling_t1
        a = ring.round_trip_amplitude
        expected = (1 - t1**2) * (1 - t2**2) * a / ((1 + t1 * t2 * a) ** 2)
        lam = ring.resonance_wavelength_nm() + ring.fsr_nm() / 2
        t_drop, _ = ring.drop_through(lam)
        assert t_drop == pytest.approx(expected, rel=1e-3)

    def test_q_3e5_fwhm_by_scan(self):
        t1, t2 = couplings_for_q(3e5, round_trip_amplitude=1.0)
        ring = RingDevice(self_coupling_t1=t1, self_coupling_t2=t2, round_trip_amplitude=1.0)
        res = ring.resonance_wavelength_nm()
        wl, t_drop, _ = sweep_spectrum(ring, res - 0.05, res + 0.05, 50001)
        fwhm = measure_fwhm(wl, t_drop)
        assert fwhm == pytest.approx(1550.0 / 3e5, rel=0.01)  # ~5.2 pm

    def test_fsr_default_geometry(self):
        ring = RingDevice()
        assert ring.fsr_nm(1550.0) == pytest.approx(4.4, abs=0.05)

    def test_fsr_inverse_proportional_to_group_index(self):
        r1 = RingDevice()
        r2 = RingDevice(group_index=2 * r1.group_index)
        assert r2.fsr_nm() == pytest.approx(r1.fsr_nm() / 2, rel=1e-12)

    def test_fsr_vanishes_for_large_ring(self):
        big = RingDevice(radius_um=2e7)
        assert big.fsr_nm() < 1e-5

    def test_drop_decreases_with_detuning_within_half_fsr(self):
        ring = RingDevice()
        res = ring.resonance_wavelength_nm()
        offsets = np.linspace(0.0, ring.fsr_nm() / 2 * 0.98, 400)
        t_drop, _ = ring.drop_through(res + offsets)
        assert np.all(np.diff(t_drop) < 0)

    def test_passivity_random_settings(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ring = RingDevice(
                self_coupling_t1=rng.uniform(0.5, 0.999),
                self_coupling_t2=rng.uniform(0.5, 0.999),
                round_trip_amplitude=rng.uniform(0.9, 1.0),
            )
            wl = rng.uniform(1546.0, 1554.0, 200)
            power = rng.uniform(0.0, 60.0)
            t_drop, t_through = ring.drop_through(wl, power)
            assert np.all(t_drop >= 0) and np.all(t_through >= 0)
            assert np.all(t_drop + t_through <= 1.0 + 1e-12)

    def test_resonance_shift_linearity_by_scan(self):
        ring = RingDevice()
        shifts = []
        for power in (0.0, 12.0):
            wl, t_drop, _ = sweep_spectrum(ring, 1548.0, 1552.0, 160001, heater_power_mw=power)
            peaks = find_drop_peaks(wl, t_drop)
            shifts.append(peaks[0])
        measured = (shifts[1] - shifts[0]) / 12.0
        assert measured == pytest.approx(ring.resonance_shift_per_mw, rel=1e-3)

    def test_direction_symmetry_of_drop(self):
        # Reciprocity: swapping the coupler roles leaves T_drop unchanged.
        fwd = RingDevice(self_coupling_t1=0.95, self_coupling_t2=0.98)
        bwd = RingDevice(self_coupling_t1=0.98, self_coupling_t2=0.95)
        wl = np.linspace(1548.0, 1552.0, 1001)
        d1, _ = fwd.drop_through(wl)
        d2, _ = bwd.drop_through(wl)
        assert np.abs(d1 - d2).max() < 1e-15

    def test_detuning_inversion_exact(self):
        rng = np.random.default_rng(5)
        ring = RingDevice().designed_for(1549.0)
        peak = ring.lineshape.peak_drop
        for rel in rng.uniform(0.01, 1.0, 25):
            det = ring.detuning_for_relative_drop(rel)
            heater = det / ring.resonance_shift_per_mw
            t_drop, _ = ring.drop_through(1549.0, heater)
            assert t_drop / peak == pytest.approx(rel, rel=1e-9)


class TestCouplingsForQ:
    @pytest.mark.parametrize("q", [1e4, 1e5, 3e5])
    def test_round_trip_q_by_scan(self, q):
        t1, t2 = couplings_for_q(q, round_trip_amplitude=1.0)
        ring = RingDevice(self_coupling_t1=t1, self_coupling_t2=t2, round_trip_amplitude=1.0)
        res = ring.resonance_wavelength_nm()
        half_window = 6.0 * 1550.0 / q
        wl, t_drop, _ = sweep_spectrum(ring, res - half_window, res + half_window, 40001)
        measured_q = res / measure_fwhm(wl, t_drop)
        assert measured_q == pytest.approx(q, rel=0.01)

    def test_lossless_weak_coupling_limit(self):
        t_lo, _ = couplings_for_q(1e4, round_trip_amplitude=1.0)
        t_hi, _ = couplings_for_q(1e9, round_trip_amplitude=1.0)
        assert t_hi > t_lo
        assert t_hi > 0.99999

    def test_loss_limited_q_raises(self):
        with pytest.raises(InfeasibleError):
            couplings_for_q(1e7, round_trip_amplitude=0.998)


class TestSweepSpectrum:
    def test_two_dips_one_fsr_apart(self):
        ring = RingDevice()
        wl, t_drop, _ = sweep_spectrum(ring, 1544.5, 1550.5, 120001)
        peaks = find_drop_peaks(wl, t_drop)
        assert len(peaks) == 2
        assert peaks[1] - peaks[0] == pytest.approx(4.4, abs=0.05)

    def test_drop_port_extinction_default_config(self):
        ring = RingDevice()
        res = ring.resonance_wavelength_nm()
        wl, t_drop, _ = sweep_spectrum(ring, res - 2.2, res + 2.2, 200001)
        extinction_db = 10 * np.log10(t_drop.max() / t_drop.min())
        assert extinction_db >= 30.0

    def test_passivity_everywhere(self):
        ring = RingDevice(drop_excess_loss_db=1.9)
        wl, t_drop, t_through = sweep_spectrum(ring, 1546.0, 1554.0, 5001)
        assert np.all(t_drop + t_through <= 1.0 + 1e-12)

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            sweep_spectrum(RingDevice(), 1549.0, 1551.0, 1)


class TestWavelengthGrid:
    def test_demonstrator_channels(self):
        grid = WavelengthGrid.c_band_4()
        assert grid.channels_nm == (1549.00, 1549.75, 1550.50, 1551.25)
        assert grid.spacing_nm == pytest.approx(0.75)

    def test_evenly_spaced_within_one_fsr(self):
        grid = WavelengthGrid.evenly_spaced(9, fsr_nm=4.4)
        ch = grid.array
        assert len(ch) == 9
        assert ch.max() - ch.min() < 4.4
        assert np.allclose(np.diff(ch), 4.4 / 9)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            WavelengthGrid(channels_nm=(1550.0, 1549.0))


def test_designed_for_places_resonance_on_channel():
    for channel in (1548.04, 1549.0, 1551.25):
        ring = RingDevice().designed_for(channel)
        assert ring.resonance_wavelength_nm(0.0) == pytest.approx(channel, abs=1e-9)
