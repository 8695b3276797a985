"""Compiler and crossbar fast-path tests: the batched heater solve and the
alignment cached at construction must reproduce the per-element scalar
computation bit for bit."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xbar.backends import PhotonicBackend, make_backend
from xbar.compiler import MatrixCompiler, decode_output, encode_signed, encode_signed_columns
from xbar.crossbar import (
    BACKWARD,
    FORWARD,
    LEGACY_ASYMMETRIC,
    RESPONSE_KNOTS,
    SYMMETRIC,
    RingGrid,
    build_crossbar,
    build_ring_grid,
)
from xbar.devices import AddDropLineshape, RingDevice, WavelengthGrid
from xbar.errors import EncodingError, InfeasibleError, ShapeError
from xbar.presets import preset_array, ring_for_q

PRESETS = {
    "experimental_4x4": lambda: preset_array("experimental_4x4"),
    "experimental_4x4_fab": lambda: preset_array(
        "experimental_4x4", fabrication_sigma_nm=0.02, seed=7
    ),
    "simulation_9x9": lambda: preset_array("simulation_9x9"),
    "simulation_9x9_fab": lambda: preset_array("simulation_9x9", fabrication_sigma_nm=0.02, seed=7),
    "ideal": lambda: preset_array("ideal", 4),
}


def scalar_inverse(ring: RingDevice, relative: float, order: int = 0) -> float:
    """The inverse add-drop lineshape on Python floats, one value at a time,
    measured from the resonance `order` orders bluer than the ring's base one."""
    ta = ring.self_coupling_t1 * ring.self_coupling_t2 * ring.round_trip_amplitude
    s2 = (1.0 - ta) ** 2 * (1.0 / relative - 1.0) / (4.0 * ta)
    if s2 >= 1.0:
        return ring.fsr_nm() / 2.0
    dphi = 2.0 * float(np.arcsin(math.sqrt(s2)))
    phi_res = 2.0 * math.pi * ring.resonance_order + 2.0 * math.pi * order

    def wavelength_at_phase(phi):
        ng = ring.group_index
        dispersion = ring.effective_index_at_ref - ng
        lam0 = ring.reference_wavelength_nm
        return ng / (phi / (2.0 * math.pi * ring.circumference_nm) - dispersion / lam0)

    return wavelength_at_phase(phi_res) - wavelength_at_phase(phi_res + dphi)


def reference_order(ring: RingDevice, channel_nm: float) -> tuple[int, float]:
    """(order, zero-heater resonance) of the order a ring is aligned on: its
    base order, or, for a channel blue of that resonance, the next order,
    one spacing of the ring's own orders bluer."""
    base = ring.resonance_wavelength_nm(0.0)
    if not channel_nm < base:
        return 0, base
    shape = ring.lineshape
    spacing = shape.resonance_wavelength - shape.wavelength_at_phase(
        shape.resonance_phase + 2.0 * math.pi
    )
    return 1, base - spacing


def per_ring(ring_grid, value) -> np.ndarray:
    """(n, n) array of value(ring, its row channel) over a ring grid."""
    channels = ring_grid.grid.channels_nm
    rows = enumerate(ring_grid.rings)
    return np.array([[value(ring, channels[i]) for ring in row] for i, row in rows])


def reference_alignment(ring_grid) -> np.ndarray:
    """Per-ring inversion of the aligned order's resonance onto the row channel."""
    return per_ring(
        ring_grid,
        lambda ring, channel: (channel - reference_order(ring, channel)[1])
        / ring.resonance_shift_per_mw,
    )


def reference_floor(grid) -> np.ndarray:
    """Each ring's parked floor relative to its peak, one scalar
    `drop_through` per ring at its aligned order's zero-heater resonance
    minus the park detuning."""
    park = grid.park_detuning_nm
    return per_ring(
        grid,
        lambda ring, channel: ring.drop_through(reference_order(ring, channel)[1] - park, 0.0)[0]
        / ring.lineshape.peak_drop,
    )


def reference_full_scale(grid) -> float:
    """The smallest own-channel drop at `reference_alignment`, one scalar
    `drop_through` per ring."""
    aligned = reference_alignment(grid)
    channels = grid.grid.array
    return min(
        ring.drop_through(channels, aligned[i, j])[0][i]
        for i, row in enumerate(grid.rings)
        for j, ring in enumerate(row)
    )


def reference_response(grid) -> dict:
    """Each ring's summed-response table, {(i, j): (summed, pedestal)}, from
    one scalar `drop_through` per ring and knot, cut at the end of the
    summed drop's first strictly falling run."""
    aligned = reference_alignment(grid)
    channels = grid.grid.array
    knots = np.linspace(0.0, grid.park_detuning_nm, RESPONSE_KNOTS).tolist()
    tables = {}
    for i, row in enumerate(grid.rings):
        for j, ring in enumerate(row):
            summed, pedestal = [], []
            for d in knots:
                drop, _ = ring.drop_through(channels, aligned[i, j] + d / ring.resonance_shift_per_mw)
                summed.append(float(drop.sum()))
                pedestal.append(summed[-1] - float(drop[i]))
            cut = next((k for k in range(len(knots) - 1) if not summed[k + 1] < summed[k]), len(knots) - 1)
            tables[i, j] = summed[: cut + 1], pedestal[: cut + 1]
    return tables


def reference_heaters(compiler: MatrixCompiler, targets: np.ndarray, tables: dict):
    """heaters_for_targets as an element-by-element loop over scalar calls:
    each element's pedestal is read on its ring's table cell
    (`reference_response`), linear in the summed drop, and the rest of its
    target is one scalar inverse."""
    grid = compiler.array.ring_grid
    park = grid.park_detuning_nm
    aligned = reference_alignment(grid)
    full = reference_full_scale(grid)
    floor = reference_floor(grid)
    heaters = np.empty(targets.shape)
    for (i, j), (summed, pedestal) in tables.items():
        ring = grid.rings[i][j]
        order, _ = reference_order(ring, grid.grid.channels_nm[i])
        absolute = float(targets[i, j]) * full
        k = max(sum(s > absolute for s in summed) - 1, 0)
        slope = 0.0
        if k + 1 < len(summed):
            slope = (pedestal[k + 1] - pedestal[k]) / (summed[k + 1] - summed[k])
        intercept = pedestal[k] - slope * summed[k]
        request = (absolute - (slope * absolute + intercept)) / ring.lineshape.peak_drop
        rel = min(max(request, floor[i, j]), 1.0)
        det = min(scalar_inverse(ring, rel, order), park)
        heaters[i, j] = aligned[i, j] + det / ring.resonance_shift_per_mw
    return heaters


def seeded_targets(n: int, seed: int, count: int = 12):
    rng = np.random.default_rng(seed)
    yield np.zeros((n, n))
    yield np.ones((n, n))
    yield np.eye(n)
    for _ in range(count):
        t = rng.uniform(0.0, 1.0, (n, n))
        t[rng.uniform(size=(n, n)) < 0.25] = 0.0
        t[rng.uniform(size=(n, n)) < 0.25] = 1.0
        yield t


@pytest.mark.parametrize("preset", list(PRESETS))
def test_heaters_match_elementwise_reference(preset):
    array = PRESETS[preset]()
    compiler = MatrixCompiler(array)
    tables = reference_response(array.ring_grid)
    for targets in seeded_targets(array.n, seed=11):
        heaters, _ = compiler.heaters_for_targets(targets)
        np.testing.assert_array_equal(heaters, reference_heaters(compiler, targets, tables))


@pytest.mark.parametrize("preset", list(PRESETS))
def test_heaters_match_a_bisection_of_the_scalar_summed_drop(preset):
    # An oracle independent of the table: each ring's detuning at which its
    # scalar `drop_through`, summed over channels, equals the request, by
    # bisection. The solve's pedestal is linear over a table cell, so it
    # lands within a small fraction of the ring's linewidth.
    array = PRESETS[preset]()
    grid = array.ring_grid
    channels = grid.grid.array
    aligned = reference_alignment(grid)
    targets = np.random.default_rng(3).uniform(0.05, 1.0, (2, grid.n, grid.n))
    heaters, clamped = MatrixCompiler(array).heaters_for_targets(targets)
    assert not clamped.any()
    for index in np.ndindex(targets.shape):
        i, j = index[-2:]
        ring = grid.rings[i][j]
        rate = ring.resonance_shift_per_mw
        request = targets[index] * array.full_scale
        lo, hi = 0.0, grid.park_detuning_nm
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ring.drop_through(channels, aligned[i, j] + mid / rate)[0].sum() > request:
                lo = mid
            else:
                hi = mid
        solved = (heaters[index] - aligned[i, j]) * rate
        assert abs(solved - lo) <= 1e-5 * ring.fwhm_nm(), index


@pytest.mark.parametrize(
    "preset, shape",
    [("experimental_4x4", (3, 4)), ("simulation_9x9", (9, 9)), ("experimental_4x4", (2, 2, 4, 4))],
)
def test_a_program_makes_one_drop_tensor_and_one_inversion(preset, shape, monkeypatch):
    """After the first program, which tabulates every ring's summed response
    and the full scale, a program makes one lineshape evaluation, whose
    summed drop gives both effective matrices, and one inverse solve."""
    backend = PhotonicBackend(preset_array(preset))
    rng = np.random.default_rng(4)
    backend.program(rng.uniform(-1.0, 1.0, shape))
    calls = []
    for owner, name in ((RingGrid, "drop_through_tensor"), (RingDevice, "detuning_for_relative_drop")):

        def counted(*args, original=getattr(owner, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for _ in range(3):
        calls.clear()
        backend.program(rng.uniform(-1.0, 1.0, shape))
        assert sorted(calls) == ["detuning_for_relative_drop", "drop_through_tensor"]


def test_a_ring_without_a_falling_summed_drop_is_rejected_on_the_first_program():
    # At Q 2e3 a ring's linewidth spans the 0.75 nm channel spacing: detuned
    # from its channel, its next channel's drop rises faster than its own
    # falls, so no request has a solution on a falling branch. The table is
    # built on the first program, which a runner makes before its first
    # training step, not at construction.
    backend = PhotonicBackend(build_crossbar(4, ring_for_q(2e3)))
    with pytest.raises(InfeasibleError, match=r"ring \(0,0\): its channel-summed drop falls over 0 of 255"):
        backend.program(np.eye(4))


@pytest.mark.parametrize("preset", list(PRESETS))
def test_cached_alignment_matches_per_ring_inversion(preset):
    grid = PRESETS[preset]().ring_grid
    np.testing.assert_array_equal(grid.aligned_heaters(), reference_alignment(grid))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9", "ideal"])
def test_aligned_rings_sit_on_their_peak(preset, sigma, seed):
    # A ring whose channel lies blue of its resonance is aligned on the
    # next order; an error in that order's spacing leaves it off its peak.
    grid = preset_array(preset, fabrication_sigma_nm=sigma, seed=seed).ring_grid
    drop = grid.drop_through_tensor(grid.aligned_heaters())
    rows, cols = np.arange(grid.n)[:, None], np.arange(grid.n)[None, :]
    own = drop[rows, cols, rows]
    np.testing.assert_allclose(own / grid.constants.peaks, 1.0, rtol=0, atol=1e-9)


def test_photonic_products_are_accurate_under_fabrication_spread():
    array = preset_array("simulation_9x9", fabrication_sigma_nm=0.02, seed=0)
    backend = PhotonicBackend(array)
    rng = np.random.default_rng(3)
    err = ref = 0.0
    for _ in range(4):
        w = rng.uniform(-1.0, 1.0, (9, 9))
        x = rng.uniform(0.0, 1.0, (9, 16))
        s = rng.uniform(-1.0, 1.0, (9, 16))
        handle = backend.program(w)
        for got, exact in ((handle.forward(x), w @ x), (handle.backward(s), w.T @ s)):
            err += float(((got - exact) ** 2).sum())
            ref += float((exact**2).sum())
    assert math.sqrt(err / ref) < 1e-3


@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9", "ideal"])
def test_compiled_targets_read_back_through_the_effective_matrix(preset, sigma):
    # The compiler and the decode share one full scale, and the compiler
    # solves each ring on its aligned order, so what is programmed reads
    # back. Targets stay above every parked floor, so none is clamped.
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    compiler = MatrixCompiler(array)
    targets = np.random.default_rng(5).uniform(0.05, 1.0, (20, array.n, array.n))
    compiled = compiler.compile_unit(targets)
    assert not compiled.clamped_elements.any()
    for direction in (FORWARD, BACKWARD):
        read = array.effective_matrix(array.summed_drop(compiled.heater_settings_mw), direction)
        np.testing.assert_allclose(read, targets, rtol=2e-5, atol=0)


@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9"])
def test_full_scale_is_the_smallest_peak_drop(preset):
    # Aligned on its channel, every physical ring reads its own peak.
    array = preset_array(preset)
    assert array.full_scale == float(array.ring_grid.constants.peaks.min())


@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9", "ideal"])
def test_grid_lineshape_carries_each_rings_aligned_order(preset, sigma):
    grid = preset_array(preset, fabrication_sigma_nm=sigma, seed=0).ring_grid
    orders = per_ring(grid, lambda ring, channel: reference_order(ring, channel)[0])
    # A spread puts some channels blue of their ring's resonance, except on
    # experimental_4x4, whose rings are made well blue of their channels.
    assert orders.any() == (sigma > 0 and preset != "experimental_4x4")
    phases = per_ring(
        grid,
        lambda ring, channel: ring.lineshape.resonance_phase
        + 2.0 * math.pi * reference_order(ring, channel)[0],
    )
    np.testing.assert_array_equal(grid.constants.lineshape.resonance_phase[:, :, 0], phases)


@pytest.mark.parametrize("preset", list(PRESETS))
def test_grid_lineshape_equals_device_lineshape(preset):
    array = PRESETS[preset]()
    grid = array.ring_grid
    compiler = MatrixCompiler(array)
    channels = grid.grid.array
    for targets in seeded_targets(array.n, seed=2, count=3):
        heaters, _ = compiler.heaters_for_targets(targets)
        drop = grid.drop_through_tensor(heaters)
        assert drop.shape == (array.n, array.n, len(channels))
        for i, row in enumerate(grid.rings):
            for j, ring in enumerate(row):
                ring_drop, _ = ring.drop_through(channels, heaters[i, j])
                np.testing.assert_array_equal(drop[i, j], ring_drop)


@pytest.mark.parametrize(
    "ring", [RingDevice(), ring_for_q(2.5e4), ring_for_q(1e8, lossless=True)], ids=["default", "q25k", "q1e8"]
)
def test_vectorized_detuning_equals_scalar_calls(ring):
    rng = np.random.default_rng(3)
    ta = ring.self_coupling_t1 * ring.self_coupling_t2 * ring.round_trip_amplitude
    # Below this level the lineshape floor is passed and the ring parks.
    deep = 1.0 / (1.0 + 4.0 * ta / (1.0 - ta) ** 2)
    # A large batch: a last-bit difference in the arcsine survives into the
    # detuning only for about one value in tens of thousands.
    relative = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 20000),
            10.0 ** rng.uniform(-12, 0, 19996),
            [1.0, 1e-300, deep / 2.0, deep * 2.0],
        ]
    ).reshape(4, 10000)
    batched = ring.detuning_for_relative_drop(relative)
    assert batched.shape == relative.shape
    reference = np.array([scalar_inverse(ring, r) for r in relative.ravel().tolist()])
    np.testing.assert_array_equal(batched.ravel(), reference)
    picks = rng.choice(relative.size, 200, replace=False)
    singles = [ring.detuning_for_relative_drop(float(relative.flat[k])) for k in picks]
    np.testing.assert_array_equal(singles, reference[picks])
    assert ring.detuning_for_relative_drop(deep / 2.0) == ring.fsr_nm() / 2.0
    assert isinstance(ring.detuning_for_relative_drop(0.5), float)


@pytest.mark.parametrize("preset", list(PRESETS))
def test_stacked_detuning_equals_scalar_inverse_per_ring(preset):
    grid = PRESETS[preset]().ring_grid
    n = grid.n
    rng = np.random.default_rng(4)
    # Levels from deep below the lineshape floor (parked) up to the peak.
    relative = 10.0 ** rng.uniform(-12, 0, (n, n, 50))
    relative[:, :, 0] = 1.0
    # The stacked lineshape, not the ring the method is called on, sets the answer.
    stacked = grid.rings[n - 1][0].detuning_for_relative_drop(relative, grid.constants.lineshape)
    assert stacked.shape == relative.shape
    for i, row in enumerate(grid.rings):
        for j, ring in enumerate(row):
            order, _ = reference_order(ring, grid.grid.channels_nm[i])
            expected = [scalar_inverse(ring, r, order) for r in relative[i, j].tolist()]
            np.testing.assert_array_equal(stacked[i, j], expected)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-12, float("nan")])
def test_detuning_rejects_levels_outside_unit_interval(bad):
    ring = RingDevice()
    with pytest.raises(ValueError):
        ring.detuning_for_relative_drop(bad)
    with pytest.raises(ValueError):
        ring.detuning_for_relative_drop(np.array([0.5, bad, 1.0]))


def test_aligned_heaters_returns_a_copy():
    grid = preset_array("experimental_4x4").ring_grid
    first = grid.aligned_heaters()
    expected = first.copy()
    first[:] = -1.0
    np.testing.assert_array_equal(grid.aligned_heaters(), expected)
    np.testing.assert_array_equal(grid.detuned_heaters(np.zeros((4, 4))), expected)


def cached_arrays(backend: PhotonicBackend) -> dict:
    """Every array a ring grid computes once and shares: its per-ring
    constants, each record of them tiled to a stack shape (`tiled`), its
    order spacing and its summed-response table once built."""
    grid = backend.array.ring_grid
    records = {"constants": grid.constants, **{str(lead): r for lead, r in grid._tiled.items()}}
    if "summed_response" in vars(grid):
        records["summed_response"] = grid.summed_response
    cached = {"order_spacing": grid.order_spacing_nm}
    lineshape_cache = ("resonance_wavelength", "half_fsr", "_two_pi_length", "_dispersion_per_lam0")
    for key, record in records.items():
        for f in fields(record):
            value = getattr(record, f.name)
            if not isinstance(value, AddDropLineshape):
                cached[f"{key}.{f.name}"] = value
                continue
            names = [g.name for g in fields(value)]
            names += [name for name in lineshape_cache if name in vars(value)]
            for name in names:
                cached[f"{key}.{f.name}.{name}"] = getattr(value, name)
    return cached


def test_cached_arrays_are_read_only():
    backend = PhotonicBackend(preset_array("experimental_4x4", fabrication_sigma_nm=0.02, seed=7))
    backend.program(np.eye(4))
    backend.program(np.ones((2, 2, 4, 4)))
    grid = backend.array.ring_grid
    assert set(grid._tiled) == {(), (2, 2)}
    assert "summed_response" in vars(grid)
    # The solve's lineshape holds its inverse's cached terms.
    assert all(name in vars(grid.tiled((2, 2)).solve) for name in ("resonance_wavelength", "half_fsr"))
    for name, value in cached_arrays(backend).items():
        assert isinstance(value, np.ndarray), name
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(value, 2, out=value)


def test_tiled_records_hold_the_grid_constants_at_the_stack_shape():
    grid = preset_array("simulation_9x9", fabrication_sigma_nm=0.02, seed=3).ring_grid
    record = grid.tiled((2, 3))
    assert grid.tiled((2, 3)) is record
    constants = grid.constants
    for name in ("aligned", "shift_per_mw", "fab", "max_power_mw", "peaks", "floor_rel"):
        value, constant = getattr(record, name), getattr(constants, name)
        assert value.shape == (2, 3, 9, 9) and value.flags.c_contiguous, name
        np.testing.assert_array_equal(value, np.broadcast_to(constant, value.shape), err_msg=name)
    assert record.channels.shape == record.lineshape.n0.shape == (2, 3, 9, 9, 9)
    assert record.solve.n0.shape == (2, 3, 9, 9)


@pytest.mark.parametrize("preset", list(PRESETS))
def test_programming_a_then_b_then_a_gives_a_bits(preset):
    backend = PhotonicBackend(PRESETS[preset]())
    n = backend.array.n
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-1.0, 1.0, (2, n, n))
    x = rng.uniform(0.0, 1.0, (n, 3))
    s = rng.normal(size=(n, 3))

    def outputs(handle):
        c = handle.compiled
        return [
            c.heater_settings_mw, c.clamped_elements,
            handle._eff_fwd_t, handle._eff_bwd, handle.forward(x), handle.backward(s),
        ]

    first = outputs(backend.program(a))
    backend.program(np.stack([[a, b], [b, a]])).backward(s)
    before = {name: value.copy() for name, value in cached_arrays(backend).items()}
    backend.program(b).backward(s)
    backend.program(np.stack([[b, a], [a, b]])).backward(s)
    again = outputs(backend.program(a))
    for expected, got in zip(first, again):
        np.testing.assert_array_equal(got, expected)
    after = cached_arrays(backend)
    assert after.keys() == before.keys()
    for name, value in after.items():
        np.testing.assert_array_equal(value, before[name], err_msg=name)


def test_nan_heater_is_rejected_by_the_range_check():
    grid = preset_array("experimental_4x4").ring_grid
    heaters = grid.aligned_heaters()
    heaters[1, 2] = np.nan
    with pytest.raises(ValueError, match="ring heater power out of range"):
        grid.drop_through_tensor(heaters)


def test_nan_detuning_is_rejected_by_the_range_check():
    grid = preset_array("experimental_4x4").ring_grid
    detunings = np.zeros((4, 4))
    detunings[3, 0] = np.nan
    with pytest.raises(ValueError, match="detunings must be non-negative"):
        grid.detuned_heaters(detunings)


def test_nan_target_is_rejected_by_the_range_check():
    compiler = MatrixCompiler(preset_array("experimental_4x4"))
    targets = np.full((4, 4), 0.5)
    targets[0, 3] = np.nan
    with pytest.raises(ValueError, match=r"unit targets must lie in \[0, 1\]"):
        compiler.heaters_for_targets(targets)


def test_stacked_range_checks_reject_nan_and_out_of_range_values():
    # The same checks and messages as for one matrix, on a (2, 2, n, n) stack.
    array = preset_array("experimental_4x4")
    grid = array.ring_grid
    targets = np.full((2, 2, 4, 4), 0.5)
    targets[1, 0, 2, 3] = np.nan
    with pytest.raises(ValueError, match=r"unit targets must lie in \[0, 1\]"):
        MatrixCompiler(array).heaters_for_targets(targets)
    detunings = np.zeros((2, 2, 4, 4))
    detunings[0, 1, 3, 0] = np.nan
    with pytest.raises(ValueError, match="detunings must be non-negative"):
        grid.detuned_heaters(detunings)
    relative = np.full((2, 2, 4, 4), 0.5)
    relative[1, 1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"relative drop level must lie in \(0, 1\]"):
        grid.rings[0][0].detuning_for_relative_drop(relative, grid.tiled((2, 2)).solve)
    for bad in (np.nan, grid.constants.max_power_mw[2, 1] * (1.0 + 1e-12)):
        heaters = np.broadcast_to(grid.aligned_heaters(), (2, 2, 4, 4)).copy()
        heaters[0, 0, 2, 1] = bad
        with pytest.raises(ValueError, match="ring heater power out of range"):
            grid.drop_through_tensor(heaters)


@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9", "ideal"])
def test_stacked_floor_equals_the_per_ring_drop_through_loop(preset, sigma):
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=11)
    grid = array.ring_grid
    np.testing.assert_array_equal(grid.constants.floor_rel, reference_floor(grid))
    peaks = [[ring.lineshape.peak_drop for ring in row] for row in grid.rings]
    np.testing.assert_array_equal(grid.constants.peaks, peaks)


def test_nan_input_is_rejected_by_the_mzi_range_check():
    array = preset_array("experimental_4x4")
    with pytest.raises(EncodingError, match=r"inputs must lie in \[0, 1\]"):
        array.input_transmittances(np.array([0.2, np.nan, 0.5, 1.0]))


def test_input_transmittances_of_a_stack_equal_each_vector_alone():
    array = preset_array("experimental_4x4")
    x = np.random.default_rng(2).uniform(0.0, 1.0, (2, 3, 4))
    x[0, 0] = [0.0, 1.0, 0.0, 1.0]
    stacked = array.input_transmittances(x)
    assert stacked.shape == x.shape
    for index in np.ndindex(x.shape[:-1]):
        np.testing.assert_array_equal(stacked[index], array.input_transmittances(x[index]))
    np.testing.assert_array_equal(stacked[0, 0, [0, 2]], array.mzi_floor)
    # Scalar calls per value: the same formula, up to the last bits of
    # numpy's vectorised arcsine.
    mzi = array.mzi
    loop = [[mzi.transmittance(mzi.power_for(v)) for v in row] for row in x.reshape(-1, 4).tolist()]
    np.testing.assert_allclose(stacked.reshape(-1, 4), loop, rtol=4 * np.finfo(float).eps, atol=0)
    with pytest.raises(ShapeError):
        array.input_transmittances(np.ones((4, 3)))


def test_alignment_beyond_heater_range_is_rejected_at_construction():
    # 2 nm of red shift needs about 17.5 mW; the heaters stop at 1 mW.
    ring = RingDevice(max_power_mw=1.0, fabrication_detuning_nm=-2.0)
    with pytest.raises(InfeasibleError, match="heater range"):
        build_ring_grid(4, WavelengthGrid.c_band_4(), ring)


@pytest.mark.parametrize("preset", list(PRESETS))
def test_forward_and_backward_are_transposes(preset):
    array = PRESETS[preset]()
    compiler = MatrixCompiler(array)
    np.testing.assert_array_equal(
        array.topology.path_transmission(FORWARD), array.topology.path_transmission(BACKWARD)
    )
    for targets in seeded_targets(array.n, seed=5, count=4):
        heaters, _ = compiler.heaters_for_targets(targets)
        summed = array.summed_drop(heaters)
        forward = array.effective_matrix(summed, FORWARD)  # forward y = forward.T @ x
        backward = array.effective_matrix(summed, BACKWARD)  # backward y = backward @ s
        # Both directions share the drop tensor, the path losses and the
        # normalization constant exactly.
        np.testing.assert_array_equal(forward, backward)


@pytest.mark.parametrize("variant", [SYMMETRIC, LEGACY_ASYMMETRIC])
def test_programmed_effective_matrices_equal_per_direction_calls(variant):
    # A program shares one drop tensor between its two directions.
    array = preset_array("experimental_4x4", variant=variant)
    backend = PhotonicBackend(array)
    rng = np.random.default_rng(6)
    for _ in range(5):
        handle = backend.program(rng.uniform(-1.0, 1.0, (3, 4)))
        summed = array.summed_drop(handle.compiled.heater_settings_mw)
        forward = array.effective_matrix(summed, FORWARD)
        backward = array.effective_matrix(summed, BACKWARD)
        np.testing.assert_array_equal(handle._eff_fwd_t, forward.T)
        np.testing.assert_array_equal(handle._eff_bwd, backward)
        # The legacy layout's path losses differ by direction.
        assert np.array_equal(forward, backward) == (variant == SYMMETRIC)


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_stacked_program_equals_per_matrix_program(preset, backend):
    array = PRESETS[preset]()
    made = make_backend(backend, array)
    n = array.n
    rng = np.random.default_rng(12)
    # A padded Iris-like stack at batch 1, and a full-size one at batch 4
    # whose middle matrix is degenerate (all elements equal).
    for count, out_dim, batch in ((3, n - 1, 1), (3, n, 4)):
        stack = rng.uniform(-1.0, 1.0, (count, out_dim, n))
        stack[1] = 0.25 if out_dim == n else stack[1]
        x = rng.uniform(0.0, 1.0, (count, n, batch))
        shared = rng.uniform(0.0, 1.0, (n, batch))
        s = rng.normal(size=(count, out_dim, batch))
        stacked = made.program(stack)
        got = {
            "forward": stacked.forward(x),
            "shared forward": stacked.forward(shared),
            "backward": stacked.backward(s),
        }
        for k, matrix in enumerate(stack):
            alone = made.program(matrix)
            want = {
                "forward": alone.forward(x[k]),
                "shared forward": alone.forward(shared),
                "backward": alone.backward(s[k]),
            }
            pairs = [(got[name][k], want[name], name) for name in want]
            if backend != "ideal":
                pairs.append(
                    (
                        stacked._raw_backward(np.zeros((n, 0)))[1][k],
                        alone._raw_backward(np.zeros((n, 0)))[1],
                        "ones",
                    )
                )
            if backend == "photonic":
                for name in ("heater_settings_mw", "clamped_elements"):
                    pairs.append(
                        (getattr(stacked.compiled, name)[k], getattr(alone.compiled, name), name)
                    )
            for stacked_value, alone_value, name in pairs:
                assert np.array_equal(stacked_value, alone_value), f"{name}, matrix {k}"


@pytest.mark.parametrize(
    "index",
    [1, -1, slice(0, 1), (1, 2), (0, slice(None, None, 2)), Ellipsis, np.array([1, 0])],
    ids=["int", "negative", "slice", "tuple", "tuple with slice", "ellipsis", "array"],
)
def test_compiled_matrix_index_slices_both_fields_alike(index):
    """Indexing a compiled (2, 3) stack takes the same part of both fields;
    a matrix it picks out is that matrix compiled alone."""
    array = PRESETS["experimental_4x4_fab"]()
    compiler = MatrixCompiler(array)
    targets = np.random.default_rng(5).uniform(0.0, 1.0, (2, 3, array.n, array.n))
    compiled = compiler.compile_unit(targets)
    part = compiled[index]
    for f in fields(compiled):
        assert np.array_equal(getattr(part, f.name), getattr(compiled, f.name)[index])
    if isinstance(index, tuple) and all(isinstance(i, int) for i in index):
        alone = compiler.compile_unit(targets[index])
        for f in fields(compiled):
            assert np.array_equal(getattr(part, f.name), getattr(alone, f.name))


@pytest.mark.parametrize(
    "preset, sigma, variant",
    [
        ("experimental_4x4", 0.02, SYMMETRIC),
        ("simulation_9x9", 0.02, SYMMETRIC),
        ("experimental_4x4", 0.0, LEGACY_ASYMMETRIC),
    ],
)
def test_interleaved_stack_shapes_equal_each_matrix_programmed_alone(preset, sigma, variant):
    # One backend programs stacks of several leading shapes in turn, so a
    # tiled record read under the wrong shape's key would show; each matrix
    # is compared with its program on a fresh backend, which has built no
    # record but its own.
    def make():
        return PhotonicBackend(preset_array(preset, fabrication_sigma_nm=sigma, seed=5, variant=variant))

    backend = make()
    n = backend.array.n
    rng = np.random.default_rng(13)
    for lead in [(), (2, 2), (1,), (2, 3), (2, 2), ()]:
        stack = rng.uniform(-1.0, 1.0, lead + (n - 1, n))
        stack[(0,) * len(lead)] = 0.25  # a degenerate matrix: every target 0
        handle = backend.program(stack)
        for index in np.ndindex(lead):
            alone = make().program(stack[index])
            for name in ("heater_settings_mw", "clamped_elements"):
                got, want = getattr(handle.compiled, name)[index], getattr(alone.compiled, name)
                assert np.array_equal(got, want), f"{name}, {lead}, {index}"
            for name in ("_eff_fwd_t", "_eff_bwd"):
                got, want = getattr(handle, name)[index], getattr(alone, name)
                assert np.array_equal(got, want), f"{name}, {lead}, {index}"
    assert set(backend.array.ring_grid._tiled) == {(), (1,), (2, 2), (2, 3)}


@pytest.mark.parametrize("preset", list(PRESETS))
def test_clamped_elements_mark_where_the_span_clip_was_active(preset):
    array = PRESETS[preset]()
    compiler = MatrixCompiler(array)
    n = array.n
    rng = np.random.default_rng(9)
    targets = rng.uniform(0.2, 0.8, (n, n))
    assert not compiler.compile_unit(targets).clamped_elements.any()
    targets[rng.uniform(size=(n, n)) < 0.3] = 0.0
    targets[0, 0] = 0.0
    np.testing.assert_array_equal(compiler.compile_unit(targets).clamped_elements, targets == 0.0)


values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("variant", [SYMMETRIC, LEGACY_ASYMMETRIC])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9", "ideal"])
def test_a_singly_driven_port_puts_out_at_most_the_comb_it_carries(preset, variant):
    # Passivity above the device level: an input port fully on, every other
    # port dark, carries one unit of power on each of the n channels, and
    # its outputs together read at most that, whatever the heater program.
    array = preset_array(preset, variant=variant)
    grid, n = array.ring_grid, array.n
    rng = np.random.default_rng(12)
    programs = np.concatenate(
        [
            rng.uniform(0.0, 1.0, (16, n, n)) * grid.constants.max_power_mw,
            [grid.aligned_heaters(), grid.parked_heaters()],
        ]
    )
    summed = array.summed_drop(programs)
    for direction in (FORWARD, BACKWARD):
        out = array.read(np.eye(n), summed, direction)  # (program, driven port, output)
        assert out.shape == (len(programs), n, n)
        assert out.min() >= 0.0
        assert out.sum(axis=-1).max() <= n


@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9"])
def test_a_ring_selection_reads_what_the_full_grid_reads(preset):
    grid = preset_array(preset, fabrication_sigma_nm=0.02, seed=5).ring_grid
    n, k = grid.n, 8
    rng = np.random.default_rng(13)
    heaters = rng.uniform(0.0, 1.0, (k, n, n)) * grid.constants.max_power_mw
    heaters[0] = grid.aligned_heaters()
    heaters[1:4] = grid.detuned_heaters(rng.uniform(0.0, grid.park_detuning_nm, (3, n, n)))
    full = grid.drop_through_tensor(heaters)
    selected = grid.drop_through_tensor(heaters.reshape(k, n * n), np.arange(n * n))
    np.testing.assert_array_equal(selected, full.reshape(k, n * n, n))


@st.composite
def products(draw):
    n = draw(st.integers(1, 9))
    batch = draw(st.integers(1, 5))
    w = draw(arrays(float, (n, n), elements=values))
    x = draw(arrays(float, (n, batch), elements=st.floats(0.0, 1.0)))
    s = draw(arrays(float, (n, batch), elements=values))
    return w, x, s


@settings(max_examples=200, deadline=None)
@given(products())
def test_decode_inverts_the_encodings_of_exact_products(case):
    w, x, s = case
    n = w.shape[0]
    w_prime, encoding = encode_signed(w)
    assert np.all((w_prime >= 0.0) & (w_prime <= 1.0))
    tol = 1e-12 * n * (1.0 + np.abs(w).max()) * (1.0 + np.abs(s).max())
    # Forward inputs are non-negative and pass unencoded (scale 1, offset 0).
    forward = decode_output(w_prime @ x, encoding, None, None, x.sum(axis=0), n)
    assert np.array_equal(forward, decode_output(w_prime @ x, encoding, 1.0, 0.0, x.sum(axis=0), n))
    np.testing.assert_allclose(forward, w @ x, rtol=1e-12, atol=tol)
    s_prime, scales, offsets = encode_signed_columns(s)
    ones = w_prime.T @ np.ones((n, 1))
    backward = decode_output(
        w_prime.T @ s_prime, encoding, scales, offsets, s_prime.sum(axis=0), n, ones
    )
    np.testing.assert_allclose(backward, w.T @ s, rtol=1e-12, atol=tol)
