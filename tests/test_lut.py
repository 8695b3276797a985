"""LUT calibration tests."""

import functools
import math
from dataclasses import fields

import numpy as np
import pytest

from xbar import backends
from xbar.backends import LutBackend
from xbar.compiler import decode_output, encode_signed_columns
from xbar.crossbar import BACKWARD, FORWARD, RingGrid, build_crossbar
from xbar.devices import RingDevice
from xbar.errors import InfeasibleError, ShapeError
from xbar.lut import (
    LUT_RING_WINDOW_NM,
    LUT_STEPS,
    CalibrationLUT,
    LutStack,
    _rising_branches,
    build_lut,
    lut_multiply_many,
)
from xbar.noise import NoiseConfig
from xbar.presets import EXPERIMENTAL_ALIGN_MW, preset_array


def reference_branches(stack, d=0):
    """The per-LUT rising branches that the one pass over a stack replaced,
    kept as its oracle, of design d of the LUT stack `stack`: ((mzi powers,
    response), (mrr powers, response), full scale), each branch the strictly
    increasing run that ends at the response's first maximum."""
    z = stack.output_power[d]
    i_pk, j_pk = np.unravel_index(int(np.argmax(z)), z.shape)
    full = z[i_pk, j_pk]

    def rising(powers, response):
        stop = int(np.argmax(response)) + 1
        falls = np.flatnonzero(np.diff(response[:stop]) <= 0)
        start = int(falls[-1]) + 1 if falls.size else 0
        return powers[start:stop], response[start:stop]

    mzi, mrr = stack.mzi_powers_mw[d], stack.mrr_powers_mw[d]
    return rising(mzi, z[:, j_pk] / full), rising(mrr, z[i_pk] / full), full


def assert_stacked_branches_equal_the_reference(stack):
    """In every design of the LUT stack `stack`, `_rising_branches`, the one
    pass that `LutStack` runs, finds what `reference_branches` finds in the
    design. Returns each design's two branches (powers, response)."""
    full, branches = _rising_branches(stack.output_power)
    axes = (stack.mzi_powers_mw, stack.mrr_powers_mw)
    found = []
    for d in range(len(full)):
        cut = [(p[d, a[d] : b[d]], r[d, a[d] : b[d]]) for p, (r, a, b) in zip(axes, branches)]
        *want, want_full = reference_branches(stack, d)
        assert full[d] == want_full
        for branch, want_branch in zip(cut, want):
            for got_part, want_part in zip(branch, want_branch):
                np.testing.assert_array_equal(got_part, want_part)
        found.append(cut)
    return found


def reference_multiply(stack, x_targets, w_targets, d=0):
    """The per-LUT read that the stacked read replaced, kept as its oracle,
    of design d of the LUT stack `stack`.

    Each axis is inverted on its rising branch with np.interp; the output
    power is read by bilinear interpolation after a search of each grid axis.
    Returns (values, clamped).
    """
    (mzi_p, mzi_r), (mrr_p, mrr_r), full = reference_branches(stack, d)
    x, w = np.broadcast_arrays(np.asarray(x_targets, dtype=float), np.asarray(w_targets, dtype=float))
    clamped = (x < mzi_r[0]) | (x > mzi_r[-1]) | (w < mrr_r[0]) | (w > mrr_r[-1])
    px = np.interp(x, mzi_r, mzi_p)
    pw = np.interp(w, mrr_r, mrr_p)
    gx, gy, z = stack.mzi_powers_mw[d], stack.mrr_powers_mw[d], stack.output_power[d]
    ix = np.clip(np.searchsorted(gx, px) - 1, 0, len(gx) - 2)
    iy = np.clip(np.searchsorted(gy, pw) - 1, 0, len(gy) - 2)
    fx = np.clip((px - gx[ix]) / (gx[ix + 1] - gx[ix]), 0.0, 1.0)
    fy = np.clip((pw - gy[iy]) / (gy[iy + 1] - gy[iy]), 0.0, 1.0)
    val = (
        z[ix, iy] * (1 - fx) * (1 - fy)
        + z[ix + 1, iy] * fx * (1 - fy)
        + z[ix, iy + 1] * (1 - fx) * fy
        + z[ix + 1, iy + 1] * fx * fy
    )
    return val / full, clamped


def one_lut_read(lut, x, w):
    """The read of a 1-design LUT stack: its rings set to `w`, then read at `x`."""
    stack = LutStack(lut, 0)
    return lut_multiply_many(stack, x, stack.set_rings(w))


def one_element(array, i, j):
    """The LUT pair of element (i, j), swept alone: two 1-design stacks."""
    return build_lut(array, [i], [j])


def stack_of(luts):
    """One LUT stack of the designs of the LUT stacks `luts`, in order."""
    return CalibrationLUT(
        *(np.concatenate([getattr(lut, f.name) for lut in luts]) for f in fields(CalibrationLUT))
    )


BRANCH_ARRAYS = {
    f"{preset}-sigma{sigma}": (preset, sigma)
    for preset in ("experimental_4x4", "simulation_9x9")
    for sigma in (0.0, 0.02)
}

NEAR_ZERO_ALIGNMENT = {
    "ideal": lambda: preset_array("ideal", 4),
    "simulation_9x9": lambda: preset_array("simulation_9x9"),
}


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("preset", list(NEAR_ZERO_ALIGNMENT))
def test_ring_window_moves_up_one_fsr_when_alignment_is_near_zero(preset, direction):
    array = NEAR_ZERO_ALIGNMENT[preset]()
    ring = array.ring_grid.rings[0][0]
    span = LUT_RING_WINDOW_NM / ring.resonance_shift_per_mw
    p_align = array.ring_grid.aligned_heaters()[0, 0]
    assert p_align < span
    mrr = build_lut(array, [0], [0])[direction].mrr_powers_mw[0]
    assert np.all(np.diff(mrr) > 0)
    shape = ring.lineshape
    spacing = shape.resonance_wavelength - shape.wavelength_at_phase(
        shape.resonance_phase + 2.0 * math.pi
    )
    assert mrr[-1] == p_align + spacing / ring.resonance_shift_per_mw
    assert mrr[-1] - mrr[0] == pytest.approx(span)
    assert 0.0 < mrr[0] and mrr[-1] <= ring.max_power_mw


@pytest.mark.parametrize("preset", list(NEAR_ZERO_ALIGNMENT))
def test_lut_backend_calibrates_on_near_zero_alignment_presets(preset):
    backend = LutBackend(NEAR_ZERO_ALIGNMENT[preset]())
    w = np.array([[0.5, -0.25], [1.0, 0.0]])
    assert np.all(np.isfinite(backend.program(w).forward(np.array([[0.3], [0.8]]))))


def test_ring_window_unchanged_when_alignment_leaves_room():
    array = preset_array("experimental_4x4")
    ring = array.ring_grid.rings[0][0]
    p_align = array.ring_grid.aligned_heaters()[0, 0]
    assert p_align == pytest.approx(EXPERIMENTAL_ALIGN_MW, abs=0.5)
    want = np.linspace(p_align - LUT_RING_WINDOW_NM / ring.resonance_shift_per_mw, p_align, LUT_STEPS)
    for lut in build_lut(array, [0], [0]).values():
        np.testing.assert_array_equal(lut.mrr_powers_mw, [want])


# Element whose LUT pair calibrates element (i, j): a uniform grid is one
# ring design calibrated on (0, 0); with a fabrication spread every ring is
# its own design.
CALIBRATED_ON = {0.0: lambda i, j: (0, 0), 0.02: lambda i, j: (i, j)}


@pytest.mark.parametrize("sigma", list(CALIBRATED_ON))
def test_element_products_match_a_per_element_lut_loop(sigma):
    array = preset_array("experimental_4x4", fabrication_sigma_nm=sigma, seed=0)
    backend = LutBackend(array)
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1.0, (4, 4, 3))
    targets = rng.uniform(0.0, 1.0, (4, 4, 1))
    luts = {(i, j): one_element(array, *CALIBRATED_ON[sigma](i, j)) for i in range(4) for j in range(4)}
    for direction in (FORWARD, BACKWARD):
        want = np.empty((4, 4, 3))
        for (i, j), pair in luts.items():
            want[i, j], _ = reference_multiply(pair[direction], values[i, j], targets[i, j])
        rings = backend.tables[direction].set_rings(targets)
        np.testing.assert_array_equal(backend.element_products(values, rings, direction), want)


def test_element_products_are_clean_estimates_that_draw_no_noise():
    """The backend's LUT read draws nothing: with noise on, two reads of the
    same inputs are equal, and equal to a noise-free backend's read (the
    handle measures them)."""
    array = preset_array("experimental_4x4")
    noisy = LutBackend(array, noise=NoiseConfig(seed=3), time_average_count=2)
    clean = LutBackend(array)
    rng = np.random.default_rng(6)
    values = rng.uniform(0.0, 1.0, (4, 4, 3))
    targets = rng.uniform(0.0, 1.0, (4, 4, 1))
    for direction in (FORWARD, BACKWARD):
        first, *others = (
            backend.element_products(values, backend.tables[direction].set_rings(targets), direction)
            for backend in (noisy, noisy, clean)
        )
        for other in others:
            np.testing.assert_array_equal(first, other)


@pytest.mark.parametrize("variant", ["symmetric", "legacy_asymmetric"])
def test_element_products_equal_their_own_direction_lut_read(variant):
    # Each direction's LUT is normalized by its own full scale, so unequal
    # forward and backward port losses need no correction between the two.
    array = preset_array("experimental_4x4", variant=variant)
    backend = LutBackend(array)
    rng = np.random.default_rng(2)
    values = rng.uniform(0.0, 1.0, (4, 4, 2))
    targets = rng.uniform(0.0, 1.0, (4, 4, 1))
    luts = build_lut(array, [0], [0])
    for direction in (FORWARD, BACKWARD):
        want, _ = reference_multiply(luts[direction], values, targets)
        rings = backend.tables[direction].set_rings(targets)
        np.testing.assert_array_equal(backend.element_products(values, rings, direction), want)


@pytest.mark.parametrize("name", list(BRANCH_ARRAYS))
def test_every_lut_branch_is_strictly_increasing(name):
    preset, sigma = BRANCH_ARRAYS[name]
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    rows, cols = np.divmod(np.arange(array.n**2), array.n)
    for direction, stack in build_lut(array, rows, cols).items():
        for e, branches in enumerate(assert_stacked_branches_equal_the_reference(stack)):
            for powers, response in branches:
                assert len(response) >= 2
                assert np.all(np.diff(response) > 0), (divmod(e, array.n), direction)
                assert np.all(np.diff(powers) > 0)


def test_stacked_branches_and_reads_equal_the_per_lut_loop_on_rough_grids():
    """Grids of a few integer power levels have ties, falls before the peak
    and peaks on the first or last knot: every design's branches, found in
    one pass over the stack, and its stacked read equal the per-LUT loop."""
    rng = np.random.default_rng(9)
    designs = 40
    out = rng.integers(1, 5, (designs, 6, 7)).astype(float)
    mzi = np.cumsum(rng.uniform(0.5, 1.5, (designs, 6)), axis=1)
    mrr = np.cumsum(rng.uniform(0.5, 1.5, (designs, 7)), axis=1)
    luts = CalibrationLUT(mzi, mrr, out)
    assert_stacked_branches_equal_the_reference(luts)
    values = rng.uniform(0.0, 1.1, (designs, 32))
    targets = rng.uniform(0.0, 1.1, (designs, 32))
    stack = LutStack(luts, np.arange(designs)[:, None])
    got, clamped = lut_multiply_many(stack, values, stack.set_rings(targets))
    for d in range(designs):
        want, want_clamped = reference_multiply(luts, values[d], targets[d], d)
        np.testing.assert_array_equal(got[d], want)
        np.testing.assert_array_equal(clamped[d], want_clamped)


# -- the stacked read -----------------------------------------------------------


@functools.cache
def element_luts(name, direction):
    """The array of a BRANCH_ARRAYS grid and the LUT each element reads,
    row-major, each a 1-design stack from its own sweep."""
    preset, sigma = BRANCH_ARRAYS[name]
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    built = {}
    for i in range(array.n):
        for j in range(array.n):
            on = CALIBRATED_ON[sigma](i, j)
            if on not in built:
                built[on] = one_element(array, *on)[direction]
    return array, [built[CALIBRATED_ON[sigma](i, j)] for i in range(array.n) for j in range(array.n)]


def edge_levels(response, rng, batch):
    """`batch` levels drawn from a branch's knots, the points between them,
    its ends and just past them, and levels outside it."""
    candidates = np.concatenate(
        [
            response,
            (response[:-1] + response[1:]) / 2,
            np.nextafter(response[[0, -1]], [-np.inf, np.inf]),
            [response[0] - 0.05, response[-1] + 0.05, 0.0, 1.0],
        ]
    )
    if batch >= len(candidates):
        return np.concatenate([candidates, rng.uniform(-0.1, 1.1, batch - len(candidates))])
    return rng.choice(candidates, batch, replace=False)


@pytest.mark.parametrize("batch", [1, 4, 64])
@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("name", list(BRANCH_ARRAYS))
def test_stacked_read_equals_the_per_lut_read_bit_for_bit(name, direction, batch):
    array, luts = element_luts(name, direction)
    n = array.n
    rng = np.random.default_rng(batch)
    values = np.empty((n, n, batch))
    targets = np.empty((n, n, batch))
    want = np.empty((n, n, batch))
    want_clamped = np.empty((n, n, batch), dtype=bool)
    for e, lut in enumerate(luts):
        i, j = divmod(e, n)
        (_, mzi_r), (_, mrr_r), _ = reference_branches(lut)
        values[i, j] = edge_levels(mzi_r, rng, batch)
        targets[i, j] = edge_levels(mrr_r, rng, batch)
        want[i, j], want_clamped[i, j] = reference_multiply(lut, values[i, j], targets[i, j])
    # Every element its own design, stacked in a shuffled order.
    order = rng.permutation(n * n)
    stack = LutStack(stack_of([luts[e] for e in order]), np.argsort(order).reshape(n, n, 1))
    got, clamped = lut_multiply_many(stack, values, stack.set_rings(targets))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(clamped, want_clamped)
    # The backend reads the same stack.
    backend = LutBackend(array)
    rings = backend.tables[direction].set_rings(targets)
    np.testing.assert_array_equal(backend.element_products(values, rings, direction), want)


def _corrupt_element(lut, what):
    """Copies of the fields of a 1-design LUT stack, corrupted."""
    mzi, mrr, out = (np.array(getattr(lut, f.name)) for f in fields(CalibrationLUT))
    if what == "negative power":
        out[0, 2, 3] = -1.0
    elif what == "nan power":
        out[0, 5, 0] = np.nan
    elif what == "reversed mzi axis":
        mzi = mzi[:, ::-1]
    elif what == "repeated ring knot":
        mrr[0, 4] = mrr[0, 3]
    elif what == "nan ring knot":
        mrr[0, 0] = np.nan
    elif what == "one-point axes":
        mzi, mrr, out = mzi[:, :1], mrr[:, :1], out[:, :1, :1]
    elif what == "transposed grid":
        mrr, out = mrr[:, :-1], out[:, :, :-1].transpose(0, 2, 1)
    elif what == "stacked mzi axis":
        mzi = mzi[None]
    elif what == "3-D axes":
        mzi, mrr = mzi[None], mrr[None]
    elif what == "1-D axes":
        mzi, mrr = mzi[0], mrr[0]
    return mzi, mrr, out


@pytest.mark.parametrize(
    "what, error, message",
    [
        ("negative power", ValueError, "non-negative"),
        ("nan power", ValueError, "non-negative"),
        ("reversed mzi axis", ValueError, "strictly increasing"),
        ("repeated ring knot", ValueError, "strictly increasing"),
        ("nan ring knot", ValueError, "strictly increasing"),
        ("one-point axes", ValueError, "at least two points"),
        ("transposed grid", ShapeError, r"output grid must be \(1, 64, 63\); got \(1, 63, 64\)"),
        ("stacked mzi axis", ValueError, "one row per design"),
        ("3-D axes", ValueError, "one row per design"),
        ("1-D axes", ValueError, "one row per design"),
    ],
)
def test_a_one_design_lut_with_a_bad_field_raises(what, error, message):
    lut = build_lut(preset_array("experimental_4x4"), [1], [2])[FORWARD]
    with pytest.raises(error, match=message):
        CalibrationLUT(*_corrupt_element(lut, what))


@pytest.fixture(scope="module")
def small_lut():
    return build_lut(preset_array("experimental_4x4"), [1], [2])[BACKWARD]


@pytest.mark.parametrize(
    "x_shape, w_shape",
    [((5,), ()), ((5,), (5,)), ((3, 1), (1, 4)), ((2, 1, 3), (1, 4, 1))],
)
def test_one_lut_read_broadcasts_its_inputs(small_lut, x_shape, w_shape):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.1, 1.1, x_shape)
    w = rng.uniform(-0.1, 1.1, w_shape)
    values, clamped = one_lut_read(small_lut, x, w)
    want, want_clamped = reference_multiply(small_lut, x, w)
    assert values.shape == clamped.shape == np.broadcast_shapes(x_shape, w_shape)
    np.testing.assert_array_equal(values, want)
    np.testing.assert_array_equal(clamped, want_clamped)


# LUTs whose MZI axis starts at 0 mW, so that np.interp puts the power of a
# level just below a branch knot an ulp past the knot's power: inside the
# grid the read moves on to the next cell; on the grid's end it stays in the
# last cell at fraction 1.
PAST_SEGMENT_END = {
    "next cell": ([0.0, 0.359, 2.0], [0.168, 0.499, 1.0], 0.499),
    "grid end": ([0.0, 0.744], [0.284, 1.0], 1.0),
}


@pytest.mark.parametrize("case", list(PAST_SEGMENT_END))
def test_a_power_an_ulp_past_its_segment_reads_like_a_grid_search(case):
    mzi, column, knot = PAST_SEGMENT_END[case]
    grid = np.zeros((len(mzi), 2))
    grid[:, 1] = column
    lut = CalibrationLUT(np.array([mzi]), np.array([[0.0, 1.0]]), grid[None])
    x = np.nextafter(knot, 0.0)
    (powers, response), _, _ = reference_branches(lut)
    assert np.interp(x, response, powers) > powers[np.searchsorted(response, knot)]
    want, _ = reference_multiply(lut, x, 1.0)
    assert one_lut_read(lut, x, 1.0)[0] == want


def test_stacked_read_of_luts_with_unequal_axes():
    array = preset_array("experimental_4x4", fabrication_sigma_nm=0.02, seed=0)
    lut = build_lut(array, np.arange(2), np.arange(2))[FORWARD]
    luts = CalibrationLUT(lut.mzi_powers_mw[:, 4:], lut.mrr_powers_mw, lut.output_power[:, 4:])
    rng = np.random.default_rng(4)
    values = rng.uniform(0.0, 1.0, (2, 1, 8))
    targets = rng.uniform(0.0, 1.0, (2, 3, 1))
    design = np.array([[0, 1, 1], [1, 0, 1]])
    stack = LutStack(luts, design[:, :, None])
    got, clamped = lut_multiply_many(stack, values, stack.set_rings(targets))
    for (i, j), d in np.ndenumerate(design):
        want, want_clamped = reference_multiply(luts, values[i, 0], targets[i, j], d)
        np.testing.assert_array_equal(got[i, j], want)
        np.testing.assert_array_equal(clamped[i, j], want_clamped)


@pytest.mark.parametrize(
    "preset, sigma",
    [
        ("experimental_4x4", 0.0),
        ("experimental_4x4", 0.02),
        ("simulation_9x9", 0.0),
        ("simulation_9x9", 0.02),
    ],
)
def test_build_lut_equals_a_per_setting_sweep_of_the_grid(preset, sigma):
    """Every LUT column is the crossbar's reading of its own calibration
    program: the element's ring at that setting and every other ring parked,
    its MZI sweeping and every other MZI at its extinction floor."""
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    grid = array.ring_grid
    floor = array.input_transmittances(np.zeros(array.n))
    rows, cols = np.divmod(np.arange(array.n**2), array.n)
    stacks = build_lut(array, rows, cols)
    for e, (i, j) in enumerate(zip(rows, cols)):
        luts = build_lut(array, [i], [j])
        for direction in (FORWARD, BACKWARD):
            stack, lut = stacks[direction], luts[direction]
            driven, port = (i, j) if direction == FORWARD else (j, i)
            t = np.tile(floor, (LUT_STEPS, 1))
            t[:, driven] = array.mzi.transmittance(lut.mzi_powers_mw[0])
            for k, power in enumerate(lut.mrr_powers_mw[0]):
                heaters = grid.parked_heaters()
                heaters[i, j] = power
                reading = array.read(t, array.summed_drop(heaters), direction)
                np.testing.assert_array_equal(lut.output_power[0, :, k], reading[:, port])
                np.testing.assert_array_equal(stack.output_power[e, :, k], reading[:, port])


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("name", list(BRANCH_ARRAYS))
def test_stacked_sweep_equals_the_one_element_sweep_bit_for_bit(name, direction):
    """One sweep over every element is, design by design, the sweep of that
    element alone; on simulation_9x9 the ring windows of the fabrication
    spread are a mix of windows moved up one order and windows left alone."""
    preset, sigma = BRANCH_ARRAYS[name]
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    n = array.n
    rows, cols = np.divmod(np.arange(n * n), n)
    stack = build_lut(array, rows, cols)[direction]
    assert stack.output_power.shape == (n * n, LUT_STEPS, LUT_STEPS)
    for e, (i, j) in enumerate(zip(rows, cols)):
        lut = build_lut(array, [i], [j])[direction]
        for f in fields(CalibrationLUT):
            np.testing.assert_array_equal(getattr(stack, f.name)[e], getattr(lut, f.name)[0])
    grid = array.ring_grid
    moved = grid.aligned_heaters() < LUT_RING_WINDOW_NM / grid.constants.shift_per_mw
    if name == "simulation_9x9-sigma0.02":
        assert 0 < moved.sum() < n * n


def test_a_ring_window_beyond_the_heater_range_raises_in_either_form():
    # Aligned at zero power, every ring's window moves up one order spacing,
    # past a 10 mW heater; for one element or several.
    array = build_crossbar(4, ring_template=RingDevice(max_power_mw=10.0))
    message = r"^element \(1,2\): the LUT ring window needs 38\.\d+ mW, beyond .* of 10\.0 mW$"
    for rows, cols in (([1], [2]), ([1, 2], [2, 0])):
        with pytest.raises(InfeasibleError, match=message):
            build_lut(array, np.array(rows), np.array(cols))


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ([4], [0], r"^element \(4,0\) outside a 4x4 crossbar$"),
        ([0, 1], [2, -1], r"^element \(1,-1\) outside a 4x4 crossbar$"),
        ([[0]], [[0]], r"must be 1-D arrays of one length; got \(1, 1\) and \(1, 1\)$"),
        (1, 2, r"must be 1-D arrays of one length; got \(\) and \(\)$"),
        ([0, 1], [0], r"must be 1-D arrays of one length; got \(2,\) and \(1,\)$"),
    ],
    ids=["row-outside", "col-outside", "2-D", "scalars", "unequal-lengths"],
)
def test_element_indices_outside_the_crossbar_or_not_1d_raise(rows, cols, message):
    with pytest.raises(ShapeError, match=message):
        build_lut(preset_array("experimental_4x4"), np.array(rows), np.array(cols))


def _corrupt_design(lut, what):
    """Copies of the fields of a 3-design LUT stack, with design 1 corrupted."""
    mzi, mrr, out = (np.array(getattr(lut, f.name)) for f in fields(CalibrationLUT))
    if what == "negative power":
        out[1, 2, 3] = -1.0
    elif what == "nan power":
        out[1, 5, 0] = np.nan
    elif what == "reversed ring axis":
        mrr[1] = mrr[1, ::-1]
    elif what == "nan mzi knot":
        mzi[1, 4] = np.nan
    elif what == "short output grid":
        out = out[:, :, :-1]
    elif what == "ring axes of two designs":
        mrr = mrr[:2]
    return mzi, mrr, out


@pytest.mark.parametrize(
    "what, error, message",
    [
        ("negative power", ValueError, "non-negative"),
        ("nan power", ValueError, "non-negative"),
        ("reversed ring axis", ValueError, "strictly increasing"),
        ("nan mzi knot", ValueError, "strictly increasing"),
        ("short output grid", ShapeError, r"output grid must be \(3, 64, 64\)"),
        ("ring axes of two designs", ValueError, "one row per design"),
    ],
)
def test_a_lut_stack_with_one_bad_design_raises(what, error, message):
    array = preset_array("experimental_4x4", fabrication_sigma_nm=0.02, seed=0)
    stack = build_lut(array, np.arange(3), np.arange(3))[FORWARD]
    with pytest.raises(error, match=message):
        CalibrationLUT(*_corrupt_design(stack, what))


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("name", list(BRANCH_ARRAYS))
def test_backend_tables_read_what_a_stack_of_one_element_luts_reads(name, direction):
    """The backend's table, from one sweep over its designs, reads bit for
    bit what a stack of one-element LUTs does, each element its own design,
    clamp flags included."""
    array, luts = element_luts(name, direction)
    n = array.n
    rng = np.random.default_rng(8)
    values = np.empty((n, n, 16))
    targets = np.empty((n, n, 16))
    for e, lut in enumerate(luts):
        (_, mzi_r), (_, mrr_r), _ = reference_branches(lut)
        values[divmod(e, n)] = edge_levels(mzi_r, rng, 16)
        targets[divmod(e, n)] = edge_levels(mrr_r, rng, 16)
    per_element = LutStack(stack_of(luts), np.arange(n * n).reshape(n, n, 1))
    table = LutBackend(array).tables[direction]
    got = lut_multiply_many(table, values, table.set_rings(targets))
    want = lut_multiply_many(per_element, values, per_element.set_rings(targets))
    for got_part, want_part in zip(got, want):
        np.testing.assert_array_equal(got_part, want_part)


def test_a_lut_backend_calibrates_both_directions_in_one_sweep(monkeypatch):
    """One init sweeps every design once: one `build_lut` call, and two
    lineshape calls, the swept rings' and the dark program's that every
    calibration program starts from."""
    array = preset_array("experimental_4x4", fabrication_sigma_nm=0.02, seed=0)
    calls = []
    for owner, name in ((backends, "build_lut"), (RingGrid, "drop_through_tensor")):

        def counted(*args, original=getattr(owner, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    LutBackend(array)
    assert sorted(calls) == ["build_lut", "drop_through_tensor", "drop_through_tensor"]


def test_rings_are_set_twice_per_program_and_never_per_product(monkeypatch):
    """A program sets each direction's rings once, for the whole stack; its
    products, its all-ones pass and its views only read them."""
    calls = []
    set_rings = LutStack.set_rings

    def counted(self, w):
        calls.append(np.shape(w))
        return set_rings(self, w)

    monkeypatch.setattr(LutStack, "set_rings", counted)
    backend = LutBackend(preset_array("experimental_4x4"))
    rng = np.random.default_rng(5)
    handle = backend.program(rng.normal(size=(2, 3, 4)))
    assert calls == [(2, 4, 4, 1)] * 2
    for read in (handle, handle.view(0, 3, 4), handle.view(1, 3, 4)):
        read.forward(rng.uniform(0.0, 1.0, (4, 5)))
        read.backward(rng.normal(size=(3, 5)))
    assert len(calls) == 2


FUSED_ARRAYS = {
    "experimental_4x4": lambda: preset_array("experimental_4x4"),
    "experimental_4x4_fab": lambda: preset_array(
        "experimental_4x4", fabrication_sigma_nm=0.02, seed=7
    ),
    "simulation_9x9": lambda: preset_array("simulation_9x9"),
}
FUSED_NOISE = {
    "off": lambda: None,
    "one stream": lambda: NoiseConfig(seed=3),
    "per-run streams": lambda: [NoiseConfig(seed=3, stream=run) for run in range(2)],
}


def product_then_ones(handle, s_prime):
    """The raw backward product of s', then the all-ones pass at the shape
    of s': two LUT reads, each measured as it is read."""
    backend = handle.backend

    def read(values):
        est = backend.element_products(values[..., None, :, :], handle._rings_bwd, BACKWARD)
        return backend._measure(est, -4).sum(axis=-2)

    return read(s_prime), read(np.ones(s_prime.shape[:-1] + (1,)))


@pytest.mark.parametrize("time_average", [1, 2, 3])
@pytest.mark.parametrize("noise", list(FUSED_NOISE))
@pytest.mark.parametrize("preset", list(FUSED_ARRAYS))
def test_one_backward_read_equals_a_product_read_then_an_all_ones_read(preset, noise, time_average):
    """A backward with its all-ones pass in one LUT read reads, bit for bit
    and in the same noise draws, what a product read and then an all-ones
    read give on an identically seeded backend: for a (layers, runs) stack
    and its views, for s' with the program's leading axes, fewer or more."""
    array = FUSED_ARRAYS[preset]()
    n = array.n
    fused, reference = (
        LutBackend(array, noise=FUSED_NOISE[noise](), time_average_count=time_average)
        for _ in range(2)
    )
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(2, 2, n - 1, n))  # (layers, runs, out, in)
    for batch in (1, 5):
        a, b = fused.program(stack), reference.program(stack)
        # Through `backward`, against the decode of the two readings.
        s = rng.normal(size=(2, 2, n - 1, batch))
        got = a.backward(s)
        s_prime, scales, offsets = encode_signed_columns(b._padded(s, n - 1, "error"))
        raw, ones = product_then_ones(b, s_prime)
        sums = s_prime.sum(axis=-2, keepdims=True)
        np.testing.assert_array_equal(
            got, decode_output(raw, b.encoding, scales, offsets, sums, n, ones)
        )
        np.testing.assert_array_equal(
            a._raw_backward(np.zeros((n, 0)))[1], product_then_ones(b, np.zeros((n, 0)))[1]
        )
        # The raw read of fresh views, and of a fresh stack program.
        pairs = [(a.view(k, n - 1, n), b.view(k, n - 1, n), (2,)) for k in range(2)]
        pairs.append((fused.program(stack), reference.program(stack), (2, 2)))
        for a, b, lead in pairs:
            for shape in (lead, (), (3, *lead)):
                s_prime = rng.uniform(0.0, 1.0, (*shape, n, batch))
                got = a._raw_backward(s_prime)
                want = product_then_ones(b, s_prime)
                for got_part, want_part in zip(got, want):
                    np.testing.assert_array_equal(got_part, want_part)
                assert got[1].shape == (*np.broadcast_shapes(shape, lead), n, 1)
        # An all-ones response read with a product of no columns.
        for k in range(2):
            np.testing.assert_array_equal(
                fused.program(stack).view(k, n - 1, n)._raw_backward(np.zeros((n, 0)))[1],
                product_then_ones(reference.program(stack).view(k, n - 1, n), np.zeros((n, 0)))[1],
            )


def test_a_backward_and_its_all_ones_pass_are_one_lut_read(monkeypatch):
    """Every backward, a program's first or a later one, reads its all-ones
    pass as one more column of its one LUT read."""
    columns = []
    read = backends.lut_multiply_many

    def counted(stack, x, rings):
        columns.append(np.shape(x)[-1])
        return read(stack, x, rings)

    monkeypatch.setattr(backends, "lut_multiply_many", counted)
    backend = LutBackend(preset_array("experimental_4x4"))
    rng = np.random.default_rng(13)
    handle = backend.program(rng.normal(size=(2, 3, 4)))
    for program in (handle, handle.view(0, 3, 4), handle.view(1, 3, 4)):
        columns.clear()
        program.backward(rng.normal(size=(3, 5)))
        program.backward(rng.normal(size=(3, 5)))
        assert columns == [6, 6]
