"""LUT calibration tests."""

import numpy as np
import pytest

from xbar.backends import LutBackend
from xbar.crossbar import BACKWARD, FORWARD
from xbar.errors import DataFormatError
from xbar.lut import (
    LUT_RING_WINDOW_NM,
    LUT_VERSION,
    build_lut,
    compensate_asymmetry,
    lut_from_binary,
    lut_from_csv,
    lut_multiply_many,
    lut_to_binary,
    lut_to_csv,
)
from xbar.presets import EXPERIMENTAL_ALIGN_MW, preset_array

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
    mrr = build_lut(array, 0, 0, steps=16, direction=direction).mrr_powers_mw
    assert np.all(np.diff(mrr) > 0)
    assert mrr[-1] == p_align + ring.fsr_nm() / ring.resonance_shift_per_mw
    assert mrr[-1] - mrr[0] == pytest.approx(span)
    assert 0.0 < mrr[0] and mrr[-1] <= ring.shifter.max_power_mw


@pytest.mark.parametrize("preset", list(NEAR_ZERO_ALIGNMENT))
def test_lut_backend_calibrates_on_near_zero_alignment_presets(preset):
    backend = LutBackend(NEAR_ZERO_ALIGNMENT[preset](), steps=16)
    w = np.array([[0.5, -0.25], [1.0, 0.0]])
    assert np.all(np.isfinite(backend.program(w).forward(np.array([0.3, 0.8]))))


def test_ring_window_unchanged_when_alignment_leaves_room():
    array = preset_array("experimental_4x4")
    ring = array.ring_grid.rings[0][0]
    p_align = array.ring_grid.aligned_heaters()[0, 0]
    assert p_align == pytest.approx(EXPERIMENTAL_ALIGN_MW, abs=0.5)
    lut = build_lut(array, 0, 0, steps=16)
    np.testing.assert_array_equal(
        lut.mrr_powers_mw,
        np.linspace(p_align - LUT_RING_WINDOW_NM / ring.resonance_shift_per_mw, p_align, 16),
    )


# Element whose LUT pair calibrates element (i, j): a uniform grid is one
# ring design calibrated on (0, 0); with a fabrication spread every ring is
# its own design.
CALIBRATED_ON = {0.0: lambda i, j: (0, 0), 0.02: lambda i, j: (i, j)}


@pytest.mark.parametrize("sigma", list(CALIBRATED_ON))
def test_element_products_match_a_per_element_lut_loop(sigma):
    array = preset_array("experimental_4x4", fabrication_sigma_nm=sigma, seed=0)
    backend = LutBackend(array, steps=16)
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1.0, (4, 4, 3))
    targets = rng.uniform(0.0, 1.0, (4, 4, 1))
    for direction in (FORWARD, BACKWARD):
        want = np.empty((4, 4, 3))
        for i in range(4):
            for j in range(4):
                fwd, bwd = (
                    build_lut(array, *CALIBRATED_ON[sigma](i, j), steps=16, direction=d)
                    for d in (FORWARD, BACKWARD)
                )
                lut = fwd if direction == FORWARD else bwd
                want[i, j], _ = lut_multiply_many(lut, values[i, j], targets[i, j])
                asymmetry = compensate_asymmetry(fwd, bwd)
                if asymmetry.apply_to == direction:
                    want[i, j] += asymmetry.bias
        np.testing.assert_array_equal(backend.element_products(values, targets, direction), want)


def test_forward_bias_is_added_to_forward_products():
    array = preset_array("experimental_4x4")
    fwd, bwd = (build_lut(array, 0, 0, direction=d) for d in (FORWARD, BACKWARD))
    asymmetry = compensate_asymmetry(fwd, bwd)
    assert asymmetry.apply_to == FORWARD and asymmetry.bias > 0.0
    backend = LutBackend(array)
    rng = np.random.default_rng(2)
    values = rng.uniform(0.0, 1.0, (4, 4, 2))
    targets = rng.uniform(0.0, 1.0, (4, 4, 1))
    for direction, lut, bias in ((FORWARD, fwd, asymmetry.bias), (BACKWARD, bwd, 0.0)):
        bare, _ = lut_multiply_many(lut, values, targets)
        np.testing.assert_array_equal(
            backend.element_products(values, targets, direction), bare + bias
        )


@pytest.mark.parametrize("name", list(BRANCH_ARRAYS))
def test_every_lut_branch_is_strictly_increasing(name):
    preset, sigma = BRANCH_ARRAYS[name]
    array = preset_array(preset, fabrication_sigma_nm=sigma, seed=0)
    for i in range(array.n):
        for j in range(array.n):
            for direction in (FORWARD, BACKWARD):
                mzi_p, mzi_r, mrr_p, mrr_r, _ = build_lut(array, i, j, direction=direction)._branches()
                for powers, response in ((mzi_p, mzi_r), (mrr_p, mrr_r)):
                    assert len(response) >= 2
                    assert np.all(np.diff(response) > 0), (i, j, direction)
                    assert np.all(np.diff(powers) > 0)


@pytest.fixture(scope="module")
def small_lut():
    return build_lut(preset_array("experimental_4x4"), 1, 2, steps=8, direction=BACKWARD)


@pytest.mark.parametrize("write, read", [(lut_to_csv, lut_from_csv), (lut_to_binary, lut_from_binary)])
def test_lut_round_trip_is_bit_equal(tmp_path, small_lut, write, read):
    path = tmp_path / "element.lut"
    write(small_lut, path)
    back = read(path, direction=BACKWARD)
    np.testing.assert_array_equal(back.mzi_powers_mw, small_lut.mzi_powers_mw)
    np.testing.assert_array_equal(back.mrr_powers_mw, small_lut.mrr_powers_mw)
    np.testing.assert_array_equal(back.output_power, small_lut.output_power)
    assert back.direction == BACKWARD


def _corrupt_csv(text: str, what: str) -> str:
    lines = text.splitlines(keepends=True)
    if what == "header":
        lines[0] = "mzi,mrr,power\n"
    else:  # a data row with a missing column
        lines[3] = ",".join(lines[3].split(",")[:2]) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("what, message", [("header", "header"), ("columns", ":4: expected 3 columns")])
def test_corrupt_lut_csv_raises_data_format_error(tmp_path, small_lut, what, message):
    path = tmp_path / "element.csv"
    lut_to_csv(small_lut, path)
    path.write_text(_corrupt_csv(path.read_text(), what))
    with pytest.raises(DataFormatError, match=message):
        lut_from_csv(path)


def _corrupt_binary(raw: bytes, what: str) -> bytes:
    header = np.frombuffer(raw[:64], dtype="<f8").copy()
    if what == "magic":
        header[0] += 1.0
    elif what == "version":
        header[1] = LUT_VERSION + 1.0
    elif what == "truncated header":
        return raw[:40]
    elif what == "byte count":
        return raw[:-8]
    return header.tobytes() + raw[64:]


@pytest.mark.parametrize(
    "what, message",
    [
        ("magic", "bad LUT magic"),
        ("version", "unsupported LUT version"),
        ("truncated header", "truncated LUT header"),
        ("byte count", "expected 576 bytes, found 568"),
    ],
)
def test_corrupt_lut_binary_raises_data_format_error(tmp_path, small_lut, what, message):
    path = tmp_path / "element.lut"
    lut_to_binary(small_lut, path)
    path.write_bytes(_corrupt_binary(path.read_bytes(), what))
    with pytest.raises(DataFormatError, match=message):
        lut_from_binary(path)
