"""LUT calibration tests."""

import numpy as np
import pytest

from xbar.backends import LutBackend
from xbar.crossbar import BACKWARD, FORWARD
from xbar.lut import LUT_RING_WINDOW_NM, build_lut
from xbar.presets import EXPERIMENTAL_ALIGN_MW, preset_array

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
