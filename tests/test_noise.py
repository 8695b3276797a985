"""Measurement-noise tests: a time-averaged reading drawn in one call is
bit for bit the mean of its repeats read one after another."""

import numpy as np
import pytest

from xbar.backends import LutBackend, make_backend
from xbar.noise import NoiseConfig, make_rng, perturb
from xbar.presets import preset_array


def readings_in_a_row(powers, cfg, rng, repeats):
    """The mean of `repeats` single readings taken one after another,
    summed in the order taken."""
    total = perturb(powers, cfg, rng).copy()
    for _ in range(repeats - 1):
        total += perturb(powers, cfg, rng)
    return total / repeats


@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.5])
@pytest.mark.parametrize("repeats", [1, 2, 3, 5])
def test_one_draw_of_repeats_equals_readings_in_a_row(sigma, repeats):
    powers = np.random.default_rng(1).uniform(0.0, 1.0, (2, 3, 4))
    cfg = NoiseConfig(relative_sigma=sigma, seed=4)
    rng, rng_in_a_row = make_rng(4), make_rng(4)
    np.testing.assert_array_equal(
        perturb(powers, cfg, rng, repeats), readings_in_a_row(powers, cfg, rng_in_a_row, repeats)
    )
    # The stream goes on where the single readings leave it.
    np.testing.assert_array_equal(rng.normal(size=5), rng_in_a_row.normal(size=5))


def test_a_noiseless_three_repeat_reading_is_the_mean_of_three_readings():
    powers = np.random.default_rng(2).uniform(0.0, 1.0, 1000)
    got = perturb(powers, NoiseConfig(relative_sigma=0.0), make_rng(0), 3)
    np.testing.assert_array_equal(got, (powers + powers + powers) / 3)
    assert not np.array_equal(got, powers)


def test_a_reading_does_not_write_into_its_powers():
    powers = np.random.default_rng(3).uniform(0.0, 1.0, (4, 4))
    kept = powers.copy()
    for sigma in (0.0, 0.02):
        for repeats in (1, 3):
            perturb(powers, NoiseConfig(relative_sigma=sigma), make_rng(0), repeats)
    np.testing.assert_array_equal(powers, kept)


@pytest.mark.parametrize("bad", [-1e-9, np.nan, -np.inf])
def test_perturb_rejects_negative_or_nan_powers(bad):
    powers = np.array([0.1, bad, 0.3])
    for sigma in (0.0, 0.02):
        with pytest.raises(ValueError, match="non-negative"):
            perturb(powers, NoiseConfig(relative_sigma=sigma), make_rng(0))


def test_perturb_rejects_fewer_than_one_repeat():
    with pytest.raises(ValueError, match="repeats"):
        perturb(np.ones(3), NoiseConfig(), make_rng(0), 0)


def test_an_empty_reading_draws_nothing():
    rng, untouched = make_rng(6), make_rng(6)
    assert perturb(np.ones((3, 0)), NoiseConfig(), rng, 2).shape == (3, 0)
    np.testing.assert_array_equal(rng.normal(size=3), untouched.normal(size=3))


@pytest.mark.parametrize("count", [0, -1])
def test_backends_reject_a_time_average_count_below_one(count):
    array = preset_array("experimental_4x4")
    with pytest.raises(ValueError, match="time_average_count"):
        make_backend("photonic", array, noise=NoiseConfig(), time_average_count=count)
    with pytest.raises(ValueError, match="time_average_count"):
        LutBackend(array, time_average_count=count)
