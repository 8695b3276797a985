"""Experiment-level tests: per-run noise streams and config knobs that
reach the experiment. The CLI re-run contract is in test_cli.py."""

import csv

import numpy as np
import pytest

from xbar.backends import make_backend
from xbar.config import RunConfig
from xbar.crossbar import FORWARD
from xbar.experiments import build_array, noise_config, run_experiment
from xbar.lut import LUT_STEPS, build_lut
from xbar.noise import NoiseConfig
from xbar.presets import preset_array


def read_lut_csv(path) -> np.ndarray:
    """The rows of sweep-scaling's LUT CSV, parsed, after checking its header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["mzi_mw", "mrr_mw", "power"]
    return np.array(rows, dtype=float)


def lut_rows(array) -> np.ndarray:
    """Design 0 of the forward LUT of element (0, 0): one (mzi, mrr, power)
    row per grid point, MZI-major."""
    lut = build_lut(array, [0], [0])[FORWARD]
    mzi, mrr = np.meshgrid(lut.mzi_powers_mw[0], lut.mrr_powers_mw[0], indexing="ij")
    return np.stack([mzi.ravel(), mrr.ravel(), lut.output_power[0].ravel()], axis=1)


def test_mnist_train_honours_the_configured_optimizer(tmp_path, mnist_dir):
    outputs = {}
    for optimizer in ("sgd", "adam"):
        config = RunConfig.from_dict(
            {
                "experiment": "mnist-train",
                "out_dir": str(tmp_path / optimizer),
                "training": {"backend": "ideal", "epochs": 1, "batch_size": 2, "optimizer": optimizer},
                "datasets": {"mnist_dir": str(mnist_dir), "mnist_train": 4, "mnist_test": 4},
            }
        )
        out_dir = run_experiment(config)
        outputs[optimizer] = (out_dir / "cost_history.csv").read_bytes()
    assert outputs["sgd"] != outputs["adam"]


def test_iris_train_runs_draw_independent_noise_streams():
    config = RunConfig.from_dict(
        {"experiment": "iris-train", "seed": 3, "noise": {"enabled": True}}
    )
    array = build_array(config)
    rng = np.random.default_rng(0)
    w = rng.uniform(-1.0, 1.0, (3, 4))
    x = rng.uniform(0.0, 1.0, (4, 8))

    def reading(noise):
        return make_backend("photonic", array, noise=noise).program(w).forward(x)

    run0, run1 = reading(noise_config(config, 0)), reading(noise_config(config, 1))
    assert not np.array_equal(run0, run1)
    np.testing.assert_array_equal(reading(noise_config(config)), run0)
    # Run 0 keeps the stream that every run drew from before runs had their own.
    shared = NoiseConfig(relative_sigma=config.noise.relative_sigma, seed=config.seed)
    np.testing.assert_array_equal(reading(shared), run0)


def test_iris_inference_trains_with_the_configured_optimizer(tmp_path):
    histories = {}
    for optimizer in ("sgd", "adam"):
        config = RunConfig.from_dict(
            {
                "experiment": "iris-inference",
                "out_dir": str(tmp_path / optimizer),
                "training": {"optimizer": optimizer, "epochs": 3},
            }
        )
        histories[optimizer] = (run_experiment(config) / "cost_history.csv").read_bytes()
    assert histories["sgd"] != histories["adam"]


def test_sweep_scaling_writes_the_lut_of_the_configured_array(tmp_path):
    config = RunConfig.from_dict(
        {
            "experiment": "sweep-scaling",
            "out_dir": str(tmp_path / "run"),
            "devices": {"preset": "simulation_9x9"},
        }
    )
    out = run_experiment(config)
    assert sorted(p.name for p in out.iterdir()) == [
        "lut_element_1_1.csv",
        "manifest.json",
        "path_loss_backward_db.csv",
        "path_loss_forward_db.csv",
        "scaling.csv",
    ]
    written = read_lut_csv(out / "lut_element_1_1.csv")
    np.testing.assert_array_equal(written, lut_rows(preset_array("simulation_9x9")))
    assert not np.array_equal(written, lut_rows(preset_array("experimental_4x4")))


@pytest.mark.parametrize(
    "preset, sigma",
    [
        ("experimental_4x4", 0.0),
        ("experimental_4x4", 0.02),
        ("simulation_9x9", 0.0),
        ("simulation_9x9", 0.02),
    ],
)
def test_lut_csv_is_the_row_major_grid_at_full_precision(tmp_path, preset, sigma):
    """sweep-scaling's LUT CSV holds one row per grid point, MZI-major, and
    every field parses back bit for bit to design 0 of the configured
    array's forward LUT of element (0, 0)."""
    config = RunConfig.from_dict(
        {
            "experiment": "sweep-scaling",
            "out_dir": str(tmp_path),
            "devices": {"preset": preset, "fabrication_sigma_nm": sigma},
        }
    )
    got = read_lut_csv(run_experiment(config) / "lut_element_1_1.csv")
    assert got.shape == (LUT_STEPS**2, 3)
    np.testing.assert_array_equal(got, lut_rows(build_array(config)))


def test_characterize_devices_with_random_mzi_phases(tmp_path):
    config = RunConfig.from_dict(
        {
            "experiment": "characterize-devices",
            "out_dir": str(tmp_path),
            "devices": {"random_mzi_phases": True},
        }
    )
    fringes = {p.name: p.read_bytes() for p in run_experiment(config).glob("mzi_*.csv")}
    n = build_array(config).n
    expected = {
        f"mzi_{direction}_in{port}.csv"
        for direction in ("forward", "backward")
        for port in range(1, n + 1)
    }
    assert set(fringes) == expected
    # Every port draws its own phase, so the fringes differ between ports.
    assert len(set(fringes.values())) > 1
