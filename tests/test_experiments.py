"""Experiment-level tests: per-run noise streams and config knobs that
reach the experiment. The CLI re-run contract is in test_cli.py."""

import numpy as np

from xbar.backends import make_backend
from xbar.config import RunConfig
from xbar.crossbar import FORWARD
from xbar.experiments import build_array, noise_config, run_experiment
from xbar.lut import build_lut, lut_to_csv
from xbar.noise import NoiseConfig
from xbar.presets import preset_array


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
    written = (out / "lut_element_1_1.csv").read_bytes()
    expected = {}
    for preset in ("simulation_9x9", "experimental_4x4"):
        lut_to_csv(build_lut(preset_array(preset), 0, 0)[FORWARD], tmp_path / f"{preset}.csv")
        expected[preset] = (tmp_path / f"{preset}.csv").read_bytes()
    assert written == expected["simulation_9x9"]
    assert written != expected["experimental_4x4"]


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
