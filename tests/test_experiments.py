"""Experiment-level tests: re-run byte identity and per-run noise streams."""

import numpy as np
import pytest

from xbar.backends import make_backend
from xbar.config import RunConfig
from xbar.experiments import build_array, noise_config, run_experiment
from xbar.noise import NoiseConfig


@pytest.mark.parametrize(
    "experiment", ["characterize-devices", "measure-matrix", "sweep-scaling", "iris-inference"]
)
def test_rerun_at_default_config_is_byte_identical(tmp_path, experiment):
    outputs = []
    for name in ("a", "b"):
        config = RunConfig.from_dict({"experiment": experiment, "out_dir": str(tmp_path / name)})
        out_dir = run_experiment(config)
        # The manifest records out_dir, so it differs by design.
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}
        )
    assert outputs[0] and outputs[0] == outputs[1]


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
