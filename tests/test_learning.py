"""Learning outcome on the photonic backend: the CNN trained by `train_mnist`
on synthetic digits against the ideal backend at the same seed.

Both runs draw the same initial weights and sample order, so they differ
only by the crossbar's products. The photonic run must read ideal's test
accuracy and training cost at every epoch, within bounds set from 30 seeds.
The CNN's kernel gradient is electronic, so this checks the crossbar's
forward convolutions as training sees them; `tests/test_gradients.py`
checks the backward product.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from xbar.backends import make_backend
from xbar.config import TrainingSection
from xbar.datasets import load_mnist_subset
from xbar.nn import train_mnist
from xbar.presets import preset_array

# The benchmark's digit generator, imported read-only.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from synth_mnist import write_mnist_idx  # noqa: E402

TRAIN_DIGITS, TEST_DIGITS = 256, 128
# The benchmark's mnist-photonic training, two epochs.
TRAINING = TrainingSection(
    backend="photonic", optimizer="adam", learning_rate=0.003, epochs=2, batch_size=16
)
# Over seeds 0-29, photonic read within 0.0156 (2 of 128 test digits) of
# ideal's per-epoch accuracy and within 0.0133 of its per-epoch cost, both at
# seed 2; the bounds are about twice those. lut, whose products are 400x
# less exact (ROADMAP item 7), trails by 0.06-0.34 in accuracy and 0.38-0.91
# in cost at seeds 0-2.
ACCURACY_GAP = 0.03
COST_GAP = 0.03


@pytest.fixture(scope="module")
def array():
    return preset_array("simulation_9x9")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_photonic_training_reads_ideal_training_every_epoch(array, seed, tmp_path):
    write_mnist_idx(tmp_path, seed, TRAIN_DIGITS, TEST_DIGITS)
    data = load_mnist_subset(tmp_path, TRAIN_DIGITS, TEST_DIGITS)
    results = {
        name: train_mnist(
            TRAINING,
            seed,
            data.train_images,
            data.train_labels,
            data.test_images,
            data.test_labels,
            make_backend(name, array),
        )
        for name in ("ideal", "photonic")
    }
    ideal, photonic = results["ideal"], results["photonic"]
    # Training moved: the outcome is not two runs stuck at chance.
    assert ideal.accuracy_history[-1] > 0.3
    assert np.all(np.diff(ideal.cost_history) < 0)
    np.testing.assert_allclose(
        photonic.accuracy_history, ideal.accuracy_history, rtol=0, atol=ACCURACY_GAP
    )
    np.testing.assert_allclose(photonic.cost_history, ideal.cost_history, rtol=0, atol=COST_GAP)
