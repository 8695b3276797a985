"""Gradient agreement on the photonic backend: the crossbar's backward
product, which serves training's error signals from the forward's heater
program, against the exact product of the same forward activations.

Each case runs one seeded training step's passes through a `PhotonicBackend`
and recomputes the error signals exactly from the activations that the
crossbar's forward produced, so only the backward reads differ. The
symmetric layout gives the backward the forward's path losses, so its error
stays within a small factor of the forward's; the legacy layout's
position-dependent losses are recorded, not asserted.
"""

import numpy as np
import pytest

from xbar.backends import PhotonicBackend
from xbar.crossbar import LEGACY_ASYMMETRIC, SYMMETRIC
from xbar.nn import CnnModel, CnnRunner, MlpModel, MlpRunner, dsigmoid_from_output, im2col, one_hot
from xbar.presets import preset_array

# The backward's error may exceed the forward's by at most this factor on the
# symmetric layout: both read one effective matrix, so they differ only by
# their operands' conditioning.
BACKWARD_FACTOR = 2.0
# Cosine floor of a backward read against the exact product.
MIN_COSINE = 0.9999


def rel_err(got, exact) -> float:
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))


def cosine(got, exact) -> float:
    got, exact = np.ravel(got), np.ravel(exact)
    return float(got @ exact / (np.linalg.norm(got) * np.linalg.norm(exact)))


def mlp_errors(variant: str) -> dict:
    """Forward, backward and weight-gradient errors of one step of the
    lockstep Iris MLP: 4 runs, programmed as one (2, 4, 4, 4) stack on
    experimental_4x4."""
    backend = PhotonicBackend(preset_array("experimental_4x4", variant=variant))
    model = MlpModel.init((4, 4, 3), seeds=(0, 1, 2, 3))
    runner = MlpRunner(model, backend)
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, (4, 4, 8))  # (runs, features, batch)
    targets = np.stack([one_hot(rng.integers(0, 3, 8), 3) for _ in range(4)])
    acts = runner.forward(x)
    _, grads = runner.backprop(x, targets)
    w1 = model.weights[1]
    # The exact step from the crossbar's own forward activations.
    out = acts[-1]
    delta_out = (out - targets) * dsigmoid_from_output(out)
    back = runner.handles[1].backward(delta_out)
    exact_back = w1.swapaxes(-1, -2) @ delta_out
    delta_hidden = exact_back * dsigmoid_from_output(acts[1])
    exact_grad = delta_hidden @ acts[0].swapaxes(-1, -2) / x.shape[-1]
    forward = runner.handles[1].forward(acts[1])
    return {
        "forward": rel_err(forward, w1 @ acts[1]),
        "backward": rel_err(back, exact_back),
        "gradient": rel_err(grads[0], exact_grad),
        "cosine": cosine(grads[0], exact_grad),
    }


def cnn_errors(variant: str) -> dict:
    """Forward and backward errors of one CNN step on simulation_9x9. Its
    kernel gradient is electronic; the crossbar's backward gives the patch
    error signal, which is compared with the kernel matrix's exact
    transpose product (the cosine is that signal's)."""
    backend = PhotonicBackend(preset_array("simulation_9x9", variant=variant))
    model = CnnModel.init(seed=4)
    runner = CnnRunner(model, backend)
    rng = np.random.default_rng(22)
    images = rng.uniform(0.0, 1.0, (3, 28, 28))
    labels = rng.integers(0, 10, 3)
    handle = runner.conv_handle
    read = {}

    def recorded_backward(s, backward=handle.backward):
        read["errors"] = s
        return backward(s)

    handle.backward = recorded_backward
    _, _, patches = runner.backprop(images, labels)
    cols = im2col(images)
    w = model.kernel_matrix
    exact_patches = w.T @ read["errors"]
    return {
        "forward": rel_err(handle.forward(cols), w @ cols),
        "backward": rel_err(patches, exact_patches),
        "cosine": cosine(patches, exact_patches),
    }


@pytest.mark.parametrize("variant", [SYMMETRIC, LEGACY_ASYMMETRIC])
@pytest.mark.parametrize("errors", [mlp_errors, cnn_errors], ids=["mlp", "cnn"])
def test_backward_error_stays_within_a_small_factor_of_the_forward(errors, variant, record_property):
    got = errors(variant)
    for name, value in got.items():
        record_property(name, value)
    assert all(np.isfinite(value) for value in got.values()), got
    if variant == LEGACY_ASYMMETRIC:
        return  # the layout's path-loss error is recorded only
    assert 0.0 < got["forward"]
    for name in got.keys() & {"backward", "gradient"}:
        assert got[name] <= BACKWARD_FACTOR * got["forward"], (name, got)
    assert got["cosine"] >= MIN_COSINE, got
