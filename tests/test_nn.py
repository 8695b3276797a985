"""CNN pooling and the CNN step, the flat optimizers, the backend input path,
lockstep Iris training and the one-program MLP step, each checked bit for
bit against the transposed-tile, patch-matrix, per-parameter, zero-fill,
one-run and per-layer routes they replace; the CNN step's peak allocation;
and the new-array products that a caller may write into."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from xbar import nn
from xbar.backends import make_backend
from xbar.compiler import encode_signed, encode_signed_columns, pad
from xbar.config import RunConfig
from xbar.crossbar import FORWARD
from xbar.datasets import load_iris
from xbar.errors import EncodingError, ShapeError
from xbar.experiments import build_array, noise_config
from xbar.nn import (
    CLASSES,
    CONV_OUT,
    FLAT_DIM,
    HIDDEN_DIM,
    KERNEL_COUNT,
    POOL_OUT,
    PREDICT_BATCH,
    Adam,
    CnnModel,
    CnnRunner,
    MlpModel,
    MlpRunner,
    Sgd,
    confusion_matrix,
    cross_entropy_cost,
    im2col,
    iris_mlp_sizes,
    max_pool,
    one_hot,
    softmax,
    train_iris,
    unpool,
)
from xbar.noise import NoiseConfig
from xbar.presets import PRESETS, preset_array

MAPS = (3, KERNEL_COUNT, CONV_OUT, CONV_OUT)
POOLED = (3, KERNEL_COUNT, POOL_OUT, POOL_OUT)


def tile_pool(act):
    """Max-pool through a transposed (..., 4) tile copy: (max, argmax)."""
    b = act.shape[0]
    tiles = act.reshape(b, KERNEL_COUNT, POOL_OUT, 2, POOL_OUT, 2)
    tiles = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b, KERNEL_COUNT, POOL_OUT, POOL_OUT, 4)
    return tiles.max(axis=-1), tiles.argmax(axis=-1)


def tile_unpool(d_pool, argmax):
    """Unpool through put_along_axis on a (..., 4) tile array."""
    b = d_pool.shape[0]
    d_tiles = np.zeros((b, KERNEL_COUNT, POOL_OUT, POOL_OUT, 4))
    np.put_along_axis(d_tiles, argmax[..., None], d_pool[..., None], axis=-1)
    d_act = d_tiles.reshape(b, KERNEL_COUNT, POOL_OUT, POOL_OUT, 2, 2)
    return d_act.transpose(0, 1, 2, 4, 3, 5).reshape(b, KERNEL_COUNT, CONV_OUT, CONV_OUT)


class PerParameterAdam:
    """Adam with one unnormalized moment pair per parameter, updated parameter
    by parameter with `Adam`'s folded scalars."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def update(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        root = math.sqrt((1 - self.b2) / (1 - self.b2**self.t))
        c1 = self.lr * (1 - self.b1) / (1 - self.b1**self.t) / root
        c2 = self.eps / root
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += g
            v *= self.b2
            v += g * g
            p -= c1 * (m / (np.sqrt(v) + c2))


class TextbookAdam(PerParameterAdam):
    """Adam as Kingma & Ba write it: normalized moments, then bias-corrected
    estimates mhat and vhat."""

    def update(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m[...] = self.b1 * m + (1 - self.b1) * g
            v[...] = self.b2 * v + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1**self.t)
            vhat = v / (1 - self.b2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def relu_maps(rng):
    return np.maximum(rng.normal(size=MAPS), 0.0)


PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # tile positions that tie


def tied_maps(rng):
    """Maps whose tiles tie: all-zero tiles, and tiles with equal non-zero
    maxima in every pair of positions."""
    act = relu_maps(rng)
    act[0] = 0.0
    tiles = [act[1:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)]
    level = rng.uniform(1.0, 2.0, tiles[0].shape)
    for i, j in PAIRS:
        part = rng.random(level.shape) < 0.15
        tiles[i][part] = level[part]
        tiles[j][part] = level[part]
    return act


def signed_maps(rng):
    """Unrectified maps, as `max_pool` reads them: normal values, an
    all-zero image, and tiles whose maximum ties at 0 or at -0.5 in every
    pair of positions, with the other two positions below it."""
    act = rng.normal(size=MAPS)
    act[0] = 0.0
    tiles = [act[1:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)]
    low = rng.uniform(-2.0, -1.0, tiles[0].shape)
    for level in (0.0, -0.5):
        for i, j in PAIRS:
            part = rng.random(low.shape) < 0.06
            for tile in tiles:
                tile[part] = low[part]
            tiles[i][part] = level
            tiles[j][part] = level
    return act


@pytest.mark.parametrize("maps", [relu_maps, tied_maps, signed_maps])
def test_max_pool_equals_the_tile_max_and_argmax(maps):
    rng = np.random.default_rng(1)
    act = maps(rng)
    pooled, pick = max_pool(act)
    expected, argmax = tile_pool(act)
    assert pick.dtype == np.int8 and pooled.shape == POOLED
    np.testing.assert_array_equal(pooled, expected)
    np.testing.assert_array_equal(pick, argmax)
    # C-ordered, as the tile max is: the hidden layer's BLAS product reads it.
    assert pooled.flags.c_contiguous


def test_tied_maps_tie_where_the_pick_must_be_the_first_max():
    act = tied_maps(np.random.default_rng(1))
    tiles = np.stack([act[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)], axis=-1)
    ties = (tiles == tiles.max(axis=-1, keepdims=True)).sum(axis=-1) > 1
    assert ties[0].all() and ties[1:].mean() > 0.3


def test_signed_maps_tie_at_zero_and_at_a_negative_level():
    act = signed_maps(np.random.default_rng(1))
    tiles = np.stack([act[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)], axis=-1)
    top = tiles.max(axis=-1)
    ties = (tiles == top[..., None]).sum(axis=-1) > 1
    assert (act < 0).mean() > 0.4
    for level in (0.0, -0.5):
        at_level = ties[1:] & (top[1:] == level)
        assert at_level.mean() > 0.1, level
        # every pair of positions ties somewhere at this level
        tied = tiles[1:] == level
        for i, j in PAIRS:
            assert (at_level & tied[..., i] & tied[..., j]).any(), (level, i, j)


@pytest.mark.parametrize("maps", [relu_maps, tied_maps, signed_maps])
def test_unpool_equals_the_put_along_axis_route(maps):
    rng = np.random.default_rng(2)
    _, pick = max_pool(maps(rng))
    d_pool = rng.normal(size=POOLED)
    np.testing.assert_array_equal(unpool(d_pool, pick), tile_unpool(d_pool, pick))


def test_unpool_of_the_batch_innermost_view_that_backprop_passes():
    """`backprop` unpools the view d_flat.T.reshape(B, 9, 13, 13) of its
    masked (1521, B) error signal: unpooling that view gives, byte for
    byte, signed zeros included, what unpooling a C-ordered copy gives."""
    rng = np.random.default_rng(20)
    _, pick = max_pool(signed_maps(rng))
    d_flat = rng.normal(size=(FLAT_DIM, POOLED[0]))
    d_flat *= rng.random(d_flat.shape) < 0.5  # signed zeros, as the ReLU mask leaves
    d_pool = d_flat.T.reshape(POOLED)
    assert not d_pool.flags.c_contiguous
    got = unpool(d_pool, pick)
    want = unpool(np.ascontiguousarray(d_pool), pick)
    assert np.signbit(want[want == 0]).any()
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got, tile_unpool(d_pool, pick))


def iris_params(rng):
    """A two-run Iris MLP whose flat vector, padding included, is normal draws."""
    model = MlpModel.init(iris_mlp_sizes(4), seeds=(0, 1))
    model.flat[:] = rng.normal(size=model.flat.size)
    return model


def cnn_params(rng):
    """A CNN whose flat vector is normal draws."""
    model = CnnModel.init(0)
    model.flat[:] = rng.normal(size=model.flat.size)
    return model


@pytest.mark.parametrize("make", [iris_params, cnn_params])
@pytest.mark.parametrize("rate", [1e-3, 0.05])
def test_flat_adam_equals_the_per_parameter_update(make, rate):
    rng = np.random.default_rng(3)
    model = make(rng)
    reference = [p.copy() for p in model.params]
    flat, per_parameter = Adam(rate), PerParameterAdam(rate)
    for _ in range(4):
        grads = rng.normal(scale=0.1, size=model.flat.shape)
        kept = grads.copy()
        flat.update(model.flat, grads)
        per_parameter.update(reference, [g.copy() for g in model.on(grads).params])
        for got, expected in zip(model.params, reference):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(grads, kept)  # the gradients are not written
    for got, expected in zip(model.on(flat.m).params, per_parameter.m):
        np.testing.assert_array_equal(got, expected)
    for got, expected in zip(model.on(flat.v).params, per_parameter.v):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("make", [iris_params, cnn_params])
def test_flat_sgd_equals_the_per_parameter_update(make):
    rng = np.random.default_rng(23)
    model = make(rng)
    reference = [p.copy() for p in model.params]
    sgd = Sgd(0.5)
    for _ in range(4):
        grads = rng.normal(scale=0.1, size=model.flat.shape)
        kept = grads.copy()
        sgd.update(model.flat, grads)
        for p, g in zip(reference, model.on(kept).params):
            p -= 0.5 * g
        for got, expected in zip(model.params, reference):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(grads, kept)  # the gradients are not written


@pytest.mark.parametrize("make", [iris_params, cnn_params])
@pytest.mark.parametrize("rate", [1e-3, 0.05])
def test_flat_adam_follows_textbook_adam(make, rate):
    """200 steps against the textbook form, on gradients whose element scales
    span 1e-10 to 1e-1, so eps weighs on some elements: each parameter lands
    within 1e-12 of the textbook's largest total displacement of it."""
    rng = np.random.default_rng(4)
    model = make(rng)
    start = [p.copy() for p in model.params]
    oracle = [p.copy() for p in start]
    scales = 10.0 ** rng.uniform(-10.0, -1.0, model.flat.shape)
    flat, textbook = Adam(rate), TextbookAdam(rate)
    for _ in range(200):
        grads = scales * rng.normal(size=scales.shape)
        flat.update(model.flat, grads)
        textbook.update(oracle, model.on(grads).params)
    for got, expected, p0 in zip(model.params, oracle, start):
        displacement = np.max(np.abs(expected - p0))
        assert np.max(np.abs(got - expected)) <= 1e-12 * displacement


def test_an_adam_update_allocates_no_flat_vector():
    """After the first update, which allocates the moments and the scratch
    vector, an update of the CNN's flat vector allocates less than a tenth
    of one flat vector."""
    rng = np.random.default_rng(5)
    model = cnn_params(rng)
    grads = rng.normal(scale=0.1, size=model.flat.shape)
    adam = Adam(0.003)
    adam.update(model.flat, grads)
    tracemalloc.start()
    try:
        adam.update(model.flat, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.flat.nbytes / 10


@pytest.mark.parametrize("backend", ["photonic", "lut"])
@pytest.mark.parametrize("preset", ["experimental_4x4", "simulation_9x9"])
@pytest.mark.parametrize("overshoot", [0.0, 5e-10])
def test_forward_on_a_fortran_ordered_input_gives_the_c_ordered_bits(backend, preset, overshoot):
    array = preset_array(preset)
    n = array.n
    rng = np.random.default_rng(4)
    handle = make_backend(backend, array).program(rng.uniform(-1.0, 1.0, (n, n)))
    x = rng.uniform(0.0, 1.0, (7, n)).T  # a transposed view
    x[0, 0] = 1.0 + overshoot  # within the input tolerance: clipped, not rejected
    assert x.flags.f_contiguous and not x.flags.c_contiguous
    before = x.copy()
    got = handle.forward(x)
    np.testing.assert_array_equal(got, handle.forward(np.ascontiguousarray(x)))
    np.testing.assert_array_equal(x, before)


@pytest.mark.parametrize("backend", ["photonic", "lut"])
def test_forward_leaves_a_c_ordered_input_unchanged(backend):
    handle = make_backend(backend, preset_array("experimental_4x4")).program(np.eye(4))
    x = np.random.default_rng(5).uniform(0.0, 1.0, (4, 6))
    x[2, 3] = -5e-10  # within the input tolerance: the clip must not write into x
    before = x.copy()
    handle.forward(x)
    handle.backward(x - 0.5)
    np.testing.assert_array_equal(x, before)


def held_arrays(value, seen=None) -> list:
    """Every ndarray that `value` reaches through its attributes, dataclass
    fields and containers, each object visited once."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple)):
        items = list(value)
    elif dataclasses.is_dataclass(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        items = list(vars(value).values())
    else:
        return []
    return [a for item in items for a in held_arrays(item, seen)]


def contract_handles(backend):
    """(name, handle, out_dim, in_dim) of a 2-D program, a stack and a view
    of a zero-padded stack, on experimental_4x4."""
    rng = np.random.default_rng(16)
    be = make_backend(backend, preset_array("experimental_4x4"))
    padded = np.zeros((2, 4, 4))
    padded[:, :3, :2] = rng.uniform(-1.0, 1.0, (2, 3, 2))
    return [
        ("2-D", be.program(rng.uniform(-1.0, 1.0, (3, 4))), 3, 4),
        ("stack", be.program(rng.uniform(-1.0, 1.0, (2, 3, 4))), 3, 4),
        ("view", be.program(padded).view(1, 3, 2), 3, 2),
    ]


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_products_return_new_arrays_that_the_caller_may_overwrite(backend):
    """`forward` and `backward` return arrays that share no memory with
    their operand or with anything the handle or its backend holds, and
    overwriting one leaves the next product's bits as they were."""
    rng = np.random.default_rng(17)
    for name, handle, out_dim, in_dim in contract_handles(backend):
        x = rng.uniform(0.0, 1.0, (in_dim, 5))
        s = rng.normal(size=(out_dim, 5))
        for product, operand in ((handle.forward, x), (handle.backward, s)):
            result = product(operand)
            expected = result.copy()
            held = held_arrays(handle)
            assert held, name
            assert not np.shares_memory(result, operand), name
            assert not any(np.shares_memory(result, a) for a in held), name
            result[...] = np.nan
            np.testing.assert_array_equal(product(operand), expected, err_msg=name)


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_a_program_is_a_snapshot_of_its_matrix(backend):
    """Writing into a matrix or a stack after programming it leaves the
    program's forward and backward bits as they were: the models step the
    very arrays they program."""
    rng = np.random.default_rng(24)
    be = make_backend(backend, preset_array("experimental_4x4"))
    for shape in [(3, 4), (2, 2, 4, 4)]:
        matrix = rng.uniform(-1.0, 1.0, shape)
        handle = be.program(matrix)
        x = rng.uniform(0.0, 1.0, (4, 5))
        s = rng.normal(size=(shape[-2], 5))
        before = handle.forward(x), handle.backward(s)
        matrix *= -2.0
        after = handle.forward(x), handle.backward(s)
        for got, expected in zip(after, before):
            assert got.tobytes() == expected.tobytes(), shape


@pytest.mark.parametrize("backend", ["photonic", "lut"])
@pytest.mark.parametrize("in_dim", [3, 4])
def test_nan_forward_input_raises_encoding_error(backend, in_dim):
    handle = make_backend(backend, preset_array("experimental_4x4")).program(np.eye(4)[:, :in_dim])
    x = np.full((in_dim, 2), 0.5)
    x[in_dim - 1, 1] = np.nan
    with pytest.raises(EncodingError, match=r"forward inputs must lie in \[0, 1\]"):
        handle.forward(x)


def test_forward_beyond_the_input_tolerance_raises_encoding_error():
    handle = make_backend("photonic", preset_array("experimental_4x4")).program(np.eye(4))
    for bad in (-1e-6, 1.0 + 1e-6):
        with pytest.raises(EncodingError):
            handle.forward(np.full((4, 1), bad))


ADAM = {"optimizer": "adam", "learning_rate": 0.05}
LOCKSTEP = {
    "lut": {"training": {**ADAM, "epochs": 2, "runs": 3}},
    "photonic, batch 4": {
        "training": {"backend": "photonic", "epochs": 2, "runs": 3, "batch_size": 4}
    },
    "ideal, sgd, batch 8, hidden 3": {
        "training": {"backend": "ideal", "epochs": 3, "runs": 3, "batch_size": 8, "hidden": 3}
    },
    # Per-run noise streams, with one LUT per ring of a fabrication spread.
    "lut, noise, fabrication spread": {
        "devices": {"fabrication_sigma_nm": 0.02},
        "noise": {"enabled": True, "time_average": 2},
        "training": {**ADAM, "epochs": 2, "runs": 2, "batch_size": 4},
    },
}


@pytest.mark.parametrize("case", list(LOCKSTEP))
def test_lockstep_training_equals_one_run_training(case):
    config = RunConfig.from_dict({"experiment": "iris-train", "seed": 6, **LOCKSTEP[case]})
    train_x, train_y, test_x, test_y = load_iris(None).split(config.seed)
    array = build_array(config)
    runs = range(config.training.runs)
    seeds = [config.seed + run for run in runs]

    def train(seeds, noise):
        backend = make_backend(
            config.training.backend,
            array,
            noise=noise,
            time_average_count=config.noise.time_average,
        )
        return train_iris(config.training, seeds, train_x, train_y, test_x, test_y, backend)

    noisy = config.noise.enabled
    together = train(seeds, [noise_config(config, run) for run in runs] if noisy else None)
    for run, seed in zip(runs, seeds):
        alone = train((seed,), noise_config(config, run))
        assert np.array_equal(together.cost_history[run], alone.cost_history[0]), f"run {run}"
        assert together.final_accuracy[run] == alone.final_accuracy[0], f"run {run}"
        for stacked, single in zip(together.model.params, alone.model.params):
            assert np.array_equal(stacked[run], single[0]), f"run {run}"


def layer_readings(handle, x, s):
    """Everything a layer's handle reads or holds, by name: its products,
    its all-ones response and its programmed heaters, clamps or ring
    settings."""
    readings = {"forward": handle.forward(x), "backward": handle.backward(s)}
    if hasattr(handle, "_raw_backward"):
        readings["ones"] = handle._raw_backward(np.zeros((handle.n, 0)))[1]
    if hasattr(handle, "compiled"):
        readings["heaters"] = handle.compiled.heater_settings_mw
        readings["clamped"] = handle.compiled.clamped_elements
    for name in ("_rings_fwd", "_rings_bwd"):
        if hasattr(handle, name):
            for field, value in vars(getattr(handle, name)).items():
                readings[f"{name}.{field}"] = value
    return readings


STEP_CASES = [
    (preset, backend, hidden, None)
    for preset in PRESETS
    for backend in ("ideal", "photonic", "lut")
    for hidden in (3, 4)
] + [
    # One noise stream per run, on a fabrication spread (one LUT per ring).
    ("experimental_4x4", backend, hidden, 0.02)
    for backend in ("photonic", "lut")
    for hidden in (3, 4)
]


@pytest.mark.parametrize("preset, backend, hidden, sigma", STEP_CASES)
def test_one_program_per_step_equals_per_layer_programs(preset, backend, hidden, sigma):
    """The runner's layer views of its one stacked program read, bit for
    bit, what programming each layer on its own reads, the 3x4 output layer
    included; with per-run noise streams, in the same draw order."""
    runs = 2
    noisy = sigma is not None
    array = preset_array(preset, fabrication_sigma_nm=sigma or 0.0, seed=7)

    def make():
        noise = [NoiseConfig(seed=8, stream=run) for run in range(runs)] if noisy else None
        return make_backend(backend, array, noise=noise, time_average_count=2)

    model = MlpModel.init(iris_mlp_sizes(hidden), seeds=tuple(range(runs)))
    runner = MlpRunner(model, make())
    alone_backend = make()
    rng = np.random.default_rng(9)
    assert len(runner.handles) == len(model.weights) == 2
    for layer, (view, w) in enumerate(zip(runner.handles, model.weights)):
        out_dim, in_dim = w.shape[-2:]
        x = rng.uniform(0.0, 1.0, (runs, in_dim, 3))
        s = rng.normal(size=(runs, out_dim, 3))
        got = layer_readings(view, x, s)
        expected = layer_readings(alone_backend.program(w), x, s)
        assert got.keys() == expected.keys()
        assert {"ideal": 2, "photonic": 5, "lut": 11}[backend] == len(got)
        for name in expected:
            assert np.array_equal(got[name], expected[name]), f"layer {layer}, {name}"


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_train_iris_programs_the_crossbar_once_per_step(backend, monkeypatch):
    config = RunConfig.from_dict(
        {
            "experiment": "iris-train",
            "training": {"backend": backend, "epochs": 2, "batch_size": 16, "runs": 2, "hidden": 3},
        }
    )
    train_x, train_y, test_x, test_y = load_iris(None).split(config.seed)
    made = make_backend(backend, preset_array("experimental_4x4"))
    shapes = []
    program = made.program

    def counted(matrix):
        shapes.append(matrix.shape)
        return program(matrix)

    monkeypatch.setattr(made, "program", counted)
    train_iris(config.training, (0, 1), train_x, train_y, test_x, test_y, made)
    steps = config.training.epochs * -(-train_x.shape[0] // config.training.batch_size)
    # One program per step, and the first one: both runs' 3x4 hidden layer
    # and 3x3 output layer, padded to 3x4.
    assert shapes == [(2, 2, 3, 4)] * (steps + 1)


def padding_mask(model):
    """True at the entries of the MLP's weight stack that no layer holds."""
    mask = np.ones(model.stack.shape, dtype=bool)
    for l, w in enumerate(model.weights):
        mask[l, :, : w.shape[-2], : w.shape[-1]] = False
    return mask


@pytest.mark.parametrize("hidden", [3, 4])
def test_train_iris_steps_the_parameters_in_their_flat_vector(hidden):
    """After training, every parameter is still a view of the model's flat
    vector, and the weight stack's padding is still 0: the optimizer
    stepped the vector that the runner programs."""
    config = RunConfig.from_dict(
        {
            "experiment": "iris-train",
            "training": {"backend": "ideal", **ADAM, "epochs": 2, "runs": 2, "hidden": hidden},
        }
    )
    train_x, train_y, test_x, test_y = load_iris(None).split(config.seed)
    backend = make_backend("ideal")
    model = train_iris(config.training, (0, 1), train_x, train_y, test_x, test_y, backend).model
    assert all(np.shares_memory(p, model.flat) for p in model.params)
    assert np.shares_memory(model.stack, model.flat)
    mask = padding_mask(model)
    assert mask.any()
    assert (model.stack[mask] == 0).all()
    assert not np.array_equal(model.flat, MlpModel.init(iris_mlp_sizes(hidden), (0, 1)).flat)


def test_train_mnist_steps_the_parameters_in_their_flat_vector(monkeypatch):
    config = RunConfig.from_dict(
        {
            "experiment": "mnist-train",
            "training": {
                "backend": "ideal",
                "optimizer": "adam",
                "learning_rate": 0.003,
                "epochs": 2,
                "batch_size": 4,
            },
        }
    )
    made = []
    init = CnnModel.init
    recorded = classmethod(lambda cls, seed=0: made.append(init(seed)) or made[-1])
    monkeypatch.setattr(CnnModel, "init", recorded)
    rng = np.random.default_rng(25)
    images = rng.uniform(0.0, 1.0, (10, 28, 28))
    labels = rng.integers(0, CLASSES, 10)
    backend = make_backend("ideal")
    nn.train_mnist(config.training, 0, images[:6], labels[:6], images[6:], labels[6:], backend)
    (model,) = made
    assert all(np.shares_memory(p, model.flat) for p in model.params)
    assert not np.array_equal(model.flat, init(0).flat)


def test_noise_streams_zip_over_the_last_leading_axis():
    array = preset_array("experimental_4x4")
    noise = [NoiseConfig(seed=1, stream=run) for run in range(2)]
    backend = make_backend("photonic", array, noise=noise)
    for shape in [(4, 4), (3, 4, 4), (2, 3, 4, 4)]:
        with pytest.raises(ValueError, match="2 noise streams"):
            backend.program(np.zeros(shape))
    x = np.random.default_rng(2).uniform(0.0, 1.0, (4, 5))
    stack = np.random.default_rng(3).normal(size=(3, 2, 4, 4))
    whole = backend.program(stack).forward(x)
    # Reading the (layers, runs) stack whole draws each run's stream over
    # all layers, as a one-run backend reading that run's layers does.
    for run in range(2):
        alone = make_backend("photonic", array, noise=noise[run])
        np.testing.assert_array_equal(whole[:, run], alone.program(stack[:, run]).forward(x))


@pytest.mark.parametrize("backend", ["photonic", "lut"])
def test_a_view_measures_its_own_ones_response(backend):
    made = make_backend(backend, preset_array("experimental_4x4"))
    stack = np.random.default_rng(4).normal(size=(2, 3, 4))
    handle = made.program(stack)
    handle.backward(np.zeros((3, 1)))  # the whole stack's, read before the views
    for k in range(2):
        np.testing.assert_array_equal(
            handle.view(k, 3, 4)._raw_backward(np.zeros((4, 0)))[1],
            made.program(stack[k])._raw_backward(np.zeros((4, 0)))[1],
        )


@pytest.mark.parametrize("backend", ["photonic", "lut"])
def test_a_handle_encodes_its_padded_transpose(backend):
    """The handle encodes its program, and the backend's hardware holds
    the unit targets: the encoding is `encode_signed` of the padded
    transpose, for a stack and for each of its views."""
    made = make_backend(backend, preset_array("experimental_4x4"))
    stack = np.random.default_rng(17).normal(size=(2, 3, 4))
    handle = made.program(stack)
    targets, _ = encode_signed(pad(stack.swapaxes(-1, -2), 4))
    if backend == "photonic":
        np.testing.assert_array_equal(
            handle.compiled.heater_settings_mw, made.compiler.compile_unit(targets).heater_settings_mw
        )
    else:
        for name, value in vars(made.tables[FORWARD].set_rings(targets[..., None])).items():
            np.testing.assert_array_equal(getattr(handle._rings_fwd, name), value)
    for read, matrix in [(handle, stack)] + [(handle.view(k, 3, 4), stack[k]) for k in range(2)]:
        _, want = encode_signed(pad(matrix.swapaxes(-1, -2), 4))
        np.testing.assert_array_equal(read.encoding.scale, want.scale)
        np.testing.assert_array_equal(read.encoding.offset, want.offset)


HANDLE_CASES = [(backend, sigma) for backend in ("photonic", "lut") for sigma in (0.0, 0.02)]


def program_maker(backend, sigma, noise=None):
    """A maker of fresh (stack, view 1) pairs: a (2, 3, 4) stack programmed
    on one backend on the 4x4 preset, with or without a fabrication spread,
    and its view of matrix 1."""
    made = make_backend(
        backend, preset_array("experimental_4x4", fabrication_sigma_nm=sigma, seed=7), noise=noise
    )
    stack = np.random.default_rng(6).normal(size=(2, 3, 4))

    def fresh():
        handle = made.program(stack)
        return handle, handle.view(1, 3, 4)

    return fresh


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_a_scalar_or_a_lone_vector_operand_raises_shape_error(backend):
    """A handle takes (dim, batch) columns only: a 0-D or 1-D operand of
    either product raises, on every backend (`matrix @ vector` would pass)."""
    handle = make_backend(backend, preset_array("experimental_4x4")).program(np.eye(4))
    for operand in (np.float64(0.5), np.full(4, 0.5)):
        for product in (handle.forward, handle.backward):
            with pytest.raises(ShapeError, match="columns"):
                product(operand)


@pytest.mark.parametrize("backend, sigma", HANDLE_CASES)
def test_a_backward_leaves_its_handle_unchanged(backend, sigma):
    """A programmed handle holds only its program: a backward, first or
    later, of a batch or a single column, adds, drops and replaces no attribute."""
    rng = np.random.default_rng(14)
    for read in program_maker(backend, sigma, noise=NoiseConfig(seed=2))():
        before = dict(vars(read))
        for s in (rng.normal(size=(3, 5)), rng.normal(size=(3, 5)), rng.normal(size=(3, 1))):
            read.backward(s)
            assert vars(read).keys() == before.keys()
            assert all(vars(read)[name] is value for name, value in before.items())


@pytest.mark.parametrize("backend, sigma", HANDLE_CASES)
def test_a_later_backward_reads_what_a_first_backward_reads(backend, sigma):
    """Without noise, a handle's later backward of s is bit for bit the
    first backward of s on a fresh program, for a stack and for its view."""
    fresh = program_maker(backend, sigma)
    rng = np.random.default_rng(15)
    reads = fresh()
    for read in reads:
        read.backward(rng.normal(size=(3, 5)))
    for shape in ((3, 1), (3, 5), (2, 3, 4)):
        s = rng.normal(size=shape)
        for read, first in zip(reads, fresh()):
            np.testing.assert_array_equal(read.backward(s), first.backward(s))


@pytest.mark.parametrize("backend, sigma", HANDLE_CASES)
def test_extra_leading_axes_of_s_read_what_each_slice_reads(backend, sigma):
    """Without noise, a backward of an s with more leading axes than the
    program reads, slice by slice, what each slice of s reads alone."""
    rng = np.random.default_rng(16)
    handle, view = program_maker(backend, sigma)()
    for read, extra, program in ((handle, (3,), (2,)), (view, (3,), ()), (view, (2, 3), ())):
        s = rng.normal(size=(*extra, *program, 3, 4))
        got = read.backward(s)
        for index in np.ndindex(*extra):
            np.testing.assert_array_equal(got[index], read.backward(s[index]))


def test_cnn_predictions_do_not_depend_on_the_predict_chunk():
    """`CnnRunner.predict` forwards PREDICT_BATCH images at a time and
    predicts what one forward of all the images predicts."""
    runner = CnnRunner(CnnModel.init(0), make_backend("photonic", preset_array("simulation_9x9")))
    images = np.random.default_rng(10).uniform(0.0, 1.0, (3 * PREDICT_BATCH + 5, 28, 28))
    probs = runner.forward(images)
    np.testing.assert_array_equal(runner.predict(images), probs.argmax(axis=0))


def patch_matrix(images):
    """(B, 28, 28) images -> (B*676, 9): every 3x3 patch flattened row-wise,
    a C-ordered copy of the sliding windows."""
    windows = sliding_window_view(images, (3, 3), axis=(1, 2))
    return windows.reshape(images.shape[0] * CONV_OUT * CONV_OUT, 9)


def reference_step(runner, images, labels):
    """The CNN step on a (B*676, 9) patch matrix: its transposed view as the
    crossbar operand, a batch-major conv map, masked-copy pooling and
    unpooling, and the ReLU mask on the full map. The kernel gradient reads
    a Fortran-ordered copy of the patches, the layout of the im2col columns'
    transposed view; the C-ordered product rides along to check its value.
    Returns (probs, cost, gradients, C-ordered kernel gradient, d_patches)."""
    model, handle = runner.model, runner.conv_handle
    b = images.shape[0]
    patches = patch_matrix(images)
    conv = handle.forward(patches.T).reshape(KERNEL_COUNT, b, CONV_OUT * CONV_OUT)
    conv = conv.transpose(1, 0, 2).reshape(b, KERNEL_COUNT, CONV_OUT, CONV_OUT)
    act = np.maximum(conv, 0.0)
    views = [act[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)]
    pooled = views[0].copy()
    pick = np.zeros(pooled.shape, dtype=np.int8)
    for k in range(1, 4):
        np.copyto(pick, k, where=views[k] > pooled)
        np.maximum(views[k], pooled, out=pooled)
    flat = pooled.reshape(b, FLAT_DIM).T
    hidden = np.maximum(model.w_hidden @ flat + model.b_hidden[:, None], 0.0)
    probs = softmax(model.w_out @ hidden + model.b_out[:, None], axis=0)
    targets = one_hot(labels, CLASSES)
    cost = cross_entropy_cost(probs, targets)
    d_logits = (probs - targets) / b
    d_hidden = (model.w_out.T @ d_logits) * (hidden > 0)
    d_flat = model.w_hidden.T @ d_hidden
    d_pool = d_flat.T.reshape(b, KERNEL_COUNT, POOL_OUT, POOL_OUT)
    d_conv = np.zeros((b, KERNEL_COUNT, CONV_OUT, CONV_OUT))
    for k, r, c in [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]:
        np.copyto(d_conv[:, :, r::2, c::2], d_pool, where=pick == k)
    d_conv *= conv > 0
    d_cols = d_conv.reshape(b, KERNEL_COUNT, CONV_OUT * CONV_OUT).transpose(1, 0, 2)
    d_cols = d_cols.reshape(KERNEL_COUNT, b * CONV_OUT * CONV_OUT)
    grads = [
        d_cols @ np.asfortranarray(patches),
        d_hidden @ flat.T,
        d_logits @ hidden.T,
        d_hidden.sum(axis=1),
        d_logits.sum(axis=1),
    ]
    return probs, cost, grads, d_cols @ patches, handle.backward(d_cols)


@pytest.fixture(scope="module")
def cnn_backends():
    array = preset_array("simulation_9x9")
    return {name: make_backend(name, array) for name in ("ideal", "photonic", "lut")}


@pytest.mark.parametrize("backend", ["photonic", "lut"])
@pytest.mark.parametrize("batch", [1, 5, 16, 32])
def test_cnn_step_equals_the_patch_matrix_step(cnn_backends, backend, batch):
    """The step on im2col columns, channel-major maps and the pooled ReLU
    mask gives the probabilities, cost, gradients and crossbar error signal
    of the step on a patch matrix."""
    runner = CnnRunner(CnnModel.init(batch), cnn_backends[backend])
    rng = np.random.default_rng(batch)
    images = rng.uniform(0.0, 1.0, (batch, 28, 28))
    labels = rng.integers(0, CLASSES, batch)
    probs, cost, grads, c_kernel, d_patches = reference_step(runner, images, labels)
    np.testing.assert_array_equal(runner.forward(images), probs)
    got_cost, got_flat, got_d_patches = runner.backprop(images, labels)
    got_grads = runner.model.on(got_flat).params
    assert got_cost == cost
    assert len(got_grads) == len(grads)
    for got, expected in zip(got_grads, grads):
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_allclose(got_grads[0], c_kernel, rtol=0, atol=1e-12 * np.abs(c_kernel).max())
    np.testing.assert_array_equal(got_d_patches, d_patches)


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_the_test_pass_gives_the_training_pass_probabilities(cnn_backends, backend, monkeypatch):
    """`forward` gives the bits of the probabilities that `backprop` trains
    on, without the max-pool pick that only `backprop` reads."""
    runner = CnnRunner(CnnModel.init(3), cnn_backends[backend])
    rng = np.random.default_rng(18)
    images = rng.uniform(0.0, 1.0, (5, 28, 28))
    labels = rng.integers(0, CLASSES, 5)
    probs, pools = [], []
    real_softmax, real_max_pool = nn.softmax, nn.max_pool
    monkeypatch.setattr(nn, "softmax", lambda z, axis: probs.append(real_softmax(z, axis)) or probs[-1])
    monkeypatch.setattr(nn, "max_pool", lambda act: pools.append(None) or real_max_pool(act))
    cost, _, _ = runner.backprop(images, labels)
    assert len(probs) == 1 and len(pools) == 1
    assert cost == cross_entropy_cost(probs[0], one_hot(labels, CLASSES))
    np.testing.assert_array_equal(runner.forward(images), probs[0])
    assert len(probs) == 2 and len(pools) == 1


@pytest.mark.parametrize("backend", ["ideal", "photonic", "lut"])
def test_cnn_step_on_tiles_that_are_never_positive(cnn_backends, backend):
    """Kernels 0-3 are negative, so their channels never go positive on
    non-negative images, and half of each image is blank, so conv outputs
    hit 0 exactly on ideal and photonic. The step's probabilities, cost,
    gradients and crossbar error signal equal the patch-matrix step's
    byte for byte, signed zeros included: a tile whose maximum is at most 0
    rectifies to 0 and passes back a zeroed gradient, whatever its pick."""
    model = CnnModel.init(4)
    model.kernel_matrix[:4] = -np.abs(model.kernel_matrix[:4])
    runner = CnnRunner(model, cnn_backends[backend])
    rng = np.random.default_rng(19)
    images = rng.uniform(0.0, 1.0, (5, 28, 28))
    images[:, :, 14:] = 0.0
    labels = rng.integers(0, CLASSES, 5)
    conv = runner.conv_handle.forward(im2col(images)).reshape(KERNEL_COUNT, 5, CONV_OUT, CONV_OUT)
    top, _ = tile_pool(conv.transpose(1, 0, 2, 3))
    assert (top <= 0).mean() > 0.2
    if backend != "lut":  # lut's products of blank patches are not exactly 0
        assert (conv[:4] <= 0).all() and (top == 0).mean() > 0.2
    probs, cost, grads, _, d_patches = reference_step(runner, images, labels)
    assert runner.forward(images).tobytes() == probs.tobytes()
    got_cost, got_flat, got_d_patches = runner.backprop(images, labels)
    got_grads = model.on(got_flat).params
    assert got_cost == cost
    for k, (got, expected) in enumerate(zip(got_grads, grads)):
        assert got.tobytes() == expected.tobytes(), k
    assert got_d_patches.tobytes() == d_patches.tobytes()


def test_the_photonic_cnn_step_frees_its_conv_map_once_pooled(cnn_backends):
    """Peak traced allocation, from the call's start, of one `backprop` of
    16 images and one `forward` of 32 on simulation_9x9, in conv maps
    (9 x 676 doubles per image). Each bound is a quarter map above the
    measured peak (8.60 and 3.22 maps), so a step that keeps its conv map
    alive through the backward pass fails: that grows the heap top, which
    the allocator then hands back to the OS every step."""
    runner = CnnRunner(CnnModel.init(0), cnn_backends["photonic"])
    rng = np.random.default_rng(21)
    images = rng.uniform(0.0, 1.0, (32, 28, 28))
    labels = rng.integers(0, CLASSES, 16)
    conv_map = KERNEL_COUNT * CONV_OUT * CONV_OUT * 8  # bytes per image
    for call, batch, bound in (
        (lambda: runner.backprop(images[:16], labels), 16, 8.85),
        (lambda: runner.forward(images), 32, 3.48),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * batch * conv_map, (batch, peak / (batch * conv_map))


def test_im2col_columns_are_the_patches_transposed():
    images = np.random.default_rng(11).uniform(0.0, 1.0, (5, 28, 28))
    cols = im2col(images)
    assert cols.shape == (9, 5 * CONV_OUT * CONV_OUT) and cols.flags.c_contiguous
    np.testing.assert_array_equal(cols, patch_matrix(images).T)


@pytest.mark.parametrize("shape", [(28, 28), (2, 28, 27), (1, 1, 28, 28)])
def test_cnn_forward_of_other_than_a_batch_of_28x28_images_raises_shape_error(shape):
    runner = CnnRunner(CnnModel.init(0), make_backend("ideal"))
    with pytest.raises(ShapeError, match=r"expected \(batch, 28, 28\) images"):
        runner.forward(np.zeros(shape))


def test_unpool_is_channel_major_so_the_error_columns_are_a_view():
    rng = np.random.default_rng(12)
    _, pick = max_pool(relu_maps(rng))
    d_act = unpool(rng.normal(size=POOLED), pick)
    channel_major = d_act.transpose(1, 0, 2, 3)
    assert channel_major.flags.c_contiguous
    d_cols = channel_major.reshape(KERNEL_COUNT, -1)
    assert np.shares_memory(d_cols, d_act)


def test_max_pool_of_a_channel_major_map_is_c_ordered():
    act = relu_maps(np.random.default_rng(13))
    channel_major = np.ascontiguousarray(act.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    pooled, pick = max_pool(channel_major)
    assert pooled.flags.c_contiguous and pick.flags.c_contiguous
    expected, argmax = tile_pool(act)
    np.testing.assert_array_equal(pooled, expected)
    np.testing.assert_array_equal(pick, argmax)


def test_encode_signed_columns_leaves_its_input_unchanged():
    s = np.random.default_rng(14).normal(size=(9, 40))
    before = s.copy()
    encoded, scales, offsets = encode_signed_columns(s)
    np.testing.assert_array_equal(s, before)
    np.testing.assert_array_equal(encoded, (before - offsets) / scales)


def test_confusion_matrix_counts_what_a_loop_counts():
    rng = np.random.default_rng(15)
    predicted = rng.integers(0, CLASSES, 500)
    actual = rng.integers(0, CLASSES, 500).astype(np.uint8)
    expected = np.zeros((CLASSES, CLASSES), dtype=int)
    for p, a in zip(predicted, actual):
        expected[int(a), int(p)] += 1
    got = confusion_matrix(predicted, actual)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
