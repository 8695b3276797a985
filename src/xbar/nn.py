"""Network definitions and training loops routed through a product backend.

Two architectures from the experiments: a 3-layer sigmoid MLP for Iris
classification (both weight matrices fit a 4x4 crossbar; the 3x4 output
layer is zero-padded), and a small CNN for handwritten digits whose nine
3x3 kernels form a 9x9 matrix so one crossbar pass convolves one image
patch. Matrix products go through the chosen backend; activations, pooling,
loss derivatives and weight-gradient outer products stay electronic. Error
signals propagate backward through the same programmed weights
(handle.backward), which is the crossbar's native W^T sigma product.

`train_iris` trains all of its runs in lockstep: every weight and bias
carries a leading run axis, one runner programs every layer of every run
in one backend call per step, as the crossbar runs a step's forward and
backward products from one heater program, and one optimizer steps them
all. Every operation acts on each run's slice of each layer as a one-run,
per-layer program would, so each run's costs and accuracy are bit for bit
those of training it alone.

The CNN builds the crossbar's C-ordered (9, B*676) operand directly from
nine shifted slices of the images (`im2col`), and keeps its conv maps
channel-major, as the crossbar returns them and takes its error signal.
Its 2x2 max-pool works on four strided views of the activation map, one
per tile position. A training step's pool also records an int8 first-max
pick that the backward pass unpools through the same views; the test pass
(`CnnRunner.forward`) pools to the maximum alone and builds no pick. The
conv ReLU rectifies the pooled map in place, as max-pool and ReLU commute,
and the hidden ReLU its layer's new matmul output.

Each model keeps every parameter in one flat vector (`model.flat`), and its
weights and biases are views of it. The MLP's vector starts with its
zero-padded (layers, runs, out, in) weight stack, which `MlpRunner.refresh`
programs as it is. `backprop` returns a new flat gradient vector of the
same layout, and the optimizers (`Sgd`, `Adam`) step the parameter vector
in place by it, without writing into it. Since a model is stepped in place
after it is programmed, a backend's `program` takes a snapshot of its
matrix. `Adam` keeps its moments unnormalized, as one flat vector pair of
that layout, and folds its bias corrections into two scalars per step.
From 2**16 elements, below which handing work to a thread costs more than
it saves, `Adam` steps the vector's upper half on one worker thread while
the caller steps the lower half; the same elementwise ufuncs run on each
element, so the bits are the one-thread step's, and an update still
allocates no flat vector. The CNN's vector takes this path and every Iris
MLP's does not.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError, XbarError

if TYPE_CHECKING:
    from .config import TrainingSection

# -- activations and losses ----------------------------------------------------


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def dsigmoid_from_output(a):
    return a * (1.0 - a)


def softmax(z, axis=0):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def one_hot(labels, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((classes, labels.size))
    out[labels, np.arange(labels.size)] = 1.0
    return out


def mse_cost(outputs, targets):
    """0.5 * sum of squared errors of (..., classes, batch) outputs, averaged
    over the batch; one cost per leading index."""
    d = outputs - targets
    return 0.5 * np.add.reduce(d * d, axis=(-2, -1)) / outputs.shape[-1]


def cross_entropy_cost(probs, targets):
    eps = 1e-12
    return -float((targets * np.log(probs + eps)).sum()) / probs.shape[1]


# -- optimizers ------------------------------------------------------------------


class Sgd:
    """Plain gradient descent on a model's flat parameter vector."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Steps the flat vector `params` in place; `grads` is not written."""
        params -= self.lr * grads


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) on a model's flat parameter
    vector, with its bias corrections folded into scalars.

    `m` and `v` are flat vectors of the parameter vector's layout, holding
    the moments unnormalized: m <- b1 m + g and v <- b2 v + g*g, the
    textbook moments divided by (1 - b1) and (1 - b2). Those factors, both
    bias corrections and the learning rate fold into two scalars per step,
    so the textbook step lr * mhat / (sqrt(vhat) + eps) is
    c1 * m / (sqrt(v) + c2), with one divide and one sqrt. One kept scratch
    vector holds g*g and then the step, so after the first update an update
    allocates no vector, and the gradient vector is not written.

    A vector of at least `_SPLIT_MIN` (2**16) elements, such as the CNN's
    153,291, is stepped in two contiguous halves at once: one worker thread
    steps the upper half while the caller steps the lower, under the
    caller's numpy error state. The step is compute-bound and numpy releases
    the GIL inside these ufuncs, so the halves run on two cores. Each half
    runs the same elementwise, IEEE-rounded `*`, `+`, `/` and `sqrt` with
    the same two scalars, so every bit is that of the one-thread step, and
    the halves are views, so an update still allocates no flat vector.
    Below 2**16 elements, handing a half to the worker (60-100 us) costs
    more than it saves, so smaller vectors, every Iris MLP among them, are
    stepped whole on the caller's thread.
    """

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Steps the flat vector `params` in place by the flat `grads`."""
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self._scratch = np.empty_like(params)
        self.t += 1
        b1, b2, m, v, step = self.b1, self.b2, self.m, self.v, self._scratch
        root = math.sqrt((1 - b2) / (1 - b2**self.t))  # sqrt(vhat) = root * sqrt(v)
        c1, c2 = self.lr * (1 - b1) / (1 - b1**self.t) / root, self.eps / root
        if params.size < _SPLIT_MIN:
            _adam_step(m, v, step, grads, params, b1, b2, c1, c2)
            return
        h = params.size // 2
        upper = _worker().submit(
            contextvars.copy_context().run,  # numpy's error state is a context variable
            _adam_step, m[h:], v[h:], step[h:], grads[h:], params[h:], b1, b2, c1, c2
        )
        try:
            _adam_step(m[:h], v[:h], step[:h], grads[:h], params[:h], b1, b2, c1, c2)
        finally:
            upper.result()  # the upper half is stepped before update returns or raises


_SPLIT_MIN = 2**16  # elements from which `Adam` steps two halves at once


@functools.cache
def _worker():
    """The one thread that steps the upper half of a large Adam update."""
    # Imported on first use: a run that never splits an update (every Iris
    # MLP) would otherwise carry about 0.5 MB more peak RSS for it.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="adam")


def _adam_step(m, v, step, grads, params, b1, b2, c1, c2) -> None:
    """Adam's folded step of equal-length flat vectors, in place: m and v
    take their new moments, `step` is scratch, `params` moves by
    c1 * m / (sqrt(v) + c2) and `grads` is not written. It runs only ufuncs,
    so the worker thread calls nothing the benchmark's tracer wraps."""
    m *= b1
    m += grads
    np.multiply(grads, grads, out=step)
    v *= b2
    v += step
    np.sqrt(v, out=step)
    step += c2
    np.divide(m, step, out=step)
    step *= c1
    params -= step


def glorot_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    fan_out, fan_in = shape
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


# -- MLP -------------------------------------------------------------------------


def iris_mlp_sizes(hidden: int) -> tuple:
    """Layer widths of the Iris MLP: 4 features, `hidden`, 3 classes."""
    return (4, hidden, 3)


def _parts(shapes) -> tuple:
    """(slice, shape) of each part of a flat vector that holds arrays of
    these shapes end to end."""
    parts, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append((slice(start, start + size), shape))
        start += size
    return tuple(parts)


def _carve(flat: np.ndarray, parts) -> list:
    """The C-ordered view of `flat` of each of `_parts`."""
    return [flat[part].reshape(shape) for part, shape in parts]


@functools.cache
def _mlp_layout(sizes: tuple, runs: int) -> tuple:
    """(parts, windows) of an MLP's flat vector: the `_parts` of its
    (layers, runs, out_max, in_max) weight stack and of each layer's
    (runs, out) biases, and the index of each layer's (out, in) window of
    the stack. Cached, as every gradient vector needs it."""
    stack = (len(sizes) - 1, runs, max(sizes[1:]), max(sizes[:-1]))
    parts = _parts([stack] + [(runs, n) for n in sizes[1:]])
    windows = tuple(
        (l, slice(None), slice(n_out), slice(n_in))
        for l, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
    )
    return parts, windows


class MlpModel:
    """Sigmoid MLPs of independent runs, stacked on a leading run axis, with
    every parameter in one flat vector, `flat`.

    `flat` starts with `stack`, the (layers, runs, out_max, in_max) weight
    stack in which each layer is zero-padded to the widest layer's (out,
    in), and each layer's (runs, out) biases follow it. weights[l] is the
    view stack[l, :, :out, :in], which maps layer l activations to layer
    l+1 inputs, and biases[l] is a view too. Matrix products run on the
    crossbar backend, which programs `stack` as it is; biases ride with the
    electronic activation stage (zero-initialized). A gradient vector has
    the same layout (`on`), with zeros in the padding.
    """

    def __init__(self, flat: np.ndarray, sizes, runs: int):
        self.flat, self.sizes, self.runs = flat, tuple(sizes), runs
        parts, windows = _mlp_layout(self.sizes, runs)
        self.stack, *self.biases = _carve(flat, parts)
        self.weights = [self.stack[window] for window in windows]

    @classmethod
    def init(cls, sizes=(4, 4, 3), seeds=(0,)) -> "MlpModel":
        """Run k draws its weights, layer by layer, from default_rng(seeds[k])."""
        parts, _ = _mlp_layout(tuple(sizes), len(seeds))
        # The flat vector's length is where its last part ends.
        model = cls(np.zeros(parts[-1][0].stop), sizes, len(seeds))
        for run, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            for w in model.weights:
                w[run] = glorot_uniform(rng, w.shape[1:])
        return model

    def on(self, flat: np.ndarray) -> "MlpModel":
        """The model of this layout whose parameters are the entries of `flat`."""
        return MlpModel(flat, self.sizes, self.runs)

    @property
    def params(self) -> list:
        return self.weights + self.biases


class MlpRunner:
    """Holds the programmed handles for the current weights.

    `refresh` programs all layers in one backend call, of the model's own
    zero-padded (layers, runs, out, in) weight stack (`MlpModel.stack`),
    which the optimizer then steps in place. Each handle is one layer's view
    of that program (`view`), bit for bit the program of that layer alone.
    Inputs are (features, batch), reaching every run, or (runs, features,
    batch), one batch per run; outputs carry the run axis.
    """

    def __init__(self, model: MlpModel, backend):
        self.model = model
        self.backend = backend
        self.refresh()

    def refresh(self) -> None:
        handle = self.backend.program(self.model.stack)
        self.handles = [handle.view(l, *w.shape[-2:]) for l, w in enumerate(self.model.weights)]

    def forward(self, x) -> list:
        """Activations of every layer, the input first and the output last."""
        acts = [np.asarray(x, dtype=float)]
        for h, b in zip(self.handles, self.model.biases):
            acts.append(sigmoid(h.forward(acts[-1]) + b[..., None]))
        return acts

    def backprop(self, xb, tb):
        """MSE loss gradients of (runs, features, batch) inputs and (runs,
        classes, batch) targets; error signals travel through handle.backward.

        Returns (outputs, gradients): the output activations, and a new flat
        gradient vector in the model's layout (`MlpModel.on`), whose padding
        entries are 0.
        """
        acts = self.forward(xb)
        batch = xb.shape[-1]
        out = acts[-1]
        delta = (out - tb) * dsigmoid_from_output(out)
        deltas = [delta]
        for layer in range(len(self.handles) - 1, 0, -1):
            back = self.handles[layer].backward(delta)
            delta = back * dsigmoid_from_output(acts[layer])
            deltas.insert(0, delta)
        grads = np.zeros(self.model.flat.shape)
        parts = self.model.on(grads)
        for l, delta in enumerate(deltas):
            np.matmul(delta, acts[l].swapaxes(-1, -2), out=parts.weights[l])
            parts.weights[l] /= batch
            np.add.reduce(delta, axis=-1, out=parts.biases[l])
            parts.biases[l] /= batch
        return out, grads


@dataclass
class IrisTrainResult:
    cost_history: np.ndarray  # (runs, epochs)
    final_accuracy: np.ndarray  # (runs,)
    model: MlpModel


def train_iris(
    config: TrainingSection, seeds, train_x, train_y, test_x, test_y, backend
) -> IrisTrainResult:
    """Training with on-chip-style backprop; MSE cost per the experiments.

    Trains one run per seed, all in lockstep; run k draws its initial
    weights and, from a second default_rng(seeds[k]), its sample order of
    every epoch, as training it alone would. A backend with per-run noise
    streams needs one stream per seed.
    """
    sizes = iris_mlp_sizes(config.hidden)
    model = MlpModel.init(sizes, seeds)
    runner = MlpRunner(model, backend)
    optimizer = config.make_optimizer()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    targets = one_hot(train_y, 3)
    class_rows = np.arange(3)[:, None]  # gathers (runs, 3, n_train) target blocks
    costs = np.zeros((len(rngs), config.epochs))
    n_train = train_x.shape[0]
    order = np.empty((len(rngs), n_train), dtype=int)
    for epoch in range(config.epochs):
        for run, rng in enumerate(rngs):
            order[run] = rng.permutation(n_train)
        # Every run's samples (runs, n_train, 4) and targets (runs, 3,
        # n_train) in its epoch order, gathered once; batches are slices.
        samples = train_x[order]
        sample_targets = targets[class_rows, order[:, None, :]]
        epoch_cost = costs[:, epoch]  # summed in place, then averaged
        for start in range(0, n_train, config.batch_size):
            stop = start + config.batch_size
            # Each run's (4, batch) slice is a transposed view, as train_x[idx].T
            # is in a one-run training, so the gradient products see the same
            # operand layout.
            xb = samples[:, start:stop].swapaxes(-1, -2)
            tb = sample_targets[..., start:stop]
            out, grads = runner.backprop(xb, tb)
            epoch_cost += mse_cost(out, tb) * tb.shape[-1]
            if not np.logical_and.reduce(np.isfinite(epoch_cost)):
                raise XbarError("training aborted: non-finite loss")
            optimizer.update(model.flat, grads)
            runner.refresh()
        epoch_cost /= n_train
    # The runner holds the final weights' programs: test every run on them.
    out = runner.forward(test_x.T)[-1]
    acc = (out.argmax(axis=-2) == test_y).mean(axis=-1)
    return IrisTrainResult(cost_history=costs, final_accuracy=acc, model=model)


# -- CNN -------------------------------------------------------------------------

IMAGE_SIZE = 28
KERNEL_COUNT = 9
KERNEL_SIZE = 3
CONV_OUT = IMAGE_SIZE - KERNEL_SIZE + 1  # 26: valid padding, stride 1
POOL_OUT = 13
FLAT_DIM = KERNEL_COUNT * POOL_OUT * POOL_OUT  # 1521
HIDDEN_DIM = 100
CLASSES = 10
# Test images forwarded at a time by `CnnRunner.predict`: a chunk's
# crossbar columns (9 x 676 per image, no patch matrix) and its feature maps
# are its peak memory. The chunk size can move a probability in its last
# bits (BLAS blocks the batch axis), but no prediction short of a tie to
# those bits.
PREDICT_BATCH = 32
# The CNN's parameters, end to end in its flat vector (`_parts`).
CNN_LAYOUT = _parts(
    [
        (KERNEL_COUNT, KERNEL_SIZE * KERNEL_SIZE),
        (HIDDEN_DIM, FLAT_DIM),
        (CLASSES, HIDDEN_DIM),
        (HIDDEN_DIM,),
        (CLASSES,),
    ]
)


class CnnModel:
    """Nine 3x3 kernels as a 9x9 matrix, then FC(100, relu) and FC(10, softmax).

    The kernel matrix is the photonic layer (pure matrix product); the
    fully-connected layers are electronic and carry bias terms. Every
    parameter lives in one flat vector, `flat`, end to end in `params`
    order (`CNN_LAYOUT`), and each of the five fields is a C-ordered view
    of it. A gradient vector has the same layout (`on`).
    """

    def __init__(self, flat: np.ndarray):
        self.flat = flat
        # kernel_matrix (9, 9): row k is kernel k flattened; w_hidden (100,
        # 1521), w_out (10, 100), b_hidden (100,), b_out (10,).
        self.kernel_matrix, self.w_hidden, self.w_out, self.b_hidden, self.b_out = _carve(
            flat, CNN_LAYOUT
        )

    @classmethod
    def init(cls, seed: int = 0) -> "CnnModel":
        rng = np.random.default_rng(seed)
        # The flat vector's length is where its last part ends.
        model = cls(np.zeros(CNN_LAYOUT[-1][0].stop))
        for w in (model.kernel_matrix, model.w_hidden, model.w_out):
            w[...] = glorot_uniform(rng, w.shape)
        return model

    def on(self, flat: np.ndarray) -> "CnnModel":
        """The model whose parameters are the entries of `flat`."""
        return CnnModel(flat)

    @property
    def params(self) -> list:
        return [self.kernel_matrix, self.w_hidden, self.w_out, self.b_hidden, self.b_out]


def im2col(images: np.ndarray) -> np.ndarray:
    """(B, 28, 28) images -> the crossbar operand, C-ordered (9, B*676):
    column b*676 + 26i + j is the 3x3 patch at (i, j) of image b, flattened
    row-wise, so row k = 3di + dj holds every patch's element (i + di, j + dj)."""
    if images.ndim != 3 or images.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
        raise ShapeError(f"expected (batch, {IMAGE_SIZE}, {IMAGE_SIZE}) images, got {images.shape}")
    b = images.shape[0]
    cols = np.empty((KERNEL_SIZE * KERNEL_SIZE, b, CONV_OUT, CONV_OUT))
    for k in range(KERNEL_SIZE * KERNEL_SIZE):
        di, dj = divmod(k, KERNEL_SIZE)
        cols[k] = images[:, di : di + CONV_OUT, dj : dj + CONV_OUT]
    return cols.reshape(KERNEL_SIZE * KERNEL_SIZE, b * CONV_OUT * CONV_OUT)


def _pool_views(maps: np.ndarray) -> list:
    """The four strided views of the 2x2 pooling tiles of (B, 9, 26, 26) maps:
    view k = 2r + c holds each tile's element at row r, column c, so view k
    at [:, :, i, j] is maps[:, :, 2i + r, 2j + c]."""
    return [maps[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)]


def _tile_max(views: list) -> np.ndarray:
    """The C-ordered (B, 9, 13, 13) maximum of the four `_pool_views`."""
    pooled = views[0].copy()
    for k in range(1, 4):
        np.maximum(views[k], pooled, out=pooled)
    return pooled


def max_pool(act: np.ndarray):
    """2x2 max-pool of (B, 9, 26, 26) maps, in any memory order: (pooled,
    pick), both C-ordered (B, 9, 13, 13).

    The int8 `pick` is the first view that equals the maximum, as `argmax`
    picks it, ties included. With n_k = views[k] != pooled it is
    n_0 (1 + n_1 (1 + n_2)), in int8 arithmetic on the masks.
    """
    views = _pool_views(act)
    pooled = _tile_max(views)
    pick = np.empty(pooled.shape, dtype=np.int8)
    np.not_equal(views[2], pooled, out=pick.view(bool))
    mask = np.empty(pooled.shape, dtype=bool)
    for k in (1, 0):
        pick += 1
        np.not_equal(views[k], pooled, out=mask)
        pick *= mask
    return pooled, pick


def unpool(d_pool: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Gradient of `max_pool`: each pooled gradient routed to its picked tile
    position, zeros elsewhere. `d_pool` may be in any memory order; it is
    copied to C order, the order of `pick`, once before the four masked
    writes. The (B, 9, 26, 26) result is the transposed view of a new
    channel-major (9, B, 26, 26) array, so the crossbar's (9, B*676) error
    columns are a reshape of it, without a copy."""
    b = d_pool.shape[0]
    d_pool = np.ascontiguousarray(d_pool)
    d_act = np.empty((KERNEL_COUNT, b, CONV_OUT, CONV_OUT)).transpose(1, 0, 2, 3)
    for k, view in enumerate(_pool_views(d_act)):
        np.multiply(d_pool, pick == k, out=view)
    return d_act


class CnnRunner:
    """Forward/backward passes with the convolution routed through a backend.

    `im2col` builds the crossbar's C-ordered (9, B*676) operand, and the
    conv map stays channel-major: the (9, B*676) product, seen as
    (B, 9, 26, 26) through a transposed view. The 2x2 max-pool reads the
    four strided tile views of the unrectified map. `backprop`'s pool
    (`max_pool`) also records an int8 first-max pick, and `unpool` routes
    each pooled gradient through the same views to the picked position;
    `forward`, the test pass, pools to the maximum alone and builds no pick.
    The conv ReLU then rectifies the 4x smaller pooled map in place, at the
    head of `_dense` for both passes: a tile's maximum rectified is the
    maximum of its rectified elements. The hidden layer adds its bias and
    rectifies in place on its new matmul output. The ReLU's gradient mask
    is taken on the pooled map, before `unpool`: a picked element is
    positive exactly where its tile maximum is, and a tile whose maximum is
    at most 0 sends a zeroed gradient to each of its four positions,
    whichever one its pick names.
    """

    def __init__(self, model: CnnModel, backend):
        self.model = model
        self.backend = backend
        self.refresh()

    def refresh(self) -> None:
        self.conv_handle = self.backend.program(self.model.kernel_matrix)

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class probabilities (10, B) of (B, 28, 28) images, pooled to the
        maximum without the pick that only `backprop` reads."""
        pooled = _tile_max(_pool_views(self._conv(im2col(images))))
        return self._dense(pooled)[-1]

    def _conv(self, cols: np.ndarray) -> np.ndarray:
        """The unrectified conv map of (9, 676B) im2col columns, as (B, 9, 26, 26)."""
        conv = self.conv_handle.forward(cols)  # (9, 676B)
        b = cols.shape[1] // (CONV_OUT * CONV_OUT)
        return conv.reshape(KERNEL_COUNT, b, CONV_OUT, CONV_OUT).transpose(1, 0, 2, 3)

    def _dense(self, pooled: np.ndarray):
        """(flat, hidden, probabilities) of C-ordered (B, 9, 13, 13) pooled
        maps, which the conv ReLU rectifies in place."""
        np.maximum(pooled, 0.0, out=pooled)
        flat = pooled.reshape(pooled.shape[0], FLAT_DIM).T  # (1521, B)
        hidden = self.model.w_hidden @ flat
        hidden += self.model.b_hidden[:, None]
        np.maximum(hidden, 0.0, out=hidden)
        logits = self.model.w_out @ hidden + self.model.b_out[:, None]
        return flat, hidden, softmax(logits, axis=0)

    def backprop(self, images: np.ndarray, labels: np.ndarray):
        """Cross-entropy gradients; conv error signals go through the crossbar.

        Returns (cost, gradients, d_patches): the gradients are a new flat
        vector in the model's layout (`CnnModel.on`), and d_patches the
        crossbar's (9, 676B) patch error signal.
        """
        b = images.shape[0]
        cols = im2col(images)  # (9, 676B)
        # The conv map is freed once pooled, before the backward pass
        # allocates: a map held through the step grows the heap top, which
        # the allocator then hands back to the OS every step.
        pooled, pick = max_pool(self._conv(cols))
        flat, hidden, probs = self._dense(pooled)
        targets = one_hot(labels, CLASSES)
        cost = cross_entropy_cost(probs, targets)
        d_logits = (probs - targets) / b  # (10, B)
        grads = np.empty(self.model.flat.shape)
        parts = self.model.on(grads)
        np.matmul(d_logits, hidden.T, out=parts.w_out)
        np.add.reduce(d_logits, axis=1, out=parts.b_out)
        d_hidden = (self.model.w_out.T @ d_logits) * (hidden > 0)
        np.matmul(d_hidden, flat.T, out=parts.w_hidden)
        np.add.reduce(d_hidden, axis=1, out=parts.b_hidden)
        d_flat = self.model.w_hidden.T @ d_hidden  # (1521, B)
        # The conv ReLU's mask, taken on the pooled map: it also zeroes the
        # gradient of a tile whose maximum is at most 0, whatever its pick.
        d_flat *= flat > 0
        d_pool = d_flat.T.reshape(b, KERNEL_COUNT, POOL_OUT, POOL_OUT)
        d_conv = unpool(d_pool, pick)  # (B, 9, 26, 26), channel-major
        d_cols = d_conv.transpose(1, 0, 2, 3).reshape(KERNEL_COUNT, b * CONV_OUT * CONV_OUT)
        # Kernel gradient is the electronic outer product; BLAS reads the
        # transposed columns in place. The patch error signal is the
        # crossbar's backward (transpose) product.
        np.matmul(d_cols, cols.T, out=parts.kernel_matrix)
        d_patches = self.conv_handle.backward(d_cols)
        return cost, grads, d_patches

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted class of every image, forwarded PREDICT_BATCH images at a time."""
        return np.concatenate(
            [
                self.forward(images[start : start + PREDICT_BATCH]).argmax(axis=0)
                for start in range(0, images.shape[0], PREDICT_BATCH)
            ]
        )


@dataclass
class MnistTrainResult:
    accuracy_history: np.ndarray
    confusion: np.ndarray
    cost_history: np.ndarray


def confusion_matrix(predicted, actual, classes: int = CLASSES) -> np.ndarray:
    m = np.zeros((classes, classes), dtype=int)
    np.add.at(m, (actual, predicted), 1)
    return m


def train_mnist(
    config: TrainingSection,
    seed: int,
    train_images,
    train_labels,
    test_images,
    test_labels,
    backend,
) -> MnistTrainResult:
    """Training of the CNN with crossbar-routed convolutions."""
    model = CnnModel.init(seed=seed)
    runner = CnnRunner(model, backend)
    optimizer = config.make_optimizer()
    rng = np.random.default_rng(seed)
    n_train = train_images.shape[0]
    acc_history = np.zeros(config.epochs)
    cost_history = np.zeros(config.epochs)
    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        epoch_cost = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            cost, grads, _ = runner.backprop(train_images[idx], train_labels[idx])
            if not np.isfinite(cost):
                raise XbarError("training aborted: non-finite loss")
            epoch_cost += cost * len(idx)
            optimizer.update(model.flat, grads)
            runner.refresh()
        cost_history[epoch] = epoch_cost / n_train
        predictions = runner.predict(test_images)
        acc_history[epoch] = int((predictions == test_labels).sum()) / test_images.shape[0]
    # The last epoch's test pass gives the confusion matrix too.
    confusion = confusion_matrix(predictions, test_labels)
    return MnistTrainResult(
        accuracy_history=acc_history,
        confusion=confusion,
        cost_history=cost_history,
    )
