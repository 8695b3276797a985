"""Seeded synthetic handwritten-digit data written as a standard MNIST IDX pair.

Each digit is drawn as a seven-segment glyph with a random position, size,
stroke width and intensity. Segments drop out and stray segments appear at
random, and Gaussian pixel noise is added, so several classes (8/0/9/6,
1/7, 3/9) overlap and a small CNN cannot reach perfect accuracy in a few
epochs. A saturated accuracy could not show a physics regression.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Segment boxes in unit glyph coordinates: (row0, col0, row1, col1).
_SEGMENTS = np.array(
    [
        (0.0, 0.0, 0.0, 1.0),  # a: top
        (0.0, 1.0, 0.5, 1.0),  # b: upper right
        (0.5, 1.0, 1.0, 1.0),  # c: lower right
        (1.0, 0.0, 1.0, 1.0),  # d: bottom
        (0.5, 0.0, 1.0, 0.0),  # e: lower left
        (0.0, 0.0, 0.5, 0.0),  # f: upper left
        (0.5, 0.0, 0.5, 1.0),  # g: middle
    ]
)
_DIGITS = ("abcdef", "bc", "abdeg", "abcdg", "bcfg", "acdfg", "acdefg", "abc", "abcdefg", "abcdfg")
_LIT = np.array([[seg in digit for seg in "abcdefg"] for digit in _DIGITS])

DROP_PROB = 0.1
STRAY_PROB = 0.08
PIXEL_SIGMA = 0.15
SHIFT = 2.0  # pixels of random offset from the centred glyph


def render_digits(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(count, 28, 28) uint8 images of the given labels."""
    count = labels.size
    height = rng.uniform(16.0, 22.0, count)
    width = rng.uniform(9.0, 14.0, count)
    top = (SIDE - height) / 2.0 + rng.uniform(-SHIFT, SHIFT, count)
    left = (SIDE - width) / 2.0 + rng.uniform(-SHIFT, SHIFT, count)
    half = rng.uniform(1.0, 1.8, count)[:, None]  # half stroke width in pixels
    lit = _LIT[labels] & (rng.random((count, 7)) >= DROP_PROB)
    lit |= rng.random((count, 7)) < STRAY_PROB / 7.0
    ink = rng.uniform(0.6, 1.0, (count, 7)) * lit
    r0 = top[:, None] + _SEGMENTS[None, :, 0] * height[:, None] - half
    r1 = top[:, None] + _SEGMENTS[None, :, 2] * height[:, None] + half
    c0 = left[:, None] + _SEGMENTS[None, :, 1] * width[:, None] - half
    c1 = left[:, None] + _SEGMENTS[None, :, 3] * width[:, None] + half
    rows = np.arange(SIDE)[None, None, :, None]
    cols = np.arange(SIDE)[None, None, None, :]
    inside = (
        (rows >= r0[..., None, None])
        & (rows <= r1[..., None, None])
        & (cols >= c0[..., None, None])
        & (cols <= c1[..., None, None])
    )
    image = (inside * ink[..., None, None]).max(axis=1)
    image += rng.normal(0.0, PIXEL_SIGMA, image.shape)
    return np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def _write_idx_images(path: Path, images: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, images.shape[0], SIDE, SIDE))
        fh.write(images.tobytes())


def _write_idx_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


def write_mnist_idx(directory: Path, seed: int, train_count: int, test_count: int) -> None:
    """Write train and t10k IDX pairs under `directory`, reproducible from `seed`."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(28,)))
    for prefix, count in (("train", train_count), ("t10k", test_count)):
        labels = rng.integers(0, 10, count)
        _write_idx_images(directory / f"{prefix}-images-idx3-ubyte", render_digits(labels, rng))
        _write_idx_labels(directory / f"{prefix}-labels-idx1-ubyte", labels)
