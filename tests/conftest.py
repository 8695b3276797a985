"""Shared fixtures: synthetic MNIST IDX files."""

import gzip
import struct

import numpy as np
import pytest

from xbar.config import DatasetSection
from xbar.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def idx_bytes(array: np.ndarray) -> bytes:
    """IDX3 bytes of a (count, rows, cols) uint8 array, IDX1 bytes of a (count,) one."""
    if array.ndim == 3:
        header = struct.pack(">IIII", IDX_IMAGES_MAGIC, *array.shape)
    else:
        header = struct.pack(">II", IDX_LABELS_MAGIC, array.size)
    return header + array.astype(np.uint8).tobytes()


def write_idx(path, array: np.ndarray):
    """Write `array` as an IDX file, gzip-compressed when `path` ends in .gz."""
    data = idx_bytes(array)
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
    return path


@pytest.fixture
def mnist_dir(tmp_path):
    """A directory holding gzip-compressed train and t10k IDX pairs as long
    as the default subsets, which a config validates against: four random
    digits, then blank ones labelled 0."""
    directory = tmp_path / "mnist"
    directory.mkdir()
    rng = np.random.default_rng(0)
    sizes = {"train": DatasetSection.mnist_train, "t10k": DatasetSection.mnist_test}
    for prefix, count in sizes.items():
        images, labels = np.zeros((count, 28, 28)), np.zeros(count)
        images[:4], labels[:4] = rng.integers(0, 256, (4, 28, 28)), rng.integers(0, 10, 4)
        write_idx(directory / f"{prefix}-images-idx3-ubyte.gz", images)
        write_idx(directory / f"{prefix}-labels-idx1-ubyte.gz", labels)
    return directory
