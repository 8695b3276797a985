"""Shared fixtures: synthetic MNIST IDX files."""

import gzip
import struct

import numpy as np
import pytest

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
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
    return path


@pytest.fixture
def mnist_dir(tmp_path):
    """A directory holding small train and t10k IDX pairs."""
    directory = tmp_path / "mnist"
    directory.mkdir()
    rng = np.random.default_rng(0)
    for prefix in ("train", "t10k"):
        write_idx(directory / f"{prefix}-images-idx3-ubyte", rng.integers(0, 256, (4, 28, 28)))
        write_idx(directory / f"{prefix}-labels-idx1-ubyte", rng.integers(0, 10, 4))
    return directory
