"""Dataset ingestion: Iris CSV and MNIST IDX files.

A canonical copy of the 150-record Iris data ships with the package so the
classification experiments run hermetically; `load_iris` also accepts any
standard 5-column CSV. MNIST is read bit-exactly from the standard IDX
layout (big-endian magic 0x803/0x801); files are local inputs and may be
gzip-compressed.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataFormatError

IRIS_SPECIES = ("setosa", "versicolor", "virginica")
IRIS_RECORDS = 150
IRIS_PER_CLASS = 50
IRIS_TRAIN_PER_CLASS = 35

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_MAGIC = {"images": IDX_IMAGES_MAGIC, "labels": IDX_LABELS_MAGIC}


@dataclass(frozen=True)
class IrisDataset:
    features: np.ndarray  # (150, 4) raw measurements
    labels: np.ndarray  # (150,) in {0, 1, 2}
    normalized: np.ndarray  # min-max per feature, in [0, 1]

    def split(self, seed: int = 0):
        """Deterministic stratified split: 35 train + 15 test per class."""
        rng = np.random.default_rng(seed)
        train_idx, test_idx = [], []
        for cls in range(3):
            members = np.flatnonzero(self.labels == cls)
            order = rng.permutation(members)
            train_idx.extend(order[:IRIS_TRAIN_PER_CLASS])
            test_idx.extend(order[IRIS_TRAIN_PER_CLASS:])
        train_idx = np.sort(np.asarray(train_idx))
        test_idx = np.sort(np.asarray(test_idx))
        return (
            self.normalized[train_idx],
            self.labels[train_idx],
            self.normalized[test_idx],
            self.labels[test_idx],
        )


def packaged_iris_path() -> Path:
    return Path(str(resources.files("xbar").joinpath("_data/iris.csv")))


def _parse_label(token: str, path, lineno: int) -> int:
    token = token.strip().lower()
    if token.startswith("iris-"):
        token = token[5:]
    if token in IRIS_SPECIES:
        return IRIS_SPECIES.index(token)
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: unknown species label {token!r}") from None
    if value not in (0, 1, 2):
        raise DataFormatError(f"{path}:{lineno}: class label must be 0, 1 or 2, got {token!r}")
    return int(value)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_iris_header(fields) -> bool:
    """Whether line 1 of an Iris CSV is a header: none of its feature fields
    is a number, or, as in scikit-learn's `150,4,setosa,versicolor,virginica`,
    its last three fields are the class names in order."""
    names = tuple(field.strip().lower() for field in fields[2:])
    return not any(map(_is_float, fields[:4])) or names == IRIS_SPECIES


def load_iris(path=None) -> IrisDataset:
    """Parse a standard 5-column Iris CSV (4 features + species label)."""
    path = Path(path) if path is not None else packaged_iris_path()
    features, labels = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and _is_iris_header(parts):
                continue
            if len(parts) != 5:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 5 comma-separated columns, found {len(parts)}"
                )
            try:
                row = [float(v) for v in parts[:4]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            features.append(row)
            labels.append(_parse_label(parts[4], path, lineno))
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(features) != IRIS_RECORDS:
        raise DataFormatError(
            f"{path}: expected {IRIS_RECORDS} records, found {len(features)}"
        )
    counts = np.bincount(labels, minlength=3)
    if not np.all(counts == IRIS_PER_CLASS):
        raise DataFormatError(
            f"{path}: expected {IRIS_PER_CLASS} records per class, found {counts.tolist()}"
        )
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    unscalable = np.flatnonzero(~(np.isfinite(span) & (span > 0)))
    if unscalable.size:
        raise DataFormatError(
            f"{path}: feature column {unscalable[0] + 1} is constant or not finite, so it "
            "cannot be scaled onto [0, 1]"
        )
    normalized = (features - lo) / span
    return IrisDataset(features=features, labels=labels, normalized=normalized)


# -- MNIST ----------------------------------------------------------------------


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, path, what: str) -> bytes:
    try:
        data = fh.read(count)
    except EOFError as exc:  # a gzip stream that ends early
        raise DataFormatError(f"{path}: truncated file while reading {what} ({exc})") from None
    if len(data) != count:
        raise DataFormatError(
            f"{path}: truncated file while reading {what} "
            f"(wanted {count} bytes, got {len(data)})"
        )
    return data


def read_idx(path, what: str, count: int | None = None) -> tuple[int, np.ndarray]:
    """The record count in the header of an IDX file of `what` ("images" or
    "labels"), and its first `count` records (every one when None) as uint8,
    shaped as the header says. `count` 0 reads the header alone."""
    magic = IDX_MAGIC[what]
    with _open_maybe_gzip(path) as fh:
        (found,) = struct.unpack(">I", _read_exact(fh, 4, path, "header"))
        if found != magic:
            raise DataFormatError(f"{path}: bad magic 0x{found:08x} (expected 0x{magic:08x})")
        ndim = magic & 0xFF  # an IDX magic's low byte counts the dimensions
        total, *record = struct.unpack(f">{ndim}I", _read_exact(fh, 4 * ndim, path, "header"))
        count = total if count is None else count
        if count > total:
            raise DataFormatError(f"{path}: requested {count} {what}, file holds {total}")
        raw = _read_exact(fh, count * math.prod(record), path, f"{count} {what}")
    return total, np.frombuffer(raw, dtype=np.uint8).reshape(count, *record)


def read_idx_images(path, count: int | None = None) -> np.ndarray:
    """First `count` images of an IDX3 file as float arrays in [0, 1]."""
    return read_idx(path, "images", count)[1].astype(float) / 255.0


def read_idx_labels(path, count: int | None = None) -> np.ndarray:
    labels = read_idx(path, "labels", count)[1].astype(int)
    if np.any(labels > 9):
        raise DataFormatError(f"{path}: labels outside 0..9")
    return labels


def load_mnist(images_path, labels_path, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First-k images and labels from an IDX pair, pixel-normalized to [0, 1]."""
    images = read_idx_images(images_path, count)
    labels = read_idx_labels(labels_path, count)
    return images, labels


@dataclass(frozen=True)
class MnistSubset:
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray


MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def find_mnist_file(directory, kind: str):
    directory = Path(directory)
    for stem in MNIST_FILES[kind]:
        for name in (stem, stem + ".gz"):
            candidate = directory / name
            if candidate.exists():
                return candidate
    return None


def load_mnist_subset(directory, train_count: int = 10000, test_count: int = 1000) -> MnistSubset:
    """The experiment subset: first `train_count`/`test_count` records."""
    paths = {kind: find_mnist_file(directory, kind) for kind in MNIST_FILES}
    missing = [kind for kind, p in paths.items() if p is None]
    if missing:
        raise FileNotFoundError(
            f"MNIST IDX files not found under {directory}: missing {missing}"
        )
    train_images, train_labels = load_mnist(
        paths["train_images"], paths["train_labels"], train_count
    )
    test_images, test_labels = load_mnist(paths["test_images"], paths["test_labels"], test_count)
    return MnistSubset(train_images, train_labels, test_images, test_labels)
