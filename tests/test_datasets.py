"""IDX parser tests on synthetic MNIST files."""

import gzip
import re

import numpy as np
import pytest
from conftest import idx_bytes, write_idx

from xbar.datasets import (
    MNIST_FILES,
    find_mnist_file,
    load_iris,
    packaged_iris_path,
    read_idx,
    read_idx_images,
    read_idx_labels,
)
from xbar.errors import DataFormatError

IMAGES = np.random.default_rng(1).integers(0, 256, (5, 3, 2)).astype(np.uint8)
LABELS = np.array([0, 9, 3, 3, 7], dtype=np.uint8)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_images_round_trip(tmp_path, suffix):
    path = write_idx(tmp_path / f"images{suffix}", IMAGES)
    np.testing.assert_array_equal(read_idx_images(path), IMAGES.astype(float) / 255.0)
    np.testing.assert_array_equal(read_idx_images(path, 2), IMAGES[:2].astype(float) / 255.0)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_labels_round_trip(tmp_path, suffix):
    path = write_idx(tmp_path / f"labels{suffix}", LABELS)
    np.testing.assert_array_equal(read_idx_labels(path), LABELS)
    np.testing.assert_array_equal(read_idx_labels(path, 3), LABELS[:3])


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_an_idx_header_is_read_alone(tmp_path, suffix):
    """`read_idx` of no records gives the header's count and record shape,
    whatever follows the header: here a body cut short."""
    for what, array in (("images", IMAGES), ("labels", LABELS)):
        path = write_idx(tmp_path / f"{what}{suffix}", array)
        cut = idx_bytes(array)[:-1]
        path.write_bytes(gzip.compress(cut) if suffix else cut)
        total, head = read_idx(path, what, 0)
        assert (total, head.shape) == (array.shape[0], (0, *array.shape[1:]))
        with pytest.raises(DataFormatError, match="bad magic"):
            read_idx(path, "labels" if what == "images" else "images", 0)


def test_a_gzip_stream_cut_short_raises_data_format_error(tmp_path):
    path = tmp_path / "images.gz"
    path.write_bytes(gzip.compress(idx_bytes(IMAGES))[:-10])
    with pytest.raises(DataFormatError, match="images.gz: truncated file while reading 5 images"):
        read_idx_images(path)


def _other_magic(data: bytes) -> bytes:
    return b"\x00\x00\x08\x02" + data[4:]


# (reader, bytes of a corrupt file, count to read, message)
CORRUPT = {
    "images magic": (read_idx_images, _other_magic(idx_bytes(IMAGES)), None, "bad magic 0x00000802"),
    "labels magic": (read_idx_labels, _other_magic(idx_bytes(LABELS)), None, "bad magic 0x00000802"),
    "images header": (read_idx_images, idx_bytes(IMAGES)[:12], None, "while reading header"),
    "labels header": (read_idx_labels, idx_bytes(LABELS)[:6], None, "while reading header"),
    "images body": (read_idx_images, idx_bytes(IMAGES)[:-1], None, "while reading 5 images"),
    "labels body": (read_idx_labels, idx_bytes(LABELS)[:-1], None, "while reading 5 labels"),
    "images count": (read_idx_images, idx_bytes(IMAGES), 6, "requested 6 images, file holds 5"),
    "labels count": (read_idx_labels, idx_bytes(LABELS), 6, "requested 6 labels, file holds 5"),
    "label above 9": (read_idx_labels, idx_bytes(np.array([1, 10])), None, "labels outside 0..9"),
}


@pytest.mark.parametrize("case", list(CORRUPT))
def test_corrupt_idx_raises_data_format_error(tmp_path, case):
    reader, data, count, message = CORRUPT[case]
    path = tmp_path / "corrupt"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=message):
        reader(path, count)


@pytest.mark.parametrize("kind", list(MNIST_FILES))
@pytest.mark.parametrize("spelling", [0, 1])
@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_find_mnist_file_accepts_both_spellings_and_gzip(tmp_path, kind, spelling, suffix):
    assert find_mnist_file(tmp_path, kind) is None
    path = tmp_path / (MNIST_FILES[kind][spelling] + suffix)
    path.write_bytes(b"")
    assert find_mnist_file(tmp_path, kind) == path


def test_an_iris_feature_column_that_is_constant_raises_data_format_error(tmp_path):
    # A constant column has no range to scale onto [0, 1].
    lines = packaged_iris_path().read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[2] = "1.5"
    path = tmp_path / "iris.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    with pytest.raises(DataFormatError, match=r"iris\.csv: feature column 3 is constant"):
        load_iris(path)


@pytest.mark.parametrize("header", [True, False])
def test_an_iris_csv_whose_first_value_has_an_exponent_keeps_every_record(tmp_path, header):
    """Line 1 is a header only when none of its feature fields is a number,
    so a headerless first record written with an exponent is read."""
    header_line, first, *rest = packaged_iris_path().read_text().splitlines()
    fields = first.split(",")
    fields[0] = f"{float(fields[0]):e}"  # 5.100000e+00
    path = tmp_path / "iris.csv"
    path.write_text("\n".join(([header_line] if header else []) + [",".join(fields), *rest]) + "\n")
    got, expected = load_iris(path), load_iris(None)
    np.testing.assert_array_equal(got.features, expected.features)
    np.testing.assert_array_equal(got.labels, expected.labels)


def write_iris_copy(path, first_record=None, label_of=lambda label: label, header=True):
    """The packaged Iris CSV at `path`: its first record replaced by
    `first_record` if given, every label mapped by `label_of`, and its
    header line kept or dropped."""
    header_line, *records = packaged_iris_path().read_text().splitlines()
    if first_record is not None:
        records[0] = first_record
    records = [",".join([*r.split(",")[:4], label_of(r.split(",")[4])]) for r in records]
    path.write_text("\n".join(([header_line] if header else []) + records) + "\n")


@pytest.mark.parametrize("header", [True, False])
def test_a_malformed_first_record_is_no_header(tmp_path, header):
    """A first record with one bad feature field is read as a record, and
    its error names its line and the field, with or without a header."""
    path = tmp_path / "iris.csv"
    write_iris_copy(path, "5.1,3.5,1.4x,0.2,setosa", header=header)
    message = rf"iris\.csv:{2 if header else 1}: could not convert string to float: '1\.4x'$"
    with pytest.raises(DataFormatError, match=message):
        load_iris(path)


def test_numeric_iris_labels_that_are_exactly_a_class_are_read(tmp_path):
    path = tmp_path / "iris.csv"
    numeric = {"setosa": "0", "versicolor": "1e0", "virginica": "2.0"}
    write_iris_copy(path, label_of=numeric.get)
    np.testing.assert_array_equal(load_iris(path).labels, load_iris(None).labels)


@pytest.mark.parametrize("token", ["0.9", "2.5", "-0.5", "3", "-1", "inf", "-inf", "nan", "1e400"])
def test_a_numeric_iris_label_that_is_not_exactly_a_class_raises(tmp_path, token):
    """No numeric label is truncated to a class: the error names the path,
    the line and the token, and an infinite label raises no OverflowError."""
    path = tmp_path / "iris.csv"
    write_iris_copy(path, f"5.1,3.5,1.4,0.2,{token}")
    message = rf"iris\.csv:2: class label must be 0, 1 or 2, got {re.escape(repr(token))}$"
    with pytest.raises(DataFormatError, match=message):
        load_iris(path)
