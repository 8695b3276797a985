"""The command-line contract: one row per case, each run as
`python -m xbar.cli` in a subprocess, in the row's own temporary directory.

- A failing row runs once. It must exit 1 and print nothing on stdout. It
  must print exactly one stderr line, which starts `xbar: error:` and holds
  the row's text. The directory must hold only what the row's setup wrote.
- A re-run row runs twice, under PYTHONHASHSEED 1 and 2. Each run must exit
  0 and print its output directory, which must hold exactly the row's files
  and `manifest.json`. Every file but the manifest must be byte-identical
  between the runs, and the two manifests equal once `config.out_dir` is
  dropped.

The subprocess's PYTHONPATH is the directory holding the `xbar` package that
this test process imported. Under the tier-1 command (`PYTHONPATH=src`) the
table tests the checkout. CI runs it once more against the installed
package, from outside the checkout and without PYTHONPATH:

    cd "$RUNNER_TEMP"
    python -m pytest "$GITHUB_WORKSPACE/tests/test_cli.py" -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
import yaml
from conftest import write_idx

import xbar

# The benchmark's digit generator, imported read-only.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from synth_mnist import write_mnist_idx  # noqa: E402

XBAR_PATH = str(Path(xbar.__file__).resolve().parent.parent)


@dataclass(frozen=True)
class Row:
    experiment: str
    # Written to run.yaml and passed as --config: a mapping is dumped as
    # YAML, bytes are written as they are; None passes no --config.
    config: dict | bytes | None
    # The text that the one error line must hold; None makes a re-run row.
    error: str | None = None
    # A re-run row's output files besides manifest.json.
    files: tuple[str, ...] = ()
    options: tuple[str, ...] = ()
    # Writes more inputs: called with the row's directory and the 64/32 digits.
    setup: Callable[[Path, Path], None] | None = None


def fails(experiment, config, error, *options, setup=None):
    return Row(experiment, config, error=error, options=options, setup=setup)


def reruns(experiment, config, files, *options, setup=None):
    return Row(experiment, config, files=files, options=options, setup=setup)


def linked_digits(directory, synth):
    """Setup: a link at `mnist` to the 64/32 digits."""
    (directory / "mnist").symlink_to(synth, target_is_directory=True)


def empty_mnist(directory, synth):
    (directory / "mnist").mkdir()


def out_file(directory, synth):
    """Setup: a regular file where the output directory goes."""
    (directory / "out").touch()


def train_pair(images, labels, suffix="", cut=0):
    """Setup: the 64/32 digits at `mnist`, with their training pair replaced
    by blank images of shape `images` and `labels` labels, in files ending in
    `suffix` (".gz" compresses them), the images cut `cut` bytes short."""

    def setup(directory, synth):
        mnist = shutil.copytree(synth, directory / "mnist")
        for path in mnist.glob("train-*"):
            path.unlink()
        data = write_idx(mnist / f"train-images-idx3-ubyte{suffix}", np.zeros(images))
        write_idx(mnist / f"train-labels-idx1-ubyte{suffix}", np.zeros(labels))
        if cut:
            data.write_bytes(data.read_bytes()[:-cut])

    return setup


NINE = {"preset": "simulation_9x9"}
DIGITS = {"mnist_dir": "mnist", "mnist_train": 64, "mnist_test": 32}
PHOTONIC = {"backend": "photonic"}
NOISE = {"enabled": True}
FAB_9X9 = {"preset": "simulation_9x9", "fabrication_sigma_nm": 0.02}
BIG = 10**400  # an int too large for a float

CHARACTERIZE = (
    *(f"mzi_{way}_in{port}.csv" for way in ("forward", "backward") for port in range(1, 5)),
    *(f"ring_{row}_{col}.csv" for row in range(1, 5) for col in range(1, 5)),
    "ring_summary.csv",
)
MEASURE = (
    *(
        f"{program}_{way}.csv"
        for program in ("identity", "anti_diagonal", "cyclic_shift")
        for way in ("forward", "backward")
    ),
    "summary.csv",
)
SWEEP = ("lut_element_1_1.csv", "path_loss_backward_db.csv", "path_loss_forward_db.csv", "scaling.csv")
INFERENCE = ("accuracies.csv", "cost_history.csv", "test_outputs.csv")
MNIST = ("accuracy_history.csv", "confusion.csv", "cost_history.csv")


def iris_train(runs):
    return (*(f"cost_history_run{run}.csv" for run in range(1, runs + 1)), "final_accuracies.csv")


ROWS = {
    # A value of the wrong type, or out of range, fails before any work.
    "epochs-not-an-int": fails(
        "iris-train", {"training": {"epochs": "ten"}}, "training.epochs: expected int, got 'ten'"
    ),
    "epochs-a-bool": fails(
        "measure-matrix", {"training": {"epochs": True}}, "training.epochs: expected int, got True"
    ),
    "seed-not-an-int": fails("measure-matrix", {"seed": "abc"}, "seed: expected int, got 'abc'"),
    "n-a-string": fails(
        "measure-matrix", {"devices": {"preset": "ideal", "n": "4"}}, "devices.n: expected int, got '4'"
    ),
    "legacy-off-the-4x4-preset": fails(
        "measure-matrix",
        {"devices": {"preset": "ideal"}, "topology": {"variant": "legacy_asymmetric"}},
        "topology.variant 'legacy_asymmetric' is modeled for the experimental_4x4 preset only",
    ),
    "negative-seed": fails("measure-matrix", {"seed": -1}, "seed must be >= 0, got -1"),
    "negative-seed-option": fails("iris-train", {}, "seed must be >= 0, got -1", "--seed", "-1"),
    "nan-rate": fails(
        "iris-train",
        {"training": {"learning_rate": float("nan")}},
        "training.learning_rate: expected a finite float, got nan",
    ),
    "nan-sigma": fails(
        "measure-matrix",
        {"devices": {"fabrication_sigma_nm": float("nan")}},
        "devices.fabrication_sigma_nm: expected a finite float, got nan",
    ),
    "infinite-noise": fails(
        "measure-matrix",
        {"noise": {"enabled": True, "relative_sigma": float("inf")}},
        "noise.relative_sigma: expected a finite float, got inf",
    ),
    "huge-int-rate": fails(
        "measure-matrix",
        {"training": {"learning_rate": BIG}},
        "training.learning_rate: expected a finite float, got an integer too large for a float",
    ),
    "huge-int-sigma": fails(
        "measure-matrix",
        {"devices": {"fabrication_sigma_nm": BIG}},
        "devices.fabrication_sigma_nm: expected a finite float, got an integer too large for a float",
    ),
    "one-ring-measure-matrix": fails(
        "measure-matrix",
        {"devices": {"preset": "ideal", "n": 1}},
        "measure-matrix needs an array of at least 2x2 for a dark element in each program",
    ),
    "mixed-type-keys": fails("iris-train", {1: 2, "foo": 3}, "run config: unknown keys [1, 'foo']"),
    # A config that cannot be read, or an output path below a regular file.
    "config-a-directory": fails("iris-train", None, "Is a directory", "--config", "."),
    "config-not-utf8": fails("iris-train", b"seed: 1\ntraining:\n  epochs: \xff\xfe\n", "not UTF-8"),
    "config-invalid-yaml": fails("iris-train", b"training: [a\n  b: }\n", "invalid YAML"),
    "out-below-a-file": fails("iris-train", {}, "Not a directory", setup=out_file),
    # MNIST input that cannot train fails before any work, or, when only
    # reading the digits finds the fault, leaves no output.
    "mnist-on-4x4": fails(
        "mnist-train",
        {"datasets": {"mnist_dir": "mnist"}},
        "mnist-train on the lut backend needs an array of at least 9x9",
    ),
    "mnist-without-dir": fails(
        "mnist-train",
        {"devices": NINE, "training": PHOTONIC},
        "mnist-train requires datasets.mnist_dir",
    ),
    "mnist-empty-dir": fails(
        "mnist-train",
        {"devices": NINE, "training": PHOTONIC, "datasets": {"mnist_dir": "mnist"}},
        "holds no MNIST IDX file for train_images, train_labels, test_images, test_labels",
        setup=empty_mnist,
    ),
    "mnist-32x32": fails(
        "mnist-train",
        {"devices": NINE, "training": PHOTONIC, "datasets": DIGITS},
        "train-images-idx3-ubyte.gz holds 32x32 images; the CNN reads 28x28",
        setup=train_pair((64, 32, 32), 64, ".gz"),
    ),
    "mnist-too-few-labels": fails(
        "mnist-train",
        {"devices": NINE, "training": PHOTONIC, "datasets": DIGITS},
        "datasets.mnist_train 64 asks for more labels than mnist/train-labels-idx1-ubyte.gz holds (63)",
        setup=train_pair((64, 28, 28), 63, ".gz"),
    ),
    "mnist-truncated": fails(
        "mnist-train",
        {"devices": NINE, "training": PHOTONIC, "datasets": DIGITS},
        "train-images-idx3-ubyte: truncated file while reading 64 images",
        setup=train_pair((64, 28, 28), 64, cut=100),
    ),
    # A field that the run does not read must keep its default.
    "unread-noise": fails(
        "characterize-devices",
        {"noise": NOISE},
        "noise.enabled True is not read by characterize-devices",
    ),
    "unread-average": fails(
        "iris-train",
        {"training": PHOTONIC, "noise": {"time_average": 4}},
        "noise.time_average 4 is not read by iris-train with noise.enabled false",
    ),
    "unread-epochs": fails(
        "sweep-scaling", {"training": {"epochs": 3}}, "training.epochs 3 is not read by sweep-scaling"
    ),
    "unread-phases": fails(
        "iris-train",
        {"devices": {"random_mzi_phases": True}},
        "devices.random_mzi_phases True is not read by iris-train",
    ),
    "unread-runs": fails(
        "iris-inference", {"training": {"runs": 1}}, "training.runs 1 is not read by iris-inference"
    ),
    "unread-backend": fails(
        "iris-inference",
        {"training": PHOTONIC},
        "training.backend 'photonic' is not read by iris-inference",
    ),
    "unread-hidden": fails(
        "mnist-train",
        {"devices": NINE, "training": {"backend": "photonic", "hidden": 8}, "datasets": DIGITS},
        "training.hidden 8 is not read by mnist-train",
    ),
    "n-on-a-fixed-size-preset": fails(
        "measure-matrix",
        {"devices": {"preset": "experimental_4x4", "n": 9}},
        "devices.n 9 sizes the ideal preset only",
    ),
    # A hidden layer wider than the crossbar.
    "wide-iris-train": fails(
        "iris-train",
        {"training": {"hidden": 8}},
        "iris-train on the lut backend needs an array of at least 8x8",
    ),
    "wide-iris-inference": fails(
        "iris-inference",
        {"training": {"hidden": 8}},
        "iris-inference on the photonic backend needs an array of at least 8x8",
    ),
    # Re-runs at the default config.
    "default-characterize-devices": reruns("characterize-devices", None, CHARACTERIZE),
    "default-measure-matrix": reruns("measure-matrix", None, MEASURE),
    "default-sweep-scaling": reruns("sweep-scaling", None, SWEEP),
    "default-iris-inference": reruns("iris-inference", None, INFERENCE),
    # mnist-train at batch 16, and at batch 5: its last batch of 4 is
    # partial, and 676 x 5 columns is not a multiple of a BLAS block.
    "mnist-photonic-batch-16": reruns(
        "mnist-train",
        {"devices": NINE, "training": {**PHOTONIC, "epochs": 1, "batch_size": 16}, "datasets": DIGITS},
        MNIST,
        setup=linked_digits,
    ),
    "mnist-photonic-batch-5": reruns(
        "mnist-train",
        {"devices": NINE, "training": {**PHOTONIC, "epochs": 1, "batch_size": 5}, "datasets": DIGITS},
        MNIST,
        setup=linked_digits,
    ),
    # The CNN's kernel matrix read from the LUTs, with measurement noise.
    "mnist-lut-noise": reruns(
        "mnist-train",
        {
            "devices": NINE,
            "noise": NOISE,
            "training": {"backend": "lut", "epochs": 1, "batch_size": 16},
            "datasets": DIGITS,
        },
        MNIST,
        setup=linked_digits,
    ),
    # Photonic iris-train: lockstep runs with their own noise streams; a
    # (2, 3, 4, 4) program stack for hidden 3 and three runs; and a
    # fabrication spread that aligns about half of the 9x9 rings on the
    # next resonance order.
    "iris-photonic-seed-4": reruns(
        "iris-train", {"training": {**PHOTONIC, "epochs": 2, "runs": 1}}, iris_train(1), "--seed", "4"
    ),
    "iris-photonic-noise": reruns(
        "iris-train", {"noise": NOISE, "training": {**PHOTONIC, "epochs": 2, "runs": 2}}, iris_train(2)
    ),
    "iris-photonic-hidden-3-runs-3": reruns(
        "iris-train", {"training": {**PHOTONIC, "hidden": 3, "epochs": 2, "runs": 3}}, iris_train(3)
    ),
    "iris-photonic-9x9-fab": reruns(
        "iris-train", {"devices": FAB_9X9, "training": {**PHOTONIC, "epochs": 2, "runs": 2}}, iris_train(2)
    ),
    # The MZI paths: one random phase per input MZI, and the legacy layout
    # probed with time-averaged noise.
    "characterize-random-mzi-phases": reruns(
        "characterize-devices", {"devices": {"random_mzi_phases": True}}, CHARACTERIZE
    ),
    "measure-matrix-legacy-noise": reruns(
        "measure-matrix",
        {"noise": {"enabled": True, "time_average": 3}, "topology": {"variant": "legacy_asymmetric"}},
        MEASURE,
    ),
    # The (1,1) ring of simulation_9x9 is aligned near zero heater power, so
    # its LUT ring window wraps onto the next resonance order.
    "sweep-scaling-9x9": reruns("sweep-scaling", {"devices": NINE}, SWEEP),
    # lut iris-train: a stacked hidden-3 program; 81 per-ring LUTs of a
    # spread 9x9 grid; and three-repeat time-averaged noise on a spread 4x4.
    "iris-lut-hidden-3-noise": reruns(
        "iris-train", {"noise": NOISE, "training": {"hidden": 3, "epochs": 2, "runs": 2}}, iris_train(2)
    ),
    "iris-lut-9x9-fab-noise": reruns(
        "iris-train",
        {"devices": FAB_9X9, "noise": NOISE, "training": {"epochs": 2, "runs": 2}},
        iris_train(2),
    ),
    "iris-lut-fab-time-average": reruns(
        "iris-train",
        {
            "devices": {"fabrication_sigma_nm": 0.02},
            "noise": {"enabled": True, "time_average": 3},
            "training": {"epochs": 2, "runs": 2},
        },
        iris_train(2),
    ),
}


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """64 training and 32 test digits from the benchmark's generator."""
    directory = tmp_path_factory.mktemp("digits")
    write_mnist_idx(directory, 0, 64, 32)
    return directory


def run_xbar(directory, row, out, hashseed):
    args = [row.experiment, "--out", str(out), *row.options]
    if row.config is not None:
        args += ["--config", "run.yaml"]
    env = {**os.environ, "PYTHONPATH": XBAR_PATH, "PYTHONHASHSEED": hashseed}
    return subprocess.run(
        [sys.executable, "-m", "xbar.cli", *args],
        cwd=directory,
        env=env,
        capture_output=True,
        text=True,
    )


def tree(directory):
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*"))


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
def test_cli_contract(row, tmp_path, synth):
    if isinstance(row.config, dict):
        # Unsorted: a row may mix int and str keys.
        (tmp_path / "run.yaml").write_text(yaml.safe_dump(row.config, sort_keys=False))
    elif row.config is not None:
        (tmp_path / "run.yaml").write_bytes(row.config)
    if row.setup is not None:
        row.setup(tmp_path, synth)
    written = tree(tmp_path)
    if row.error is not None:
        result = run_xbar(tmp_path, row, tmp_path / "out", "1")
        assert (result.returncode, result.stdout) == (1, ""), result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("xbar: error: ") and row.error in lines[0], lines[0]
        assert tree(tmp_path) == written
        return
    outputs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"run{hashseed}"
        result = run_xbar(tmp_path, row, out, hashseed)
        assert (result.returncode, result.stdout) == (0, f"{out / row.experiment}\n"), result.stderr
        files = {path.name: path.read_bytes() for path in (out / row.experiment).iterdir()}
        assert sorted(files) == sorted((*row.files, "manifest.json"))
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["config"]["out_dir"]
        outputs.append((files, manifest))
    assert outputs[0] == outputs[1]
