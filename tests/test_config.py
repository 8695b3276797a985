"""Run-config validation and manifest tests."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import write_idx

from xbar.cli import main
from xbar.config import EXPERIMENTS, DeviceSection, RunConfig
from xbar.errors import ConfigError, DataFormatError
from xbar.experiments import RUNNERS, run_experiment
from xbar.presets import PRESETS, preset_array

# The benchmark's workload table, imported read-only.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402


def test_config_hash_ignores_out_dir(tmp_path):
    a = RunConfig.from_dict({"experiment": "iris-train", "out_dir": str(tmp_path / "a")})
    b = RunConfig.from_dict({"experiment": "iris-train", "out_dir": str(tmp_path / "b")})
    c = RunConfig.from_dict({"experiment": "iris-train", "seed": 1, "out_dir": str(tmp_path / "a")})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.to_dict()["out_dir"] == str(tmp_path / "a")


def test_manifest_hash_is_the_same_in_two_directories(tmp_path):
    hashes = []
    for name in ("a", "b"):
        assert main(["measure-matrix", "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "measure-matrix" / "manifest.json").read_text())
        hashes.append(manifest["config_sha256"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize(
    "devices, backend",
    [
        ({}, "lut"),
        ({}, "photonic"),
        ({"preset": "ideal", "n": 4}, "photonic"),
    ],
)
def test_mnist_train_rejects_arrays_below_9x9(devices, backend):
    config = RunConfig.from_dict(
        {
            "experiment": "mnist-train",
            "devices": devices,
            "training": {"backend": backend},
            "datasets": {"mnist_dir": "mnist"},
        }
    )
    with pytest.raises(ConfigError, match="9x9"):
        config.validate()


@pytest.mark.parametrize(
    "devices, backend",
    [({"preset": "simulation_9x9"}, "photonic"), ({"preset": "ideal", "n": 9}, "lut"), ({}, "ideal")],
)
def test_mnist_train_accepts_arrays_that_fit(devices, backend, mnist_dir):
    config = RunConfig.from_dict(
        {
            "experiment": "mnist-train",
            "devices": devices,
            "training": {"backend": backend},
            "datasets": {"mnist_dir": str(mnist_dir)},
        }
    )
    config.validate()


def test_cli_rejects_mnist_train_on_default_preset(tmp_path, capsys):
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(yaml.safe_dump({"datasets": {"mnist_dir": str(tmp_path)}}))
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "9x9" in lines[0]
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize(
    "experiment, devices, training, ok",
    [
        ("iris-train", {}, {"hidden": 8}, False),
        ("iris-train", {}, {"backend": "photonic", "hidden": 5}, False),
        ("iris-inference", {}, {"hidden": 8}, False),
        # The ideal backend has no crossbar.
        ("iris-train", {}, {"backend": "ideal", "hidden": 8}, True),
        ("iris-train", {"preset": "simulation_9x9"}, {"hidden": 9}, True),
        ("iris-inference", {"preset": "simulation_9x9"}, {"hidden": 8}, True),
        ("iris-train", {"preset": "simulation_9x9"}, {"backend": "photonic", "hidden": 10}, False),
        # The 4 input features set the width when the hidden layer is narrower.
        ("iris-train", {"preset": "ideal", "n": 3}, {"hidden": 2}, False),
    ],
)
def test_iris_mlp_widths_must_fit_the_crossbar(experiment, devices, training, ok):
    config = RunConfig.from_dict({"experiment": experiment, "devices": devices, "training": training})
    if ok:
        config.validate()
        return
    hidden = training["hidden"]
    needed = max(4, hidden)
    with pytest.raises(
        ConfigError,
        match=rf"^{experiment} on the \w+ backend needs an array of at least {needed}x{needed} "
        rf"for its MLP widths \(4, {hidden}, 3\);",
    ):
        config.validate()


@pytest.mark.parametrize("experiment", ["iris-train", "iris-inference"])
def test_cli_rejects_a_hidden_layer_wider_than_the_crossbar_before_any_work(
    experiment, tmp_path, capsys
):
    config_path = tmp_path / "wide.yaml"
    config_path.write_text(yaml.safe_dump({"training": {"hidden": 8}}))
    out = tmp_path / "out"
    code = main([experiment, "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "8x8" in lines[0]
    assert not out.exists()  # rejected before any work


def test_mnist_train_requires_mnist_dir():
    config = RunConfig.from_dict(
        {"experiment": "mnist-train", "devices": {"preset": "simulation_9x9"}}
    )
    with pytest.raises(ConfigError, match="datasets.mnist_dir"):
        config.validate()


def test_cli_rejects_mnist_train_without_mnist_dir_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(
        yaml.safe_dump({"devices": {"preset": "simulation_9x9"}, "training": {"backend": "photonic"}})
    )
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "datasets.mnist_dir" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "remove, missing",
    [
        (("train", "t10k"), "train_images, train_labels, test_images, test_labels"),
        (("t10k",), "test_images, test_labels"),
    ],
)
def test_mnist_train_requires_the_idx_files(mnist_dir, remove, missing):
    for prefix in remove:
        for path in mnist_dir.glob(f"{prefix}-*"):
            path.unlink()
    config = RunConfig.from_dict(
        {
            "experiment": "mnist-train",
            "devices": {"preset": "simulation_9x9"},
            "datasets": {"mnist_dir": str(mnist_dir)},
        }
    )
    with pytest.raises(ConfigError, match=f"holds no MNIST IDX file for {missing}$"):
        config.validate()


def test_cli_rejects_mnist_train_on_an_empty_mnist_dir_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "devices": {"preset": "simulation_9x9"},
                "training": {"backend": "photonic"},
                "datasets": {"mnist_dir": str(tmp_path)},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "MNIST IDX" in lines[0]
    assert not out.exists()


def write_mnist_pair(directory, prefix, images, labels, suffix=""):
    """Overwrite one split of an MNIST directory with an IDX pair."""
    for path in directory.glob(f"{prefix}-*"):
        path.unlink()
    write_idx(directory / f"{prefix}-images-idx3-ubyte{suffix}", images)
    write_idx(directory / f"{prefix}-labels-idx1-ubyte{suffix}", labels)


def mnist_config(mnist_dir, **counts):
    return RunConfig.from_dict(
        {
            "experiment": "mnist-train",
            "devices": {"preset": "simulation_9x9"},
            "datasets": {"mnist_dir": str(mnist_dir), **counts},
        }
    )


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_mnist_train_rejects_more_digits_than_the_idx_files_hold(mnist_dir, suffix):
    # 6 test images, but only 5 test labels.
    write_mnist_pair(mnist_dir, "t10k", np.zeros((6, 28, 28)), np.zeros(5), suffix)
    mnist_config(mnist_dir, mnist_test=5).validate()
    labels = r"^datasets.mnist_test 6 asks for more labels than .*t10k-labels.* holds \(5\)$"
    with pytest.raises(ConfigError, match=labels):
        mnist_config(mnist_dir, mnist_test=6).validate()
    images = r"^datasets.mnist_test 7 asks for more images than .*t10k-images.* holds \(6\)$"
    with pytest.raises(ConfigError, match=images):
        mnist_config(mnist_dir, mnist_test=7).validate()
    with pytest.raises(ConfigError, match=r"^datasets.mnist_train 10001 asks for more images "):
        mnist_config(mnist_dir, mnist_train=10001, mnist_test=5).validate()


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_mnist_train_rejects_images_that_are_not_28x28(mnist_dir, suffix):
    write_mnist_pair(mnist_dir, "t10k", np.zeros((1000, 32, 32)), np.zeros(1000), suffix)
    message = r"t10k-images-idx3-ubyte.* holds 32x32 images; the CNN reads 28x28$"
    with pytest.raises(ConfigError, match=message):
        mnist_config(mnist_dir).validate()


@pytest.mark.parametrize(
    "images, labels, message",
    [
        ((10000, 28, 28), 9999, "datasets.mnist_train 10000 asks for more labels"),
        ((10000, 32, 32), 10000, "holds 32x32 images"),
    ],
)
def test_cli_rejects_unusable_mnist_files_before_any_work(
    tmp_path, capsys, mnist_dir, images, labels, message
):
    write_mnist_pair(mnist_dir, "train", np.zeros(images), np.zeros(labels), ".gz")
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "devices": {"preset": "simulation_9x9"},
                "training": {"backend": "photonic"},
                "datasets": {"mnist_dir": str(mnist_dir)},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and message in lines[0]
    assert not out.exists()


def test_cli_run_that_fails_after_validation_leaves_no_output(tmp_path, capsys, mnist_dir):
    # The header promises 64 digits, so validation passes; the body is cut
    # short, so reading the digits fails once the run has started.
    write_mnist_pair(mnist_dir, "train", np.zeros((64, 28, 28)), np.zeros(64))
    images = mnist_dir / "train-images-idx3-ubyte"
    images.write_bytes(images.read_bytes()[:-100])
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "devices": {"preset": "simulation_9x9"},
                "training": {"backend": "photonic"},
                "datasets": {"mnist_dir": str(mnist_dir), "mnist_train": 64, "mnist_test": 32},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "truncated" in lines[0]
    assert not out.exists()


# A config that cannot be read, or an output path below a regular file:
# (what is written at "config", the --out path under tmp_path, what the one
# error line must name).
UNREADABLE_RUNS = {
    "config is a directory": (None, "out", "Is a directory"),
    "config not UTF-8": (b"seed: 1\ntraining:\n  epochs: \xff\xfe\n", "out", "not UTF-8"),
    "config invalid YAML": (b"training: [a\n  b: }\n", "out", "invalid YAML"),
    "out below a file": (b"{}\n", "config/out", "Not a directory"),
}


@pytest.mark.parametrize("case", list(UNREADABLE_RUNS))
def test_an_unreadable_config_or_output_path_is_one_error_line(case, tmp_path, capsys):
    content, out, message = UNREADABLE_RUNS[case]
    config_path = tmp_path / "config"
    if content is None:
        config_path.mkdir()
    else:
        config_path.write_bytes(content)
    code = main(["iris-train", "--config", str(config_path), "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and message in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config"]


def test_a_config_that_cannot_be_read_raises_config_error_naming_it(tmp_path):
    for path in (tmp_path, tmp_path / "missing.yaml"):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read the run config"):
            RunConfig.from_yaml(path)


def test_a_failed_run_keeps_an_output_directory_that_was_there(tmp_path, mnist_dir):
    write_mnist_pair(mnist_dir, "train", np.zeros((64, 28, 28)), np.zeros(64))
    images = mnist_dir / "train-images-idx3-ubyte"
    images.write_bytes(images.read_bytes()[:-100])
    config = mnist_config(mnist_dir, mnist_train=64, mnist_test=32)
    out = tmp_path / "out"
    (out / "kept").mkdir(parents=True)
    config.out_dir = str(out)
    with pytest.raises(DataFormatError):
        run_experiment(config)
    assert sorted(p.name for p in out.iterdir()) == ["kept"]


@pytest.mark.parametrize(
    "data, field",
    [
        ({"training": {"epochs": "ten"}}, "training.epochs"),
        ({"seed": "abc"}, "seed"),
        ({"devices": {"n": "4"}}, "devices.n"),
        ({"training": {"runs": True}}, "training.runs"),
        ({"noise": {"relative_sigma": False}}, "noise.relative_sigma"),
        ({"noise": {"enabled": 1}}, "noise.enabled"),
        ({"datasets": {"iris_csv": 3}}, "datasets.iris_csv"),
        ({"out_dir": None}, "out_dir"),
        ({"devices": ["ideal"]}, "devices"),
        ({"training": {"learning_rate": float("nan")}}, "training.learning_rate"),
        ({"training": {"learning_rate": float("inf")}}, "training.learning_rate"),
        ({"devices": {"fabrication_sigma_nm": float("nan")}}, "devices.fabrication_sigma_nm"),
        ({"noise": {"relative_sigma": float("nan")}}, "noise.relative_sigma"),
        ({"noise": {"relative_sigma": -float("inf")}}, "noise.relative_sigma"),
        ({"training": {"learning_rate": 10**400}}, "training.learning_rate"),
        ({"devices": {"fabrication_sigma_nm": 10**400}}, "devices.fabrication_sigma_nm"),
    ],
)
def test_wrong_value_types_raise_config_error(data, field):
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        RunConfig.from_dict({"experiment": "iris-train", **data})


def test_int_is_accepted_for_float_fields():
    config = RunConfig.from_dict({"training": {"learning_rate": 1}, "datasets": {"iris_csv": None}})
    assert config.training.learning_rate == 1



def test_legacy_topology_is_rejected_off_the_4x4_preset():
    config = RunConfig.from_dict(
        {
            "experiment": "measure-matrix",
            "devices": {"preset": "simulation_9x9"},
            "topology": {"variant": "legacy_asymmetric"},
        }
    )
    with pytest.raises(ConfigError, match="experimental_4x4"):
        config.validate()


@pytest.mark.parametrize(
    "config, args",
    [
        ({"training": {"epochs": "ten"}}, []),
        ({"seed": "abc"}, []),
        ({"devices": {"preset": "ideal", "n": "4"}}, []),
        ({"training": {"epochs": True}}, []),
        ({"devices": {"preset": "ideal"}, "topology": {"variant": "legacy_asymmetric"}}, []),
        ({"seed": -1}, []),
        ({}, ["--seed", "-1"]),
        ({"training": {"learning_rate": float("nan")}}, []),
        ({"devices": {"fabrication_sigma_nm": float("nan")}}, []),
        ({"noise": {"enabled": True, "relative_sigma": float("inf")}}, []),
        ({"training": {"learning_rate": 10**400}}, []),
        ({"devices": {"fabrication_sigma_nm": 10**400}}, []),
        ({"devices": {"preset": "ideal", "n": 1}}, []),
    ],
)
def test_cli_reports_a_bad_config_in_one_line_before_any_work(tmp_path, capsys, config, args):
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    code = main(["measure-matrix", "--config", str(config_path), "--out", str(out), *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:")
    assert not out.exists()


@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "characterize-devices"])
def test_random_mzi_phases_is_rejected_outside_characterize_devices(experiment):
    config = RunConfig.from_dict(
        {"experiment": experiment, "devices": {"random_mzi_phases": True}}
    )
    with pytest.raises(ConfigError, match="random_mzi_phases"):
        config.validate()


def test_random_mzi_phases_is_accepted_by_characterize_devices():
    RunConfig.from_dict(
        {"experiment": "characterize-devices", "devices": {"random_mzi_phases": True}}
    ).validate()


def test_cli_rejects_random_mzi_phases_outside_characterize_devices(tmp_path, capsys):
    config_path = tmp_path / "phases.yaml"
    config_path.write_text(yaml.safe_dump({"devices": {"random_mzi_phases": True}}))
    out = tmp_path / "out"
    code = main(["iris-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:")
    assert "random_mzi_phases" in lines[0]
    assert not out.exists()  # rejected before any work


def test_mnist_train_rejects_a_non_default_hidden_width(mnist_dir):
    data = {
        "experiment": "mnist-train",
        "devices": {"preset": "simulation_9x9"},
        "datasets": {"mnist_dir": str(mnist_dir)},
    }
    RunConfig.from_dict({**data, "training": {"hidden": 4}}).validate()
    with pytest.raises(ConfigError, match="^training.hidden 8 is not read by mnist-train;"):
        RunConfig.from_dict({**data, "training": {"hidden": 8}}).validate()


def test_cli_rejects_hidden_on_mnist_train_before_any_work(tmp_path, capsys, mnist_dir):
    config_path = tmp_path / "mnist.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "devices": {"preset": "simulation_9x9"},
                "training": {"backend": "photonic", "hidden": 8},
                "datasets": {"mnist_dir": str(mnist_dir)},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["mnist-train", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "training.hidden" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["mnist-train", "iris-inference"])
def test_runs_is_rejected_where_the_experiment_trains_one_model(experiment, mnist_dir):
    data = {"experiment": experiment, "devices": {"preset": "simulation_9x9"}}
    if experiment == "mnist-train":
        data["datasets"] = {"mnist_dir": str(mnist_dir)}
    RunConfig.from_dict({**data, "training": {"runs": 4}}).validate()
    with pytest.raises(ConfigError, match=f"^training.runs 2 is not read by {experiment};"):
        RunConfig.from_dict({**data, "training": {"runs": 2}}).validate()


def test_iris_train_accepts_any_run_count():
    RunConfig.from_dict({"experiment": "iris-train", "training": {"runs": 2}}).validate()


def test_cli_rejects_runs_on_iris_inference_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "inference.yaml"
    config_path.write_text(yaml.safe_dump({"training": {"runs": 1}}))
    out = tmp_path / "out"
    code = main(["iris-inference", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "training.runs" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "devices, ok",
    [
        ({"preset": "experimental_4x4", "n": 4}, True),
        ({"preset": "experimental_4x4", "n": 9}, False),
        ({"preset": "simulation_9x9"}, True),
        ({"preset": "simulation_9x9", "n": 9}, True),
        ({"preset": "simulation_9x9", "n": 5}, False),
        ({"preset": "ideal", "n": 7}, True),
    ],
)
def test_n_is_rejected_where_the_preset_fixes_another_size(devices, ok):
    config = RunConfig.from_dict({"experiment": "measure-matrix", "devices": devices})
    if ok:
        config.validate()
    else:
        with pytest.raises(ConfigError, match=f"devices.n {devices['n']} .*{devices['preset']}"):
            config.validate()


def test_measure_matrix_needs_a_dark_element_in_each_program(tmp_path):
    """Every Fig.-5 program on a 1x1 array is [[1]], with no dark element
    to summarize; a 2x2 array runs."""
    config = RunConfig.from_dict({"experiment": "measure-matrix", "devices": {"preset": "ideal", "n": 1}})
    message = (
        "measure-matrix needs an array of at least 2x2 for a dark element in each program; "
        "devices.preset 'ideal' gives 1x1"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.validate()
    config = RunConfig.from_dict(
        {"experiment": "measure-matrix", "out_dir": str(tmp_path), "devices": {"preset": "ideal", "n": 2}}
    )
    rows = (run_experiment(config) / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["identity", "anti_diagonal", "cyclic_shift"]
    assert all(np.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


def test_cli_rejects_n_on_a_fixed_size_preset_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "preset.yaml"
    config_path.write_text(yaml.safe_dump({"devices": {"preset": "experimental_4x4", "n": 9}}))
    out = tmp_path / "out"
    code = main(["measure-matrix", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "devices.n" in lines[0]
    assert not out.exists()


def test_iris_inference_rejects_a_non_default_backend():
    data = {"experiment": "iris-inference"}
    RunConfig.from_dict({**data, "training": {"backend": "lut"}}).validate()
    for backend in ("ideal", "photonic"):
        with pytest.raises(ConfigError, match=f"training.backend '{backend}' .*iris-inference"):
            RunConfig.from_dict({**data, "training": {"backend": backend}}).validate()
    # iris-train reads the backend.
    RunConfig.from_dict({"experiment": "iris-train", "training": {"backend": "photonic"}}).validate()


@pytest.mark.parametrize("preset", PRESETS)
def test_array_size_is_the_size_the_preset_builds(preset):
    devices = DeviceSection(preset=preset, n=DeviceSection.n if preset != "ideal" else 6)
    devices.validate()
    assert preset_array(preset, n=devices.n).n == devices.array_size


def test_cli_rejects_a_backend_on_iris_inference_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "inference.yaml"
    config_path.write_text(yaml.safe_dump({"training": {"backend": "photonic"}}))
    out = tmp_path / "out"
    code = main(["iris-inference", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("xbar: error:") and "training.backend" in lines[0]
    assert not out.exists()


# (experiment, config sections, the error's "<field> <value> is not read by <run>"),
# written out by hand rather than derived from config.READS.
CHARACTERIZE = "is not read by characterize-devices"
IDEAL_IRIS = "is not read by iris-train on the ideal backend"
IDEAL_MNIST = "is not read by mnist-train on the ideal backend"
NOISE_OFF = "with noise.enabled false"
UNREAD = [
    ("characterize-devices", {"noise": {"enabled": True}}, f"noise.enabled True {CHARACTERIZE}"),
    ("characterize-devices", {"training": {"epochs": 3}}, f"training.epochs 3 {CHARACTERIZE}"),
    (
        "characterize-devices",
        {"topology": {"variant": "legacy_asymmetric"}},
        f"topology.variant 'legacy_asymmetric' {CHARACTERIZE}",
    ),
    (
        "characterize-devices",
        {"datasets": {"mnist_train": 64}},
        f"datasets.mnist_train 64 {CHARACTERIZE}",
    ),
    (
        "measure-matrix",
        {"training": {"hidden": 8}},
        "training.hidden 8 is not read by measure-matrix",
    ),
    (
        "measure-matrix",
        {"datasets": {"iris_csv": "iris.csv"}},
        "datasets.iris_csv 'iris.csv' is not read by measure-matrix",
    ),
    (
        "measure-matrix",
        {"devices": {"random_mzi_phases": True}},
        "devices.random_mzi_phases True is not read by measure-matrix",
    ),
    (
        "sweep-scaling",
        {"noise": {"enabled": True}},
        "noise.enabled True is not read by sweep-scaling",
    ),
    (
        "sweep-scaling",
        {"training": {"backend": "photonic"}},
        "training.backend 'photonic' is not read by sweep-scaling",
    ),
    (
        "iris-inference",
        {"datasets": {"mnist_test": 10}},
        "datasets.mnist_test 10 is not read by iris-inference",
    ),
    ("iris-inference", {"training": {"runs": 2}}, "training.runs 2 is not read by iris-inference"),
    (
        "iris-inference",
        {"training": {"backend": "ideal"}},
        "training.backend 'ideal' is not read by iris-inference",
    ),
    (
        "iris-train",
        {"datasets": {"mnist_dir": "mnist"}},
        "datasets.mnist_dir 'mnist' is not read by iris-train",
    ),
    (
        "iris-train",
        {"training": {"backend": "ideal"}, "datasets": {"mnist_train": 64}},
        "datasets.mnist_train 64 is not read by iris-train",
    ),
    ("mnist-train", {"training": {"hidden": 8}}, "training.hidden 8 is not read by mnist-train"),
    (
        "mnist-train",
        {"training": {"backend": "ideal"}, "datasets": {"iris_csv": "missing.csv"}},
        "datasets.iris_csv 'missing.csv' is not read by mnist-train",
    ),
    # Training on the ideal backend reads no crossbar section.
    (
        "iris-train",
        {"training": {"backend": "ideal"}, "devices": {"preset": "simulation_9x9"}},
        f"devices.preset 'simulation_9x9' {IDEAL_IRIS}",
    ),
    (
        "iris-train",
        {"training": {"backend": "ideal"}, "topology": {"variant": "legacy_asymmetric"}},
        f"topology.variant 'legacy_asymmetric' {IDEAL_IRIS}",
    ),
    (
        "iris-train",
        {"training": {"backend": "ideal"}, "noise": {"enabled": True}},
        f"noise.enabled True {IDEAL_IRIS}",
    ),
    (
        "mnist-train",
        {"training": {"backend": "ideal"}, "devices": {"fabrication_sigma_nm": 0.02}},
        f"devices.fabrication_sigma_nm 0.02 {IDEAL_MNIST}",
    ),
    (
        "mnist-train",
        {"training": {"backend": "ideal"}, "noise": {"enabled": True}},
        f"noise.enabled True {IDEAL_MNIST}",
    ),
    # Noise that is off reads neither its sigma nor its averaging count.
    (
        "iris-train",
        {"training": {"backend": "photonic"}, "noise": {"relative_sigma": 0.3}},
        f"noise.relative_sigma 0.3 is not read by iris-train {NOISE_OFF}",
    ),
    (
        "iris-train",
        {"training": {"backend": "photonic"}, "noise": {"time_average": 4}},
        f"noise.time_average 4 is not read by iris-train {NOISE_OFF}",
    ),
    (
        "measure-matrix",
        {"noise": {"time_average": 3}},
        f"noise.time_average 3 is not read by measure-matrix {NOISE_OFF}",
    ),
    (
        "mnist-train",
        {"devices": {"preset": "simulation_9x9"}, "noise": {"relative_sigma": 0.1}},
        f"noise.relative_sigma 0.1 is not read by mnist-train {NOISE_OFF}",
    ),
]


def _with_mnist_dir(experiment, data, mnist_dir):
    """Config mapping of `data`; mnist-train gets IDX files, and a 9x9 array off `ideal`."""
    config = {"experiment": experiment, **data}
    if experiment == "mnist-train":
        config["datasets"] = {"mnist_dir": str(mnist_dir), **data.get("datasets", {})}
        if data.get("training", {}).get("backend") != "ideal":
            config["devices"] = {"preset": "simulation_9x9", **data.get("devices", {})}
    return config


@pytest.mark.parametrize("experiment, data, message", UNREAD)
def test_a_field_the_run_does_not_read_must_keep_its_default(experiment, data, message, mnist_dir):
    config = RunConfig.from_dict(_with_mnist_dir(experiment, data, mnist_dir))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}; leave it at its default "):
        config.validate()


@pytest.mark.parametrize(
    "experiment, data",
    [
        ("characterize-devices", {"devices": {"preset": "ideal", "fabrication_sigma_nm": 0.02}}),
        ("measure-matrix", {"noise": {"enabled": True, "relative_sigma": 0.1, "time_average": 3}}),
        ("sweep-scaling", {"devices": {"preset": "ideal", "n": 5}}),
        ("sweep-scaling", {"topology": {"variant": "legacy_asymmetric"}}),
        ("iris-inference", {"noise": {"enabled": True}, "training": {"hidden": 3, "epochs": 3}}),
        ("iris-inference", {"datasets": {"iris_csv": "iris.csv"}, "devices": {"preset": "ideal"}}),
        ("iris-inference", {"topology": {"variant": "legacy_asymmetric"}}),
        ("iris-train", {"training": {"backend": "photonic", "runs": 2}, "noise": {"enabled": True}}),
        ("iris-train", {"training": {"backend": "ideal", "hidden": 8, "optimizer": "adam"}}),
        ("mnist-train", {"training": {"backend": "ideal", "batch_size": 16}}),
        ("mnist-train", {"noise": {"enabled": True}, "devices": {"fabrication_sigma_nm": 0.02}}),
    ],
)
def test_fields_the_run_reads_may_differ_from_their_defaults(experiment, data, mnist_dir):
    RunConfig.from_dict(_with_mnist_dir(experiment, data, mnist_dir)).validate()


def test_cli_rejects_an_unread_field_in_one_line_before_any_work(tmp_path, capsys):
    config_path = tmp_path / "unread.yaml"
    config_path.write_text(yaml.safe_dump({"noise": {"enabled": True}}))
    out = tmp_path / "out"
    code = main(["characterize-devices", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("xbar: error: noise.enabled True is not read by characterize-devices")
    assert not out.exists()


def test_every_experiment_has_a_runner():
    assert set(RUNNERS) == set(EXPERIMENTS)


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_benchmark_workload_config_validates(name, smoke, tmp_path, mnist_dir):
    workload = workloads.WORKLOADS[name]
    mnist = str(mnist_dir) if workload.is_mnist else None
    data = workload.run_config(0, str(tmp_path), mnist, smoke)
    RunConfig.from_dict(data).validate()
