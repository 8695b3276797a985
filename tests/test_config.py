"""Run-config validation and manifest tests."""

import json

import pytest
import yaml

from xbar.cli import main
from xbar.config import RunConfig
from xbar.errors import ConfigError


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
        {"experiment": "mnist-train", "devices": devices, "training": {"backend": backend}}
    )
    with pytest.raises(ConfigError, match="9x9"):
        config.validate()


@pytest.mark.parametrize(
    "devices, backend",
    [({"preset": "simulation_9x9"}, "photonic"), ({"preset": "ideal", "n": 9}, "lut"), ({}, "ideal")],
)
def test_mnist_train_accepts_arrays_that_fit(devices, backend):
    config = RunConfig.from_dict(
        {"experiment": "mnist-train", "devices": devices, "training": {"backend": backend}}
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
