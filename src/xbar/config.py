"""Run configuration: YAML schema, validation, presets wiring.

A run config is a small YAML document with five optional sections; every
field has a default so a bare `experiment:` line is a valid file. Unknown
keys and values of the wrong type fail with a ConfigError when the config is
read (typos should not silently fall back to defaults, nor crash later).

    experiment: iris-train        # required (or given on the command line)
    seed: 0
    out_dir: results
    devices:
      preset: experimental_4x4    # experimental_4x4 | simulation_9x9 | ideal
      n: 4                        # array size for the ideal preset (others: default or own size)
      fabrication_sigma_nm: 0.0   # per-ring resonance spread
      random_mzi_phases: false    # sample MZI initial phases (characterize-devices only)
    topology:
      variant: symmetric          # symmetric | legacy_asymmetric
    noise:
      enabled: false
      relative_sigma: 0.02
      time_average: 1
    training:
      backend: lut                # ideal | photonic | lut (iris-inference: default only)
      optimizer: sgd              # sgd | adam
      learning_rate: 0.5
      epochs: 100
      batch_size: 1
      hidden: 4                   # Iris MLP hidden width (mnist-train: default only)
      runs: 4                     # iris-train's seeded runs (others: default only)
    datasets:
      iris_csv: null              # null -> packaged copy
      mnist_dir: null             # directory holding the IDX files
      mnist_train: 10000
      mnist_test: 1000
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import yaml

from .datasets import MNIST_FILES, find_mnist_file
from .errors import ConfigError
from .nn import KERNEL_COUNT, KERNEL_SIZE, Adam, Sgd
from .presets import PRESET_SIZES, PRESETS

EXPERIMENTS = (
    "characterize-devices",
    "measure-matrix",
    "iris-inference",
    "iris-train",
    "mnist-train",
    "sweep-scaling",
)


# Value types a field accepts, by its annotation. An int is a valid float;
# a bool is an int to Python but never a valid number here.
_SCALAR_TYPES = {
    "str": str,
    "str | None": (str, type(None)),
    "int": int,
    "float": (int, float),
    "bool": bool,
}


def _from_mapping(cls, data, where: str):
    """Instance of a config dataclass from a YAML mapping; `where` names it in errors."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'run config'}: expected a mapping")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where or 'run config'}: unknown keys {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        name = f"{where}.{key}" if where else key
        kind = types[key]
        if kind in _SECTIONS:
            value = _from_mapping(_SECTIONS[kind], value, name)
        elif not isinstance(value, _SCALAR_TYPES[kind]) or (
            isinstance(value, bool) and kind != "bool"
        ):
            raise ConfigError(f"{name}: expected {kind}, got {value!r}")
        values[key] = value
    return cls(**values)


@dataclass
class DeviceSection:
    preset: str = "experimental_4x4"
    n: int = 4
    fabrication_sigma_nm: float = 0.0
    random_mzi_phases: bool = False

    @property
    def array_size(self) -> int:
        """Crossbar size n that the preset builds."""
        return PRESET_SIZES.get(self.preset, self.n)

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"devices.preset: unknown preset {self.preset!r}")
        if self.n < 1:
            raise ConfigError("devices.n must be >= 1")
        if self.n not in (DeviceSection.n, self.array_size):
            raise ConfigError(
                f"devices.n {self.n} sizes the ideal preset only; devices.preset "
                f"{self.preset!r} is {self.array_size}x{self.array_size}"
            )
        if self.fabrication_sigma_nm < 0:
            raise ConfigError("devices.fabrication_sigma_nm must be >= 0")


@dataclass
class TopologySection:
    variant: str = "symmetric"

    def validate(self):
        if self.variant not in ("symmetric", "legacy_asymmetric"):
            raise ConfigError(f"topology.variant: unknown variant {self.variant!r}")


@dataclass
class NoiseSection:
    enabled: bool = False
    relative_sigma: float = 0.02
    time_average: int = 1

    def validate(self):
        if self.relative_sigma < 0:
            raise ConfigError("noise.relative_sigma must be >= 0")
        if self.time_average < 1:
            raise ConfigError("noise.time_average must be >= 1")


@dataclass
class TrainingSection:
    backend: str = "lut"
    optimizer: str = "sgd"
    learning_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 1
    hidden: int = 4
    runs: int = 4

    def make_optimizer(self):
        return Sgd(self.learning_rate) if self.optimizer == "sgd" else Adam(self.learning_rate)

    def validate(self):
        if self.backend not in ("ideal", "photonic", "lut"):
            raise ConfigError(f"training.backend: unknown backend {self.backend!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"training.optimizer: unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ConfigError("training.learning_rate must be > 0")
        for name in ("epochs", "batch_size", "hidden", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"training.{name} must be >= 1")


@dataclass
class DatasetSection:
    iris_csv: str | None = None
    mnist_dir: str | None = None
    mnist_train: int = 10000
    mnist_test: int = 1000

    def validate(self):
        if self.mnist_train < 1 or self.mnist_test < 1:
            raise ConfigError("datasets.mnist_train/mnist_test must be >= 1")


@dataclass
class RunConfig:
    experiment: str = ""
    seed: int = 0
    out_dir: str = "results"
    devices: DeviceSection = field(default_factory=DeviceSection)
    topology: TopologySection = field(default_factory=TopologySection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    datasets: DatasetSection = field(default_factory=DatasetSection)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}; got {self.experiment!r}"
            )
        for section in (self.devices, self.topology, self.noise, self.training, self.datasets):
            section.validate()
        if self.devices.random_mzi_phases and self.experiment != "characterize-devices":
            raise ConfigError(
                "devices.random_mzi_phases is modeled by characterize-devices only; "
                f"{self.experiment} would ignore it"
            )
        if self.topology.variant != "symmetric" and self.devices.preset != "experimental_4x4":
            raise ConfigError(
                f"topology.variant {self.topology.variant!r} is modeled for the "
                "experimental_4x4 preset only"
            )
        if self.experiment == "mnist-train" and self.training.hidden != TrainingSection.hidden:
            raise ConfigError(
                f"training.hidden {self.training.hidden} sets the Iris MLP width; "
                "mnist-train's CNN is fixed and would ignore it"
            )
        if (
            self.experiment in ("mnist-train", "iris-inference")
            and self.training.runs != TrainingSection.runs
        ):
            raise ConfigError(
                f"training.runs {self.training.runs} sets the iris-train run count; "
                f"{self.experiment} trains one model and would ignore it"
            )
        if self.experiment == "iris-inference" and self.training.backend != TrainingSection.backend:
            raise ConfigError(
                f"training.backend {self.training.backend!r} is ignored by iris-inference, "
                "which trains on the ideal backend and infers on the photonic one"
            )
        if self.experiment == "mnist-train" and self.datasets.mnist_dir is None:
            raise ConfigError("mnist-train requires datasets.mnist_dir pointing at the IDX files")
        if self.experiment == "mnist-train" and self.training.backend != "ideal":
            needed = max(KERNEL_COUNT, KERNEL_SIZE * KERNEL_SIZE)
            if self.devices.array_size < needed:
                raise ConfigError(
                    f"mnist-train on the {self.training.backend} backend needs an array of at "
                    f"least {needed}x{needed} for its kernel matrix; devices.preset "
                    f"{self.devices.preset!r} gives {self.devices.array_size}x{self.devices.array_size}"
                )
        if self.experiment == "mnist-train":
            missing = [
                kind for kind in MNIST_FILES if find_mnist_file(self.datasets.mnist_dir, kind) is None
            ]
            if missing:
                raise ConfigError(
                    f"datasets.mnist_dir {self.datasets.mnist_dir!r} holds no MNIST IDX file "
                    f"for {', '.join(missing)}"
                )
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _from_mapping(cls, data, "")

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: invalid YAML ({exc})") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """SHA-256 of the experiment's settings; where it is written (out_dir) is excluded."""
        settings = self.to_dict()
        del settings["out_dir"]
        canonical = json.dumps(settings, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


_SECTIONS = {
    section.__name__: section
    for section in (DeviceSection, TopologySection, NoiseSection, TrainingSection, DatasetSection)
}
