"""Run configuration: YAML schema, validation, presets wiring.

A run config is a small YAML document with five optional sections; every
field has a default, so an empty file, or one that holds only `experiment:
<name>`, is a valid file, and the CLI's experiment argument overrides the
file's. Unknown keys, a key given twice in one mapping and values of the
wrong type fail with a ConfigError when the config is read (typos should
not silently fall back to defaults, nor crash later).
Each experiment reads a known set of fields (`READS`); `validate` rejects a
field that the run does not read unless it keeps its default.

    experiment: iris-train        # required (or given on the command line)
    seed: 0
    out_dir: results
    devices:
      preset: experimental_4x4    # experimental_4x4 | simulation_9x9 | ideal
      n: 4                        # array size for the ideal preset (others: default or own size)
      fabrication_sigma_nm: 0.0   # per-ring resonance spread
      random_mzi_phases: false    # sample MZI initial phases
    topology:
      variant: symmetric          # symmetric | legacy_asymmetric
    noise:
      enabled: false
      relative_sigma: 0.02
      time_average: 1
    training:
      backend: lut                # ideal | photonic | lut
      optimizer: sgd              # sgd | adam
      learning_rate: 0.5
      epochs: 100
      batch_size: 1
      hidden: 4                   # Iris MLP hidden width
      runs: 4                     # iris-train's seeded runs
    datasets:
      iris_csv: null              # null -> packaged copy
      mnist_dir: null             # directory holding the IDX files
      mnist_train: 10000
      mnist_test: 1000

The `training` defaults are tuned for the Iris MLP, and `mnist-train` shares
them, but the CNN does not train at them: at batch 1 and rate 0.5, either
optimizer ends at 0.113 test accuracy (3 epochs of 512 synthetic digits).
The benchmark trains it with `optimizer: adam`, `learning_rate: 0.003` and
`batch_size: 16`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import yaml

from .datasets import MNIST_FILES, find_mnist_file, read_idx
from .errors import ConfigError
from .nn import IMAGE_SIZE, KERNEL_COUNT, KERNEL_SIZE, Adam, Sgd, iris_mlp_sizes
from .presets import PRESET_SIZES, PRESETS

# The fields each experiment reads, by dotted name; a section name stands for
# every field of that section. Two conditions narrow it (`RunConfig._unread_by`):
# training on the ideal backend reads no crossbar section, and noise that is
# off reads neither its sigma nor its averaging count.
_ARRAY = ("devices.preset", "devices.n", "devices.fabrication_sigma_nm", "topology")
_TRAINING = (
    "training.optimizer",
    "training.learning_rate",
    "training.epochs",
    "training.batch_size",
)
READS = {
    "characterize-devices": ("devices",),
    "measure-matrix": (*_ARRAY, "noise"),
    # Trains one model on the ideal backend, then infers on the photonic one.
    "iris-inference": ("datasets.iris_csv", *_TRAINING, "training.hidden", *_ARRAY, "noise"),
    "iris-train": ("datasets.iris_csv", "training", *_ARRAY, "noise"),
    "mnist-train": (
        "datasets.mnist_dir",
        "datasets.mnist_train",
        "datasets.mnist_test",
        "training.backend",
        *_TRAINING,
        *_ARRAY,
        "noise",
    ),
    "sweep-scaling": _ARRAY,
}
EXPERIMENTS = tuple(READS)


# Value types a field accepts, by its annotation. An int is a valid float;
# a bool is an int to Python but never a valid number here, and a float field
# takes no NaN or infinity.
_SCALAR_TYPES = {
    "str": str,
    "str | None": (str, type(None)),
    "int": int,
    "float": (int, float),
    "bool": bool,
}


def _finite(value) -> bool:
    """Whether a float field's value converts to a finite float; an int too
    large for a float does not. The field keeps the value as given."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _from_mapping(cls, data, where: str):
    """Instance of a config dataclass from a YAML mapping; `where` names it in errors."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'run config'}: expected a mapping")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where or 'run config'}: unknown keys {sorted(unknown, key=str)}")
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
        elif kind == "float" and not _finite(value):
            got = "an integer too large for a float" if isinstance(value, int) else repr(value)
            raise ConfigError(f"{name}: expected a finite float, got {got}")
        values[key] = value
    return cls(**values)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a key given twice in one mapping, a merged
    (`<<`) one included, which `yaml.safe_load` reads as its last value."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep=deep)
        keys = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node)
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark
                )
            keys.add(key)
        return mapping


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for part in fields(self):
            if part.type not in _SECTIONS:
                continue
            section = getattr(self, part.name)
            section.validate()
            for knob in fields(section):
                name, value = f"{part.name}.{knob.name}", getattr(section, knob.name)
                if value != knob.default and (run := self._unread_by(name)):
                    raise ConfigError(
                        f"{name} {value!r} is not read by {run}; "
                        f"leave it at its default {knob.default!r}"
                    )
        if self.topology.variant != "symmetric" and self.devices.preset != "experimental_4x4":
            raise ConfigError(
                f"topology.variant {self.topology.variant!r} is modeled for the "
                "experimental_4x4 preset only"
            )
        if self.experiment == "mnist-train" and self.datasets.mnist_dir is None:
            raise ConfigError("mnist-train requires datasets.mnist_dir pointing at the IDX files")
        # The run's programs must fit the crossbar: the widest matrix that a
        # training run programs, and a dark element in each Fig.-5 program.
        backend = "photonic" if self.experiment == "iris-inference" else self.training.backend
        run, what, needed = self.experiment, None, 0
        if self.experiment == "measure-matrix":
            what, needed = "a dark element in each program", 2
        elif self.experiment in ("iris-train", "iris-inference", "mnist-train") and backend != "ideal":
            run = f"{self.experiment} on the {backend} backend"
            if self.experiment == "mnist-train":
                what, needed = "its kernel matrix", max(KERNEL_COUNT, KERNEL_SIZE * KERNEL_SIZE)
            else:
                widths = iris_mlp_sizes(self.training.hidden)
                what, needed = f"its MLP widths {widths}", max(widths)
        if self.devices.array_size < needed:
            raise ConfigError(
                f"{run} needs an array of at least {needed}x{needed} for {what}; devices.preset "
                f"{self.devices.preset!r} gives {self.devices.array_size}x{self.devices.array_size}"
            )
        if self.experiment == "mnist-train":
            paths = {kind: find_mnist_file(self.datasets.mnist_dir, kind) for kind in MNIST_FILES}
            missing = [kind for kind, path in paths.items() if path is None]
            if missing:
                raise ConfigError(
                    f"datasets.mnist_dir {self.datasets.mnist_dir!r} holds no MNIST IDX file "
                    f"for {', '.join(missing)}"
                )
            for kind, path in paths.items():
                split, what = kind.split("_")
                count, head = read_idx(path, what, 0)
                if count < (wanted := getattr(self.datasets, f"mnist_{split}")):
                    raise ConfigError(
                        f"datasets.mnist_{split} {wanted} asks for more {what} than {path} "
                        f"holds ({count})"
                    )
                if what == "images" and head.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
                    rows, cols = head.shape[1:]
                    raise ConfigError(f"{path} holds {rows}x{cols} images; the CNN reads 28x28")
        return self

    def _unread_by(self, name: str) -> str | None:
        """The run, as an error names it, that does not read field `name`; None if it is read."""
        run, section = self.experiment, name.partition(".")[0]
        if not {name, section} & set(READS[run]):
            return run
        if (
            section in ("devices", "topology", "noise")
            and run in ("iris-train", "mnist-train")
            and self.training.backend == "ideal"
        ):
            return f"{run} on the ideal backend"
        if name in ("noise.relative_sigma", "noise.time_average") and not self.noise.enabled:
            return f"{run} with noise.enabled false"
        return None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _from_mapping(cls, data, "")

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.load(fh, Loader=_UniqueKeyLoader) or {}
        except yaml.YAMLError as exc:
            # The parser's message spans lines; the CLI reports one.
            raise ConfigError(f"{path}: invalid YAML ({' '.join(str(exc).split())})") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the run config ({exc.strerror or exc})") from None
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
