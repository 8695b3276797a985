"""Physics-level simulator and training harness for a symmetric microring
resonator optical crossbar performing forward (W x) and backward (W^T sigma)
matrix-vector products."""

__version__ = "0.1.0"

from .devices import (
    MziDevice,
    PhaseShifter,
    RingDevice,
    WavelengthGrid,
    couplings_for_q,
    sweep_spectrum,
)
from .crossbar import (
    BACKWARD,
    FORWARD,
    CrossbarArray,
    CrossbarTopology,
    RingGrid,
    build_crossbar,
)
from .compiler import (
    AffineEncoding,
    CompiledMatrix,
    MatrixCompiler,
    decode_output,
    encode_signed,
)
from .lut import (
    CalibrationLUT,
    LutStack,
    RingSetting,
    build_lut,
    lut_multiply_many,
)
from .noise import NoiseConfig, make_rng, perturb
from .backends import IdealBackend, LutBackend, PhotonicBackend, make_backend
from .nn import (
    CnnModel,
    MlpModel,
    train_iris,
    train_mnist,
)
from .presets import preset_array
from .datasets import IrisDataset, MnistSubset, load_iris, load_mnist
from .config import RunConfig, TrainingSection
from .experiments import run_experiment
