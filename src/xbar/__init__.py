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
    fsr_of,
    mzi_transmittance,
    ring_drop_through,
    sweep_spectrum,
    thermo_phase,
)
from .crossbar import (
    BACKWARD,
    FORWARD,
    CrossbarArray,
    CrossbarTopology,
    OpticalField,
    RingGrid,
    build_legacy_asymmetric,
    build_symmetric,
    path_loss_report,
)
from .compiler import (
    AffineEncoding,
    CompiledMatrix,
    MatrixCompiler,
    decode_output,
    encode_signed,
    equalize_peak_power,
)
from .lut import (
    CalibrationLUT,
    build_lut,
    compensate_asymmetry,
    lut_multiply,
)
from .noise import NoiseConfig, make_rng, perturb, time_average
from .backends import IdealBackend, LutBackend, PhotonicBackend, make_backend
from .nn import (
    CnnModel,
    MlpModel,
    TrainingConfig,
    im2col_convolve,
    mlp_forward,
    onchip_backprop_step,
    train_iris,
    train_mnist,
)
from .datasets import IrisDataset, MnistSubset, load_iris, load_mnist
from .config import RunConfig
from .experiments import run_experiment
