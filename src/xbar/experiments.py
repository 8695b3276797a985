"""Experiment orchestration: each run writes CSV results plus a manifest.

Result files use a fixed float format so a rerun with the same config and
seed is byte-identical on the deterministic backends. The manifest echoes
the full config, its hash, and library versions.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .backends import IdealBackend, PhotonicBackend, make_backend
from .compiler import MatrixCompiler
from .config import RunConfig
from .crossbar import BACKWARD, FORWARD, CrossbarArray, build_crossbar
from .datasets import load_iris, load_mnist_subset
from .devices import sweep_spectrum
from .lut import build_lut
from .nn import MlpRunner, train_iris, train_mnist
from .noise import NoiseConfig, make_rng, perturb
from .presets import preset_array, ring_for_q

FLOAT_FMT = ".17g"


def _fmt(value) -> str:
    return format(float(value), FLOAT_FMT)


def write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(out_dir: Path, config: RunConfig) -> None:
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_sha256": config.config_hash(),
        "versions": {
            "xbar": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_array(config: RunConfig) -> CrossbarArray:
    dev = config.devices
    return preset_array(
        dev.preset,
        dev.n,
        variant=config.topology.variant,
        fabrication_sigma_nm=dev.fabrication_sigma_nm,
        seed=config.seed,
    )


def noise_config(config: RunConfig, run: int = 0) -> NoiseConfig | None:
    """Measurement noise of training run `run`; each run draws its own stream."""
    if not config.noise.enabled:
        return None
    return NoiseConfig(relative_sigma=config.noise.relative_sigma, seed=config.seed, stream=run)


# -- individual experiments ------------------------------------------------------


def run_characterize_devices(config: RunConfig, out_dir: Path) -> None:
    array = build_array(config)
    n = array.n
    rng = make_rng(config.seed, stream=7)
    # MZI fringes of every input port in both directions, optionally with
    # fabricated random phases drawn port by port.
    mzi = array.mzi
    for direction in (FORWARD, BACKWARD):
        for port in range(n):
            dev = mzi
            if config.devices.random_mzi_phases:
                phase = float(rng.uniform(0.0, 2.0 * np.pi))
                dev = replace(mzi, shifter=replace(mzi.shifter, initial_phase_rad=phase))
            powers = np.linspace(0.0, 2.0 * dev.shifter.power_per_pi_mw, 401)
            t = dev.transmittance(powers)
            write_csv(
                out_dir / f"mzi_{direction}_in{port + 1}.csv",
                "power_mw,transmittance",
                zip(powers, t),
            )
    # Ring spectra around the reference, no heater power applied.
    ref = array.channels.reference_nm
    summary = []
    for i in range(n):
        for j in range(n):
            ring = array.ring_grid.rings[i][j]
            wl, t_drop, t_through = sweep_spectrum(ring, ref - 3.3, ref + 3.3, 4001)
            write_csv(
                out_dir / f"ring_{i + 1}_{j + 1}.csv",
                "wavelength_nm,t_drop,t_through",
                zip(wl, t_drop, t_through),
            )
            summary.append(
                (
                    f"ring_{i + 1}_{j + 1}",
                    ring.fsr_nm(),
                    ring.quality_factor(),
                    ring.resonance_wavelength_nm(0.0),
                )
            )
    write_csv(
        out_dir / "ring_summary.csv",
        "device,fsr_nm,quality_factor,resonance_nm",
        summary,
    )


FIG5_PROGRAMS = {
    "identity": lambda n: np.eye(n),
    "anti_diagonal": lambda n: np.eye(n)[::-1],
    "cyclic_shift": lambda n: np.roll(np.eye(n), 1, axis=1),
}


def run_measure_matrix(config: RunConfig, out_dir: Path) -> None:
    array = build_array(config)
    compiler = MatrixCompiler(array)
    cfg_noise = noise_config(config)
    rng = make_rng(config.seed, stream=1)
    summary = []
    for name, make in FIG5_PROGRAMS.items():
        target = make(array.n)
        compiled = compiler.compile_unit(target)
        fwd = array.measure(np.eye(array.n), compiled.heater_settings_mw, FORWARD)
        bwd = array.measure(np.eye(array.n), compiled.heater_settings_mw, BACKWARD)
        if cfg_noise is not None:
            reps = config.noise.time_average
            fwd = perturb(fwd, cfg_noise, rng, reps)
            bwd = perturb(bwd, cfg_noise, rng, reps)
        write_matrix_csv(out_dir / f"{name}_forward.csv", fwd)
        write_matrix_csv(out_dir / f"{name}_backward.csv", bwd)
        dark = fwd[target < 0.5]
        summary.append(
            (
                name,
                np.abs(fwd.T - bwd).max(),
                10.0 * np.log10(max(dark.max(), 1e-30)),
                10.0 * np.log10(max(dark.mean(), 1e-30)),
            )
        )
    write_csv(
        out_dir / "summary.csv",
        "program,transpose_max_abs_diff,dark_max_db,dark_mean_db",
        summary,
    )


def run_iris_inference(config: RunConfig, out_dir: Path) -> None:
    dataset = load_iris(config.datasets.iris_csv)
    train_x, train_y, test_x, test_y = dataset.split(config.seed)
    # The weights are trained on a computer (ideal backend), then loaded:
    # one run, whose results are slice 0.
    result = train_iris(
        config.training,
        (config.seed,),
        train_x,
        train_y,
        test_x,
        test_y,
        IdealBackend(),
    )
    array = build_array(config)
    backend = PhotonicBackend(
        array,
        noise=noise_config(config),
        time_average_count=config.noise.time_average,
    )
    runner = MlpRunner(result.model, backend)
    outputs = runner.forward(test_x.T)[-1][0]
    predictions = outputs.argmax(axis=0)
    circuit_acc = float((predictions == test_y).mean())
    write_csv(
        out_dir / "accuracies.csv",
        "backend,accuracy",
        [("ideal", result.final_accuracy[0]), ("photonic", circuit_acc)],
    )
    write_csv(
        out_dir / "test_outputs.csv",
        "sample,label,prediction,out0,out1,out2",
        [
            (str(k), str(int(test_y[k])), str(int(predictions[k])), *outputs[:, k])
            for k in range(test_y.size)
        ],
    )
    write_csv(out_dir / "cost_history.csv", "epoch,value",
              list(enumerate(result.cost_history[0], start=1)))


def run_iris_train(config: RunConfig, out_dir: Path) -> None:
    """All runs train in lockstep on one backend (one LUT calibration); run k
    has seed `config.seed + k` and its own noise stream."""
    dataset = load_iris(config.datasets.iris_csv)
    train_x, train_y, test_x, test_y = dataset.split(config.seed)
    array = build_array(config) if config.training.backend != "ideal" else None
    runs = range(config.training.runs)
    backend = make_backend(
        config.training.backend,
        array,
        noise=[noise_config(config, run) for run in runs] if config.noise.enabled else None,
        time_average_count=config.noise.time_average,
    )
    seeds = [config.seed + run for run in runs]
    result = train_iris(config.training, seeds, train_x, train_y, test_x, test_y, backend)
    for run in runs:
        write_csv(
            out_dir / f"cost_history_run{run + 1}.csv",
            "epoch,value",
            list(enumerate(result.cost_history[run], start=1)),
        )
    accs = [(f"run{run + 1}", result.final_accuracy[run]) for run in runs]
    write_csv(out_dir / "final_accuracies.csv", "run,accuracy", accs)


def run_mnist_train(config: RunConfig, out_dir: Path) -> None:
    data = load_mnist_subset(
        config.datasets.mnist_dir,
        config.datasets.mnist_train,
        config.datasets.mnist_test,
    )
    array = build_array(config) if config.training.backend != "ideal" else None
    backend = make_backend(
        config.training.backend,
        array,
        noise=noise_config(config),
        time_average_count=config.noise.time_average,
    )
    result = train_mnist(
        config.training,
        config.seed,
        data.train_images,
        data.train_labels,
        data.test_images,
        data.test_labels,
        backend,
    )
    write_csv(
        out_dir / "accuracy_history.csv",
        "epoch,value",
        list(enumerate(result.accuracy_history, start=1)),
    )
    write_csv(
        out_dir / "cost_history.csv",
        "epoch,value",
        list(enumerate(result.cost_history, start=1)),
    )
    write_matrix_csv(out_dir / "confusion.csv", result.confusion)


def run_sweep_scaling(config: RunConfig, out_dir: Path) -> None:
    """Crosstalk scaling: MVM error against the exact product versus ring Q."""
    rng = make_rng(config.seed, stream=3)
    rows = []
    for q in (1e4, 1e5, 3e5):
        array = build_crossbar(9, ring_template=ring_for_q(q, lossless=True))
        compiler = MatrixCompiler(array)
        errs = []
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, (9, 9))
            compiled = compiler.compile_unit(w)
            x = rng.uniform(0.0, 1.0, 9)
            y = array.measure(x, compiled.heater_settings_mw, FORWARD)
            ref = w.T @ x
            errs.append(np.linalg.norm(y - ref) / np.linalg.norm(ref))
        rows.append((q, float(np.mean(errs)), float(np.max(errs))))
    write_csv(out_dir / "scaling.csv", "quality_factor,mean_rel_l2,max_rel_l2", rows)
    # Path-loss uniformity report for the configured layout.
    array = build_array(config)
    write_matrix_csv(out_dir / "path_loss_forward_db.csv", array.topology.path_loss_db(FORWARD))
    write_matrix_csv(out_dir / "path_loss_backward_db.csv", array.topology.path_loss_db(BACKWARD))
    # A Fig.-7(a)-style calibration table for the configured array's (1,1) element.
    lut = build_lut(array, [0], [0])[FORWARD]
    mzi, mrr = np.meshgrid(lut.mzi_powers_mw[0], lut.mrr_powers_mw[0], indexing="ij")
    points = zip(mzi.ravel(), mrr.ravel(), lut.output_power[0].ravel())
    write_csv(out_dir / "lut_element_1_1.csv", "mzi_mw,mrr_mw,power", points)


RUNNERS = {
    "characterize-devices": run_characterize_devices,
    "measure-matrix": run_measure_matrix,
    "iris-inference": run_iris_inference,
    "iris-train": run_iris_train,
    "mnist-train": run_mnist_train,
    "sweep-scaling": run_sweep_scaling,
}


def run_experiment(config: RunConfig) -> Path:
    """Execute one experiment; returns the artifact directory. A run that
    raises removes the directories it made."""
    config.validate()
    out_dir = Path(config.out_dir) / config.experiment
    created = next((p for p in reversed((out_dir, *out_dir.parents)) if not p.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        RUNNERS[config.experiment](config, out_dir)
        write_manifest(out_dir, config)
    except BaseException:
        if created is not None:
            shutil.rmtree(created)
        raise
    return out_dir
