"""The benchmark's workloads: one `xbar` RunConfig each, sized for a 2-5 s repetition.

Why each workload exists, and which layer it exercises or bypasses, is
recorded in README.md next to this file. Epochs and train-set sizes are set
so that the test accuracy is past its steep rise (its spread across seeds
stays small) while a repetition still fits several times into one run.
"""

from __future__ import annotations

from dataclasses import dataclass

IRIS_TRAIN_SAMPLES = 105  # 35 per class, fixed by the packaged Iris split
# Adam reaches the Iris accuracy plateau in about 8 epochs, where the default
# SGD at rate 0.5 needs about 30; the plateau keeps the accuracy's spread
# across seeds small.
IRIS_ADAM = {"optimizer": "adam", "learning_rate": 0.05}

COMMON_SPANS = (
    "datasets.load",
    "experiments.build_array",
    "experiments.write_csv",
    "backends.init",
    "backends.program",
    "backends.forward",
    "backends.backward",
    "crossbar.aligned_heaters",
    "crossbar.drop_through_tensor",
    "nn.backprop",
    "nn.refresh",
    "nn.optimizer",
)
PHOTONIC_SPANS = COMMON_SPANS + (
    "crossbar.effective_matrix",
    "devices.detuning_for_relative_drop",
    "compiler.heaters_for_targets",
)
LUT_SPANS = COMMON_SPANS + (
    "lut.build_lut",
    "lut.lut_multiply_many",
    "backends.element_products",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # RunConfig mapping; the benchmark adds seed, out_dir and mnist_dir
    smoke: dict  # training/datasets overrides for the tiny smoke-test size
    accuracy_floor: float  # well above chance, well below every seed's accuracy
    product_err_max: float  # ceiling for product_rel_err, about 3x its value across seeds
    expected_spans: tuple  # spans that must fire in a traced repetition

    @property
    def is_mnist(self) -> bool:
        return self.config["experiment"] == "mnist-train"

    def run_config(self, seed: int, out_dir: str, mnist_dir: str | None, smoke: bool) -> dict:
        cfg = {key: dict(value) if isinstance(value, dict) else value for key, value in self.config.items()}
        cfg.update(seed=seed, out_dir=out_dir)
        if smoke:
            for section, overrides in self.smoke.items():
                cfg.setdefault(section, {}).update(overrides)
        if self.is_mnist:
            cfg["datasets"]["mnist_dir"] = mnist_dir
        return cfg

    def training_samples(self, cfg: dict) -> int:
        training = cfg["training"]
        if self.is_mnist:
            return training["epochs"] * cfg["datasets"]["mnist_train"]
        return training["epochs"] * IRIS_TRAIN_SAMPLES * training.get("runs", 4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iris-photonic",
            config={
                "experiment": "iris-train",
                # Averaging two weight inits narrows the test accuracy's
                # spread across seeds from about 0.085 to 0.073.
                "training": {"backend": "photonic", **IRIS_ADAM, "epochs": 8, "runs": 2},
            },
            smoke={"training": {"epochs": 2, "runs": 1}},
            accuracy_floor=0.5,
            product_err_max=0.1,
            expected_spans=PHOTONIC_SPANS,
        ),
        Workload(
            name="iris-lut",
            config={"experiment": "iris-train", "training": {**IRIS_ADAM, "epochs": 8, "runs": 4}},
            smoke={"training": {"epochs": 2, "runs": 1}},
            accuracy_floor=0.5,
            product_err_max=0.3,
            expected_spans=LUT_SPANS,
        ),
        Workload(
            name="iris-lut-fab",
            config={
                "experiment": "iris-train",
                "devices": {"fabrication_sigma_nm": 0.02},
                "noise": {"enabled": True, "time_average": 2},
                # Batches of 4 amortize the per-row loop, which makes an epoch
                # cost 4x one of iris-lut at batch 1.
                "training": {**IRIS_ADAM, "epochs": 12, "runs": 1, "batch_size": 4},
            },
            smoke={"training": {"epochs": 2}},
            accuracy_floor=0.5,
            product_err_max=0.4,
            expected_spans=LUT_SPANS + ("noise.perturb",),
        ),
        Workload(
            name="mnist-photonic",
            config={
                "experiment": "mnist-train",
                # The default 4x4 preset cannot host the 9x9 kernel matrix.
                "devices": {"preset": "simulation_9x9"},
                "training": {
                    "backend": "photonic",
                    "optimizer": "adam",
                    "learning_rate": 0.003,
                    "epochs": 3,
                    "batch_size": 16,
                },
                "datasets": {"mnist_train": 1024, "mnist_test": 512},
            },
            smoke={"training": {"epochs": 1}, "datasets": {"mnist_train": 256, "mnist_test": 128}},
            accuracy_floor=0.3,
            product_err_max=0.01,
            expected_spans=PHOTONIC_SPANS,
        ),
    )
}
