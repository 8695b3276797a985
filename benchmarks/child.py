"""One benchmark repetition, run in a fresh interpreter by run.py.

Runs one `xbar` experiment in-process through `run_experiment`, times it,
checks its outputs, and prints one JSON object as the last line of stdout.
Not meant to be started by hand; see run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler
from run import THREAD_VARS
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_MATRICES = 64
PRODUCT_BATCH = 32


def import_xbar():
    """Import the simulator from this checkout's sources, never from elsewhere."""
    import xbar

    source = (ROOT / "src" / "xbar").resolve()
    if Path(xbar.__file__).resolve().parent != source:
        raise ImportError(f"xbar imported from {xbar.__file__}, expected {source}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_timed(config, tracer: Tracer | None):
    """Run the experiment; returns (out_dir, start, setup end, end) in perf_counter seconds.

    Set-up ends when the training function is entered: the dataset is
    loaded, the array built and the first backend constructed (LUT
    calibration included).
    """
    from xbar import experiments

    train_name = "train_mnist" if config.experiment == "mnist-train" else "train_iris"
    train = getattr(experiments, train_name)
    entered: list[float] = []

    def marked(*args, **kwargs):
        if not entered:
            entered.append(time.perf_counter())
        return train(*args, **kwargs)

    run = experiments.run_experiment
    if tracer is not None:
        run = tracer.wrap("experiments.run_experiment", run)
    setattr(experiments, train_name, marked)
    try:
        start = time.perf_counter()
        out_dir = run(config)
        end = time.perf_counter()
    finally:
        setattr(experiments, train_name, train)
    return out_dir, start, entered[0], end


def read_csv_values(path: Path, column: int) -> list[float]:
    lines = path.read_text().splitlines()[1:]
    return [float(line.split(",")[column]) for line in lines if line]


def final_accuracy(out_dir: Path, is_mnist: bool) -> float:
    if is_mnist:
        return read_csv_values(out_dir / "accuracy_history.csv", 1)[-1]
    accs = read_csv_values(out_dir / "final_accuracies.csv", 1)
    return sum(accs) / len(accs)


def product_rel_err(config, seed: int) -> float:
    """Relative L2 error of a backend's forward and backward products.

    Seeded signed matrices at the array size, non-negative forward inputs
    in [0, 1] and signed backward inputs; compared with the exact W @ X and
    W.T @ S. A modeled-hardware statistic: no measured chip data exists.
    """
    import numpy as np
    from xbar.backends import make_backend
    from xbar.experiments import build_array, noise_config

    array = build_array(config)
    backend = make_backend(
        config.training.backend,
        array,
        noise=noise_config(config),
        time_average_count=config.noise.time_average,
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(71,)))
    n = array.n
    err = ref = 0.0
    for _ in range(PRODUCT_MATRICES):
        w = rng.uniform(-1.0, 1.0, (n, n))
        x = rng.uniform(0.0, 1.0, (n, PRODUCT_BATCH))
        s = rng.uniform(-1.0, 1.0, (n, PRODUCT_BATCH))
        handle = backend.program(w)
        for got, exact in ((handle.forward(x), w @ x), (handle.backward(s), w.T @ s)):
            err += float(((got - exact) ** 2).sum())
            ref += float((exact**2).sum())
    return math.sqrt(err / ref)


def check_outputs(workload, out_dir: Path, accuracy: float, rel_err: float | None) -> list:
    """(check name, passed, detail) for every output check of one repetition."""
    checks = [
        (
            "accuracy_floor",
            accuracy >= workload.accuracy_floor,
            f"{accuracy:.4f} >= {workload.accuracy_floor}",
        )
    ]
    costs = [v for path in sorted(out_dir.glob("cost_history*.csv")) for v in read_csv_values(path, 1)]
    checks.append(("finite_costs", bool(costs) and all(map(math.isfinite, costs)), f"{len(costs)} values"))
    if rel_err is not None:
        checks.append(
            (
                "product_rel_err",
                math.isfinite(rel_err) and rel_err <= workload.product_err_max,
                f"{rel_err:.6g} <= {workload.product_err_max}",
            )
        )
    return checks


def repetition(args) -> dict:
    import_xbar()
    from xbar.config import RunConfig

    workload = WORKLOADS[args.workload]
    config = RunConfig.from_dict(
        workload.run_config(args.seed, str(args.out), args.mnist_dir, args.smoke)
    )
    tracer = Tracer() if args.spans else None
    with SpeedSampler(tracer.pause if tracer else None) as sampler:
        if tracer is not None:
            with tracer.installed():
                out_dir, start, setup_end, end = run_timed(config, tracer)
        else:
            out_dir, start, setup_end, end = run_timed(config, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy = final_accuracy(out_dir, workload.is_mnist)
    rel_err = product_rel_err(config, args.seed) if args.product_err else None
    result = {
        "wall_s": end - start - sampler.busy_s(start, end),
        "setup_s": setup_end - start - sampler.busy_s(start, setup_end),
        "time_scale": sampler.scale(),
        "speed_samples": len(sampler.samples),
        "sampler_busy_s": sampler.busy_s(start, end),
        "samples": workload.training_samples(config.to_dict()),
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": accuracy,
        "product_rel_err": rel_err,
        "digests": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.csv"))
        },
        "checks": check_outputs(workload, out_dir, accuracy, rel_err),
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mnist-dir", default=None)
    parser.add_argument("--spans", type=Path, default=None, help="trace, and write spans here")
    parser.add_argument("--product-err", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        result = {"ok": True, **repetition(args)}
    except Exception:  # reported to run.py, which counts it as a failed operation
        result = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
