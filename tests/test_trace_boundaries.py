"""The benchmark tracer patches simulator functions by name
(`benchmarks/tracing.py`), and a traced run fails when an expected span
never fires. These tests catch a rename, or a photonic or LUT path that
stops calling a traced boundary, without running the benchmark. The
benchmark's product error (`benchmarks/child.py`) calls `build_array` and
`make_backend` directly, outside the tracer; one test runs it on every
workload."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from xbar.backends import LutBackend, PhotonicBackend
from xbar.config import RunConfig
from xbar.presets import preset_array

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Span prefixes of the device layers; the other spans need a training run.
DEVICE_LAYERS = ("backends.", "crossbar.", "compiler.", "devices.", "lut.")


def test_every_layer_boundary_resolves():
    for owner, attr, name, _ in tracing.layer_boundaries():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def fired_spans(make_backend, shape=(3, 4)):
    """Span names fired by one program of a matrix of `shape` (a 3x4 one, or
    a stack (..., out, in)), its forward and its backward."""
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        backend = make_backend(preset_array("experimental_4x4"))
        handle = backend.program(rng.uniform(-1.0, 1.0, shape))
        handle.forward(rng.uniform(0.0, 1.0, (shape[-1], 2)))
        handle.backward(rng.normal(size=shape[:-1] + (2,)))
    return set(tracer.summary())


def test_one_program_fires_every_photonic_span():
    expected = {s for s in workloads.PHOTONIC_SPANS if s.startswith(DEVICE_LAYERS)}
    fired = fired_spans(PhotonicBackend)
    assert expected <= fired, f"never fired: {sorted(expected - fired)}"


def test_one_stacked_program_fires_every_photonic_span():
    # The (layers, runs, 4, 4) stack that iris-photonic programs, traced on
    # its own: its solve must pass through the traced boundaries too.
    expected = {s for s in workloads.PHOTONIC_SPANS if s.startswith(DEVICE_LAYERS)}
    fired = fired_spans(PhotonicBackend, (2, 2, 4, 4))
    assert expected <= fired, f"never fired: {sorted(expected - fired)}"


def test_one_program_fires_every_lut_span():
    expected = {s for s in workloads.LUT_SPANS if s.startswith(DEVICE_LAYERS)}
    assert {"lut.build_lut", "lut.lut_multiply_many", "backends.element_products"} <= expected
    fired = fired_spans(LutBackend)
    assert expected <= fired, f"never fired: {sorted(expected - fired)}"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_the_benchmark_product_error_runs_on_every_workload(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = RunConfig.from_dict(workload.run_config(3, str(tmp_path), None, smoke=True))
    err = child.product_rel_err(config, 3)
    assert math.isfinite(err) and err <= workload.product_err_max, err
