"""In-memory span recorder that wraps the simulator's layer boundaries.

The simulator itself is not instrumented. For a traced repetition the
benchmark replaces each layer's public function with a wrapper that records
a span: name, parent span, start and end. A function is patched where its
caller looks it up: a method on its class, a module-level function in the
namespace of the module that calls it (`xbar.backends.build_lut`, not only
`xbar.lut.build_lut`), because a wrapper installed only at the definition
never fires. Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


def _count_columns(tracer, name, args, result):
    shape = getattr(args[1], "shape", ())
    tracer.counters[name + ".columns"] += shape[1] if len(shape) == 2 else 1


def _count_lut_products(tracer, name, args, result):
    _, clamped = result
    tracer.counters["lut.lut_multiply_many.elements"] += clamped.size
    tracer.counters["lut.clamped"] += int(clamped.sum())


def _count_compiler_clamps(tracer, name, args, result):
    mask = result.clamped_elements
    tracer.counters["compiler.requested"] += mask.size
    tracer.counters["compiler.clamped"] += int(mask.sum())


def layer_boundaries():
    """(owner, attribute, span name, counter hook) for every traced boundary."""
    from xbar import backends, compiler, crossbar, devices, experiments, nn

    return [
        (experiments, "load_iris", "datasets.load", None),
        (experiments, "load_mnist_subset", "datasets.load", None),
        (experiments, "build_array", "experiments.build_array", None),
        (experiments, "write_csv", "experiments.write_csv", None),
        (experiments, "train_iris", "nn.train", None),
        (experiments, "train_mnist", "nn.train", None),
        (crossbar.RingGrid, "aligned_heaters", "crossbar.aligned_heaters", None),
        (crossbar.RingGrid, "drop_through_tensor", "crossbar.drop_through_tensor", None),
        (crossbar.CrossbarArray, "effective_matrix", "crossbar.effective_matrix", None),
        (
            devices.RingDevice,
            "detuning_for_relative_drop",
            "devices.detuning_for_relative_drop",
            None,
        ),
        (compiler.MatrixCompiler, "heaters_for_targets", "compiler.heaters_for_targets", None),
        (compiler.MatrixCompiler, "compile_unit", "compiler.compile_unit", _count_compiler_clamps),
        (backends, "build_lut", "lut.build_lut", None),
        (backends, "lut_multiply_many", "lut.lut_multiply_many", _count_lut_products),
        (backends, "perturb", "noise.perturb", None),
        (backends.PhotonicBackend, "__init__", "backends.init", None),
        (backends.LutBackend, "__init__", "backends.init", None),
        (backends.PhotonicBackend, "program", "backends.program", None),
        (backends.LutBackend, "program", "backends.program", None),
        (backends.PhotonicProgrammed, "forward", "backends.forward", _count_columns),
        (backends.LutProgrammed, "forward", "backends.forward", _count_columns),
        (backends.PhotonicProgrammed, "backward", "backends.backward", _count_columns),
        (backends.LutProgrammed, "backward", "backends.backward", _count_columns),
        (backends.LutBackend, "element_products", "backends.element_products", None),
        (nn.MlpRunner, "backprop", "nn.backprop", None),
        (nn.CnnRunner, "backprop", "nn.backprop", None),
        (nn.MlpRunner, "refresh", "nn.refresh", None),
        (nn.CnnRunner, "refresh", "nn.refresh", None),
        (nn.Sgd, "update", "nn.optimizer", None),
        (nn.Adam, "update", "nn.optimizer", None),
    ]


class Tracer:
    """Records nested spans as [name, parent index, start, end] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.pauses: list[tuple[int, float]] = []  # (interrupted span, seconds)
        self._stack: list[int] = []

    def pause(self, seconds: float) -> None:
        """Record time spent outside the program inside the current span (hostspeed.py)."""
        self.pauses.append((self._stack[-1] if self._stack else -1, seconds))

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in layer_boundaries():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the time its child spans
        cover; the process is single-threaded, so children never overlap.
        Paused time counts in no span.
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        paused_self = [0.0] * len(self.spans)
        paused_total = [0.0] * len(self.spans)
        for index, seconds in self.pauses:
            if index >= 0:
                paused_self[index] += seconds
            while index >= 0:
                paused_total[index] += seconds
                index = self.spans[index][1]
        stats: dict[str, dict] = {}
        for (name, _, start, end), inner, own, total in zip(self.spans, child_time, paused_self, paused_total):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start - total
            entry["self_s"] += end - start - inner - own
        return stats

    def write(self, path) -> None:
        """Write the raw spans (times relative to the first span) and pauses as JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, start - origin, end - origin] for name, parent, start, end in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "spans": rows,
                    "pauses": [[span, seconds] for span, seconds in self.pauses],
                },
                fh,
            )
