"""Host-time benchmark of the `xbar` simulator.

    python3 benchmarks/run.py --workload iris-lut --seed 0 --seconds 25 --trace 0

Runs repetitions of one workload (workloads.py), each in a fresh
single-threaded interpreter (child.py), until `--seconds` are spent, and
prints the medians. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Each run's full
record (per-repetition values, CSV digests, checks, environment) is written
to .bench_runs/<workload>-s<seed>-t<trace>.json. Times are wall-clock
seconds of host time, scaled to a reference host speed by the host-speed
samples taken during each repetition (hostspeed.py); the record keeps the
unscaled ones. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3  # per kind (untraced, traced), even past --seconds
RUN_LIMIT_S = 165.0  # a run must end well within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_accuracy": "frac",
    "product_rel_err": "ratio",
}

PER_LAYER = {
    "crossbar.aligned_heaters.calls": "count",
    "crossbar.aligned_heaters.self_s": "s",
    "crossbar.drop_through_tensor.calls": "count",
    "crossbar.drop_through_tensor.self_s": "s",
    "crossbar.effective_matrix.calls": "count",
    "crossbar.effective_matrix.self_s": "s",
    "devices.detuning_for_relative_drop.calls": "count",
    "devices.detuning_for_relative_drop.self_s": "s",
    "compiler.heaters_for_targets.calls": "count",
    "compiler.heaters_for_targets.self_s": "s",
    "compiler.heaters_for_targets.mean_us": "us",
    "compiler.clamped_frac": "frac",
    "lut.build_lut.calls": "count",
    "lut.build_lut.self_s": "s",
    "lut.lut_multiply_many.calls": "count",
    "lut.lut_multiply_many.elements": "count",
    "lut.lut_multiply_many.self_s": "s",
    "lut.clamped_frac": "frac",
    "backends.init.self_s": "s",
    "backends.program.calls": "count",
    "backends.program.self_s": "s",
    "backends.program.mean_us": "us",
    "backends.forward.calls": "count",
    "backends.forward.columns": "count",
    "backends.forward.self_s": "s",
    "backends.forward.mean_us": "us",
    "backends.backward.calls": "count",
    "backends.backward.columns": "count",
    "backends.backward.self_s": "s",
    "backends.backward.mean_us": "us",
    "backends.element_products.calls": "count",
    "backends.element_products.self_s": "s",
    "noise.perturb.calls": "count",
    "noise.perturb.self_s": "s",
    "nn.backprop.calls": "count",
    "nn.backprop.self_s": "s",
    "nn.refresh.calls": "count",
    "nn.optimizer.self_s": "s",
    "datasets.load.self_s": "s",
    "experiments.build_array.self_s": "s",
    "experiments.write_csv.calls": "count",
    "experiments.write_csv.self_s": "s",
    "trace.overhead_frac": "frac",
}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# Ratio metrics: (numerator counter, denominator counter) from tracing.py.
FRACTIONS = {
    "compiler.clamped_frac": ("compiler.clamped", "compiler.requested"),
    "lut.clamped_frac": ("lut.clamped", "lut.lut_multiply_many.elements"),
}


def layer_value(metric: str, rep: dict) -> float:
    """One per-layer metric from one traced repetition's span summary.

    Times are scaled to the reference host speed, like the end-to-end ones.
    """
    counters = rep["counters"]
    if metric in FRACTIONS:
        num, den = FRACTIONS[metric]
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    if metric.endswith((".columns", ".elements")):
        return counters.get(metric, 0)
    span, stat = metric.rsplit(".", 1)
    entry = rep["spans"].get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if stat == "mean_us":
        return entry["total_s"] * rep["time_scale"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
    if stat == "self_s":
        return entry["self_s"] * rep["time_scale"]
    return entry[stat]


class Run:
    """Repetitions of one workload and the operations they attempted."""

    def __init__(self, args, run_dir: Path, spans_path: Path):
        self.args = args
        self.spans_path = spans_path
        self.workload = WORKLOADS[args.workload]
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.mnist_dir = run_dir / "mnist" if self.workload.is_mnist else None
        self.reps: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0

    def product_rel_err(self) -> float | None:
        """Computed once per run, by the first repetition that succeeds."""
        return next((r["product_rel_err"] for r in self.reps if r["ok"] and r["product_rel_err"] is not None), None)

    def count(self, passed: bool, what: str) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(what)

    def repetition(self, traced: bool, deadline: float) -> None:
        index = len(self.reps)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload.name,
            "--seed", str(self.args.seed),
            "--out", str(self.run_dir / f"rep{index}"),
        ]
        if self.mnist_dir is not None:
            cmd += ["--mnist-dir", str(self.mnist_dir)]
        if traced:
            cmd += ["--spans", str(self.spans_path)]
        if self.product_rel_err() is None:
            cmd.append("--product-err")
        if self.args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            rep = {"ok": False, "error": "repetition timed out"}
        except (IndexError, ValueError):
            rep = {"ok": False, "error": f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}"}
        rep["traced"] = traced
        self.reps.append(rep)
        self.count(rep["ok"], f"rep{index}: {rep.get('error', '').strip()}")
        if not rep["ok"]:
            return
        for name, passed, detail in rep["checks"]:
            self.count(passed, f"rep{index} {name}: {detail}")
        first = next(r for r in self.reps if r["ok"])
        if rep is not first:
            self.count(rep["digests"] == first["digests"], f"rep{index}: CSV digests differ from a same-seed re-run")
        if traced:
            missing = [s for s in self.workload.expected_spans if s not in rep["spans"]]
            self.count(not missing, f"rep{index}: expected spans never fired: {missing}")

    def measure(self) -> None:
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        kinds = (False, True) if self.args.trace else (False,)
        while True:
            began = time.monotonic()
            self.repetition(kinds[len(self.reps) % len(kinds)], deadline)
            now = time.monotonic()
            last = now - began
            enough = all(
                sum(r["ok"] and r["traced"] == kind for r in self.reps) >= MIN_REPS for kind in kinds
            )
            if now + last > deadline or (now - start + last > self.args.seconds and (enough or self.failures)):
                break

    def metrics(self) -> dict:
        plain = [r for r in self.reps if r["ok"] and not r["traced"]]
        traced = [r for r in self.reps if r["ok"] and r["traced"]]
        if not plain or (self.args.trace and not traced) or self.product_rel_err() is None:
            return {}
        med = statistics.median

        def wall(r):
            return r["wall_s"] * r["time_scale"]

        if self.args.trace:
            values = {m: med(layer_value(m, r) for r in traced) for m in PER_LAYER if m != "trace.overhead_frac"}
            values["trace.overhead_frac"] = med(map(wall, traced)) / med(map(wall, plain)) - 1.0
            units = PER_LAYER
        else:
            values = {
                "setup_s": med(r["setup_s"] * r["time_scale"] for r in plain),
                "wall_s": med(map(wall, plain)),
                "samples_per_s": med(r["samples"] / (wall(r) - r["setup_s"] * r["time_scale"]) for r in plain),
                "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
                "test_accuracy": med(r["test_accuracy"] for r in plain),
                "product_rel_err": self.product_rel_err(),
            }
            units = END_TO_END
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "xbar" / "__init__.py").is_file():
        print(f"run.py: no xbar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = ROOT / ".bench_runs"
    run_dir = out / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(args, run_dir, out / f"{tag}-spans.json")
    try:
        if run.mnist_dir is not None:
            from synth_mnist import write_mnist_idx

            cfg = run.workload.run_config(args.seed, "", None, args.smoke)["datasets"]
            write_mnist_idx(run.mnist_dir, args.seed, cfg["mnist_train"], cfg["mnist_test"])
        run.measure()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = run.metrics()
    if not metrics:
        print(f"run.py: no successful repetition of {args.workload}", file=sys.stderr)
        for failure in run.failures:
            print(failure, file=sys.stderr)
        return 1

    env = next(r["env"] for r in run.reps if r["ok"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "env": env,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "repetitions": run.reps,
    }
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  commit {record['git_commit']}")
    print("env " + json.dumps(env, sort_keys=True))
    ok = [r for r in run.reps if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    print(
        f"repetitions {len(ok)} ok of {len(run.reps)}; untraced unscaled medians:"
        f" wall_s {statistics.median(r['wall_s'] for r in plain):.4g} s,"
        f" setup_s {statistics.median(r['setup_s'] for r in plain):.4g} s;"
        f" host time scale {statistics.median(r['time_scale'] for r in plain):.4g}"
    )
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':44s} {len(run.failures) / run.attempted:.6g} frac ({len(run.failures)}/{run.attempted})")
    for failure in run.failures:
        print("FAILED " + failure)
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
