"""Command-line entry point: `xbar <experiment> [--config FILE] [--seed N] [--out DIR]`."""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, RunConfig
from .errors import XbarError
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbar",
        description="Microring-crossbar simulator experiments",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS,
        help="experiment to run",
    )
    parser.add_argument("--config", help="YAML run configuration", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_yaml(args.config) if args.config else RunConfig()
        config.experiment = args.experiment
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        out_dir = run_experiment(config)
    except (XbarError, OSError) as exc:
        print(f"xbar: error: {exc}", file=sys.stderr)
        return 1
    print(out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
