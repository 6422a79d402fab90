"""Command-line scenario runner.

Exit codes: 0 ok, 2 config error, 3 early termination, 4 certificate failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .learning import EpisodicTrainingError, ResidualModel
from .scenario import MODES, learn_artifacts, simulate_artifacts, sweep_artifacts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EARLY_TERMINATION = 3
EXIT_CERTIFICATE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pssf",
        description="Safety-filtered rollouts, episodic residual learning, and "
                    "projection-to-state safety certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="closed-loop run with certificates")
    sim.add_argument("--config", required=True, help="scenario YAML")
    sim.add_argument("--model", help="residual model JSON for the learned mode")
    sim.add_argument("--out", required=True, help="output directory")

    learn = sub.add_parser("learn", help="episodic residual training")
    learn.add_argument("--config", required=True)
    learn.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="simulate across one numeric config leaf")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, help="dotted config path, e.g. run.dt")
    sweep.add_argument("--values", required=True, help="comma-separated numbers")
    sweep.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "simulate":
        model = None
        if args.model:
            try:
                model = ResidualModel.load(args.model)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"config error: cannot load model {args.model}: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        try:
            summary = simulate_artifacts(cfg, args.out, model=model)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return EXIT_CONFIG
        modes = {name: summary[name] for name in MODES if summary[name] is not None}
        for name, mode in modes.items():
            print(f"{name + ':':12} delta_bar={mode['delta_bar']:.6g} floor={mode['floor']:.6g} "
                  f"min_h={mode['min_h']:.6g} status={mode['status']}")
        if any(mode["terminated_early"] for mode in modes.values()):
            return EXIT_EARLY_TERMINATION
        return EXIT_OK if all(mode["pass"] for mode in modes.values()) else EXIT_CERTIFICATE

    if args.command == "learn":
        try:
            summary = learn_artifacts(cfg, args.out)
        except EpisodicTrainingError as exc:
            print(f"training failed: {exc}", file=sys.stderr)
            return EXIT_EARLY_TERMINATION
        print(f"no_learning delta_bar={summary['no_learning_delta_bar']:.6g} "
              f"final validation delta_bar={summary['final_validation_delta_bar']:.6g}")
        return EXIT_OK

    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        print(f"config error: bad --values: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("config error: --values is empty", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sweep_artifacts(cfg, args.param, values, args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
