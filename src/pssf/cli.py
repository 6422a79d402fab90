"""Command-line scenario runner.

Exit codes: 0 ok, 2 config error (the config, ``--model`` or ``--values``), 3
early termination (a rollout, or every training episode), 4 certificate failure.
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
        return _run(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except EpisodicTrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_EARLY_TERMINATION


def _run(args) -> int:
    """Run one command; a bad config, model or --values raises ConfigError."""
    cfg = load_config(args.config)
    if args.command == "simulate":
        try:
            model = ResidualModel.load(args.model) if args.model else None
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"config error: cannot load model {args.model}: {exc}") from exc
        summary = simulate_artifacts(cfg, args.out, model=model)
        modes = {name: summary[name] for name in MODES if summary[name] is not None}
        for name, mode in modes.items():
            print(f"{name + ':':12} delta_bar={mode['delta_bar']:.6g} floor={mode['floor']:.6g} "
                  f"min_h={mode['min_h']:.6g} status={mode['status']}")
        if any(mode["terminated_early"] for mode in modes.values()):
            return EXIT_EARLY_TERMINATION
        return EXIT_OK if all(mode["pass"] for mode in modes.values()) else EXIT_CERTIFICATE

    if args.command == "learn":
        summary = learn_artifacts(cfg, args.out)
        print(f"no_learning delta_bar={summary['no_learning_delta_bar']:.6g} "
              f"final validation delta_bar={summary['final_validation_delta_bar']:.6g}")
        return EXIT_OK

    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"config error: bad --values: {exc}") from exc
    if not values:
        raise ConfigError("config error: --values is empty")
    sweep_artifacts(cfg, args.param, values, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
