"""Command-line entry point.

Subcommands: snag-track, bias, accbo, sweep. Exit codes: 0 success,
2 config error, 3 assertion/acceptance failure, 4 numerical abort.
Verbosity via the ACCBO_LOG environment variable (quiet, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import harness
from .constants import ConstraintViolation
from .snag import NumericalAbort

_COMMANDS = {
    "snag-track": harness.cmd_snag_track,
    "bias": harness.cmd_bias,
    "accbo": harness.cmd_accbo,
    "sweep": harness.cmd_sweep,
}

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accbo",
        description="Accelerated bilevel optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seeds", type=int, default=1, help="number of seeds")
        cmd.add_argument("--base-seed", type=int, default=0, help="base seed (u64)")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("ACCBO_LOG", "quiet")
    if level not in _LOG_LEVELS:
        print(f"error: ACCBO_LOG must be one of {sorted(_LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=_LOG_LEVELS[level])

    args = build_parser().parse_args(argv)
    try:
        config = harness.ExperimentConfig(
            command=args.command,
            params=harness.load_config(args.config),
            out_dir=Path(args.out),
            n_seeds=args.seeds,
            base_seed=args.base_seed,
        )
        return _COMMANDS[args.command](config)
    except (harness.ConfigError, ConstraintViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
