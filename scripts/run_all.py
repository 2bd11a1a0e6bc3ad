#!/usr/bin/env python3
"""Run the full experiment battery into results/<name>/.

Thin wrapper over the CLI: each sub-experiment is one subcommand invocation
with a config from scripts/configs/. Re-running with the same seeds produces
byte-identical outputs.

Usage: python3 scripts/run_all.py [--seeds N] [--base-seed S] [--out DIR]
       python3 scripts/run_all.py --only tracking bias
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from accbo.cli import main as cli_main

HERE = Path(__file__).resolve().parent

EXPERIMENTS = {
    # name -> (subcommand, config file, per-experiment seed count)
    "tracking": ("snag-track", "tracking.json", 1000),
    "bias": ("bias", "bias.json", 1),
    "convergence": ("accbo", "convergence.json", 10),
    "comparison": ("sweep", "comparison_sweep.json", 10),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--seeds", type=int, default=None,
                    help="override the per-experiment seed counts")
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                    default=sorted(EXPERIMENTS))
    args = ap.parse_args(argv)

    worst = 0
    for name in args.only:
        command, config, default_seeds = EXPERIMENTS[name]
        seeds = args.seeds if args.seeds is not None else default_seeds
        out_dir = Path(args.out) / name
        print(f"== {name}: accbo {command} -> {out_dir} ({seeds} seeds)")
        rc = cli_main([
            command,
            "--config", str(HERE / "configs" / config),
            "--out", str(out_dir),
            "--seeds", str(seeds),
            "--base-seed", str(args.base_seed),
        ])
        print(f"   exit code {rc}")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
