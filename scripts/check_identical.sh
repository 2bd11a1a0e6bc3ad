#!/usr/bin/env bash
# Check that the working tree's CLI outputs are byte-identical to those of a
# git revision.
#
#   scripts/check_identical.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory, runs every
# command of the COMMANDS table below on both trees, each into its own output
# directory, and compares the two output trees with `diff -r`. Every
# command's exit code is written next to its outputs, so a changed exit code
# is a difference too. Prints `byte-identical` and exits 0 when nothing
# differs; otherwise prints the differences and exits non-zero.
set -euo pipefail

# One command per line: output name, subcommand, --seeds, --base-seed, base
# config (a file in the tree's scripts/configs, or - for an empty object) and
# a JSON object whose fields replace the base config's top-level fields.
# Lines that start with # say why the command below them is in the table.
COMMANDS='
conv_one     accbo       2   0  convergence.json       {}
conv_two     accbo       2   0  convergence.json       {"option": "two"}
sweep        sweep       1   0  comparison_sweep.json  {}
bias         bias        1   0  bias.json              {}
track        snag-track  400 0  tracking.json          {}
# A fixed-direction drift in dim 3 at mu 0.7.
track_fixed  snag-track  300 9  tracking.json          {"mu": 0.7, "dim": 3, "sigma": [0, 0.3], "drift": {"kind": "fixed_direction", "delta": [0, 0.002]}}
# The same drift from V0 = 0, a start row with no offset, in dim 4.
track_v0     snag-track  150 3  tracking.json          {"mu": 0.7, "dim": 4, "V0": 0.0, "sigma": [0, 0.3], "drift": {"kind": "fixed_direction", "delta": [0, 0.002]}}
# A random walk in dim 9, where the coordinate sums are pairwise.
track_dim9   snag-track  200 5  tracking.json          {"dim": 9, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# T = 257: the grid ends a 256-step tape block one step before the run ends.
track_block  snag-track  100 7  tracking.json          {"T": 257, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# Option two on the noisy fixture ridge toy, whose diagnostics need a linear solve.
ridge_two    accbo       2   0  -                      {"instance": {"kind": "fixture_ridge", "sigma_f1": 0.1, "sigma_g1": 0.05, "sigma_g2": 0.05}, "schedule": {"mode": "practical", "epsilon": 0.1, "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 1e-3, "beta": 0.95, "eta": 0.005, "T": 1500, "T0": 200, "S": 2, "Q": 15, "I": 2, "N": 12}}, "option": "two"}
# The two instance kinds no config file uses, both with noise.
exp_one      accbo       2   0  -                      {"instance": {"kind": "exp_upper_toy", "params": {"u": [0.3, -0.2], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1], "mu": 1.0, "l_f0": 1.0}, "noise": {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}}, "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.5, "overrides": {"alpha": 0.04, "eta": 0.002, "T": 1500, "T0": 200, "S": 2, "Q": 4}}, "option": "one", "x0": [0.5, -0.5]}
general_two  accbo       2   0  -                      {"instance": {"kind": "general_quadratic", "params": {"H": [[2.0, 0.3], [0.3, 1.0]], "C": [[0.5, 0.1], [0.0, 0.4]], "b": [0.1, -0.1], "c": [0.4, -0.3], "d": [0.2, 0.1], "l_f0": 1.0}, "noise": {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}}, "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.5, "overrides": {"alpha": 0.04, "eta": 0.002, "T": 1500, "T0": 200, "S": 2, "Q": 4, "I": 2, "N": 6}}, "option": "two", "x0": [0.5, -0.5]}
'

rev=${1:?usage: scripts/check_identical.sh <rev>}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent"

for side in parent change; do
  tree=$work/parent
  [ "$side" = change ] && tree=$repo
  out=$work/out_$side
  mkdir -p "$out" "$work/configs_$side"
  while read -r name cmd seeds base_seed base fields <&3; do
    case $name in '' | '#'*) continue ;; esac
    config=$work/configs_$side/$name.json
    [ "$base" = - ] || base=$tree/scripts/configs/$base
    python3 -c 'import json, sys; base, fields, dest = sys.argv[1:]; d = {} if base == "-" else json.load(open(base)); d.update(json.loads(fields)); json.dump(d, open(dest, "w"))' \
      "$base" "$fields" "$config"
    rc=0
    (cd "$tree" && PYTHONPATH=src python3 -m accbo.cli "$cmd" --config "$config" \
      --seeds "$seeds" --base-seed "$base_seed" --out "$out/$name") || rc=$?
    echo "$rc" > "$out/$name.rc"
  done 3<<< "$COMMANDS"
done

diff -r "$work/out_parent" "$work/out_change"
echo byte-identical
