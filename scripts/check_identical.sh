#!/usr/bin/env bash
# Check that the working tree's CLI outputs are byte-identical to those of a
# git revision.
#
#   scripts/check_identical.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory, runs the twelve
# CLI commands below on both trees (accbo option one and option two at 2
# seeds, sweep at 1 seed, bias, snag-track at 400 seeds on tracking.json,
# snag-track at 300 seeds and base seed 9 with a fixed-direction drift, dim 3
# and mu 0.7, snag-track at 150 seeds and base seed 3 with the same drift
# from V0 = 0 (a start row with no offset) in dim 4, snag-track at 200 seeds
# and base seed 5 with a random-walk drift in dim 9, where the coordinate sums
# are pairwise, snag-track at 100 seeds and base seed 7 with a random-walk
# drift and T = 257, so that the grid's 256-step tape block ends one step
# before the run does, accbo option two at 2 seeds on the noisy fixture ridge toy,
# whose diagnostics need a linear solve, and accbo at 2 seeds on the two kinds
# no config file uses: the exp toy under option one and the general quadratic
# under option two, both with noise), each into its own output directory, and
# compares the two output trees with `diff -r`. Every command's exit code is
# written next to its outputs, so a changed exit code is a difference too.
# Prints `byte-identical` and exits 0 when nothing differs; otherwise prints
# the differences and exits non-zero.
set -euo pipefail

rev=${1:?usage: scripts/check_identical.sh <rev>}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent"

run() {  # run <tree> <out> <name> <cli arguments...>
  local tree=$1 out=$2 name=$3 rc=0
  shift 3
  mkdir -p "$out"
  (cd "$tree" && PYTHONPATH=src python3 -m accbo.cli "$@" --out "$out/$name") || rc=$?
  echo "$rc" > "$out/$name.rc"
}

python3 -c 'import json, sys; json.dump({"instance": {"kind": "fixture_ridge", "sigma_f1": 0.1, "sigma_g1": 0.05, "sigma_g2": 0.05}, "schedule": {"mode": "practical", "epsilon": 0.1, "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 1e-3, "beta": 0.95, "eta": 0.005, "T": 1500, "T0": 200, "S": 2, "Q": 15, "I": 2, "N": 12}}, "option": "two"}, open(sys.argv[1], "w"))' \
  "$work/ridge_two.json"
python3 -c 'import json, sys; noise = {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}; schedule = {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.5, "overrides": {"alpha": 0.04, "eta": 0.002, "T": 1500, "T0": 200, "S": 2, "Q": 4}}; json.dump({"instance": {"kind": "exp_upper_toy", "params": {"u": [0.3, -0.2], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1], "mu": 1.0, "l_f0": 1.0}, "noise": noise}, "schedule": schedule, "option": "one", "x0": [0.5, -0.5]}, open(sys.argv[1], "w")); schedule["overrides"].update(I=2, N=6); json.dump({"instance": {"kind": "general_quadratic", "params": {"H": [[2.0, 0.3], [0.3, 1.0]], "C": [[0.5, 0.1], [0.0, 0.4]], "b": [0.1, -0.1], "c": [0.4, -0.3], "d": [0.2, 0.1], "l_f0": 1.0}, "noise": noise}, "schedule": schedule, "option": "two", "x0": [0.5, -0.5]}, open(sys.argv[2], "w"))' \
  "$work/exp_one.json" "$work/general_two.json"

for side in parent change; do
  tree=$work/parent
  [ "$side" = change ] && tree=$repo
  out=$work/out_$side
  c=$tree/scripts/configs
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["option"] = "two"; json.dump(d, open(sys.argv[2], "w"))' \
    "$c/convergence.json" "$work/convergence_two_$side.json"
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d.update(mu=0.7, dim=3, sigma=[0, 0.3], drift={"kind": "fixed_direction", "delta": [0, 0.002]}); json.dump(d, open(sys.argv[2], "w"))' \
    "$c/tracking.json" "$work/tracking_fixed_$side.json"
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d.update(mu=0.7, dim=4, V0=0.0, sigma=[0, 0.3], drift={"kind": "fixed_direction", "delta": [0, 0.002]}); json.dump(d, open(sys.argv[2], "w"))' \
    "$c/tracking.json" "$work/tracking_v0_$side.json"
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d.update(dim=9, sigma=[0, 0.3], drift={"kind": "random_walk", "delta": [0, 0.002]}); json.dump(d, open(sys.argv[2], "w"))' \
    "$c/tracking.json" "$work/tracking_dim9_$side.json"
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d.update(T=257, sigma=[0, 0.3], drift={"kind": "random_walk", "delta": [0, 0.002]}); json.dump(d, open(sys.argv[2], "w"))' \
    "$c/tracking.json" "$work/tracking_block_$side.json"
  run "$tree" "$out" conv_one accbo --config "$c/convergence.json" --seeds 2
  run "$tree" "$out" conv_two accbo --config "$work/convergence_two_$side.json" --seeds 2
  run "$tree" "$out" sweep sweep --config "$c/comparison_sweep.json" --seeds 1
  run "$tree" "$out" bias bias --config "$c/bias.json"
  run "$tree" "$out" track snag-track --config "$c/tracking.json" --seeds 400
  run "$tree" "$out" track_fixed snag-track --config "$work/tracking_fixed_$side.json" \
    --seeds 300 --base-seed 9
  run "$tree" "$out" track_v0 snag-track --config "$work/tracking_v0_$side.json" \
    --seeds 150 --base-seed 3
  run "$tree" "$out" track_dim9 snag-track --config "$work/tracking_dim9_$side.json" \
    --seeds 200 --base-seed 5
  run "$tree" "$out" track_block snag-track --config "$work/tracking_block_$side.json" \
    --seeds 100 --base-seed 7
  run "$tree" "$out" ridge_two accbo --config "$work/ridge_two.json" --seeds 2
  run "$tree" "$out" exp_one accbo --config "$work/exp_one.json" --seeds 2
  run "$tree" "$out" general_two accbo --config "$work/general_two.json" --seeds 2
done

diff -r "$work/out_parent" "$work/out_change"
echo byte-identical
