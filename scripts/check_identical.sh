#!/usr/bin/env bash
# Check that the working tree's CLI outputs are byte-identical to those of a
# git revision.
#
#   scripts/check_identical.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory, runs the five
# CLI commands below on both trees (accbo option one and option two at 2
# seeds, sweep at 1 seed, bias, snag-track at 400 seeds), each into its own
# output directory, and compares the two output trees with `diff -r`. Every
# command's exit code is written next to its outputs, so a changed exit code
# is a difference too. Prints `byte-identical` and exits 0 when nothing
# differs; otherwise prints the differences and exits non-zero.
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

for side in parent change; do
  tree=$work/parent
  [ "$side" = change ] && tree=$repo
  out=$work/out_$side
  c=$tree/scripts/configs
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["option"] = "two"; json.dump(d, open(sys.argv[2], "w"))' \
    "$c/convergence.json" "$work/convergence_two_$side.json"
  run "$tree" "$out" conv_one accbo --config "$c/convergence.json" --seeds 2
  run "$tree" "$out" conv_two accbo --config "$work/convergence_two_$side.json" --seeds 2
  run "$tree" "$out" sweep sweep --config "$c/comparison_sweep.json" --seeds 1
  run "$tree" "$out" bias bias --config "$c/bias.json"
  run "$tree" "$out" track snag-track --config "$c/tracking.json" --seeds 400
done

diff -r "$work/out_parent" "$work/out_change"
echo byte-identical
