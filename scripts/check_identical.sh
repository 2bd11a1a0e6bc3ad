#!/usr/bin/env bash
# Check that the working tree's CLI outputs are byte-identical to those of a
# git revision.
#
#   scripts/check_identical.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory, runs every
# command of the COMMANDS table below on both trees, each into its own output
# directory, and compares the two output trees with `diff -r`. Every
# command's exit code and standard error are written next to its outputs, so
# a changed exit code or message is a difference too. Prints `byte-identical` and exits 0 when nothing
# differs; otherwise prints the differences and exits non-zero.
set -euo pipefail

# One command per line: output name, subcommand, --seeds, --base-seed, base
# config (a file in the tree's scripts/configs, or - for an empty object) and
# a JSON object whose fields replace the base config's top-level fields.
# Lines that start with # say why the command below them is in the table.
# The table is a quoted heredoc, so a comment may hold any character.
COMMANDS=$(cat <<'EOF'
conv_one     accbo       2   0  convergence.json       {}
conv_two     accbo       2   0  convergence.json       {"option": "two"}
sweep        sweep       1   0  comparison_sweep.json  {}
# Two seeds: the only row whose medians are of two values, and two accbo rows
# that fit accbo_loglog_slope.
sweep2       sweep       2   3  comparison_sweep.json  {"epsilons": [0.2, 0.1], "schedule": {"mode": "practical", "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 0.0025, "eta": 0.005, "T": 2000, "T0": 200, "S": 1, "Q": 1, "sigma_g1_tilde": 0.2}}}
bias         bias        1   0  bias.json              {}
track        snag-track  400 0  tracking.json          {}
# A fixed-direction drift in dim 3 at mu 0.7.
track_fixed  snag-track  300 9  tracking.json          {"mu": 0.7, "dim": 3, "sigma": [0, 0.3], "drift": {"kind": "fixed_direction", "delta": [0, 0.002]}}
# The same drift from V0 = 0, a start row with no offset, in dim 4.
track_v0     snag-track  150 3  tracking.json          {"mu": 0.7, "dim": 4, "V0": 0.0, "sigma": [0, 0.3], "drift": {"kind": "fixed_direction", "delta": [0, 0.002]}}
# A fixed-direction drift in dim 1, the only drift of one coordinate.
track_fixed1 snag-track  200 4  tracking.json          {"dim": 1, "sigma": [0, 0.3], "drift": {"kind": "fixed_direction", "delta": [0, 0.002]}}
# A random walk in dim 9, where the coordinate sums are pairwise.
track_dim9   snag-track  200 5  tracking.json          {"dim": 9, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# T = 257: the grid ends a tape block one step before the run ends.
track_block  snag-track  100 7  tracking.json          {"T": 257, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# T = 100: the run ends partway through its second tape block.
track_mid    snag-track  7   11 tracking.json          {"T": 100, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# T = 1023: 1024 data rows, exactly one full CSV block, where a writer whose
# first block holds the header and one whose blocks count data rows differ.
track_1024   snag-track  7   13 tracking.json          {"T": 1023, "sigma": [0, 0.3], "drift": {"kind": "random_walk", "delta": [0, 0.002]}}
# No drift: the only row whose drift is {"kind": "none"}, which takes no delta.
track_still  snag-track  200 2  tracking.json          {"sigma": [0, 0.3], "drift": {"kind": "none"}}
# Option two on the noisy fixture ridge toy, whose diagnostics need a linear solve.
ridge_two    accbo       2   0  -                      {"instance": {"kind": "fixture_ridge", "sigma_f1": 0.1, "sigma_g1": 0.05, "sigma_g2": 0.05}, "schedule": {"mode": "practical", "epsilon": 0.1, "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 1e-3, "beta": 0.95, "eta": 0.005, "T": 1500, "T0": 200, "S": 2, "Q": 15, "I": 2, "N": 12}}, "option": "two"}
# Option two with all thirteen practical-mode overrides set, none derived.
all_overrides accbo      2   0  convergence.json       {"option": "two", "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2, "overrides": {"alpha": 0.04, "alpha_init": 0.02, "eta": 0.002, "beta": 0.9, "tau": 0.15, "sigma_g1_tilde": 0.005, "sigma_g1": 0.001, "T": 1200, "T0": 150, "I": 3, "N": 5, "S": 2, "Q": 2}}}
# The two instance kinds no config file uses, both with noise.
exp_one      accbo       2   0  -                      {"instance": {"kind": "exp_upper_toy", "params": {"u": [0.3, -0.2], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1], "mu": 1.0, "l_f0": 1.0}, "noise": {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}}, "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.5, "overrides": {"alpha": 0.04, "eta": 0.002, "T": 1500, "T0": 200, "S": 2, "Q": 4}}, "option": "one", "x0": [0.5, -0.5]}
general_two  accbo       2   0  -                      {"instance": {"kind": "general_quadratic", "params": {"H": [[2.0, 0.3], [0.3, 1.0]], "C": [[0.5, 0.1], [0.0, 0.4]], "b": [0.1, -0.1], "c": [0.4, -0.3], "d": [0.2, 0.1], "l_f0": 1.0}, "noise": {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}}, "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.5, "overrides": {"alpha": 0.04, "eta": 0.002, "T": 1500, "T0": 200, "S": 2, "Q": 4, "I": 2, "N": 6}}, "option": "two", "x0": [0.5, -0.5]}
# An inline ridge_weighting document, whose params are checked against the
# PARAMS table of that kind: the cmp-ridge-two instance, the fixture with its
# validation data scaled by 40.
ridge_doc    accbo       2   0  -                      {"instance": {"kind": "ridge_weighting", "params": {"Z": [[0.9477747885049593, 0.5085849021788509, -0.146131691628378], [-0.6008420289368845, -1.3547715968388199, 0.4227198599626369], [1.6250770453504617, -1.0134871226725717, 0.5717090987760849], [0.29015337503636485, -0.05422143532970905, -1.7344414671004895], [0.21823074369631223, 1.6091523073413556, -0.06932058963611176], [0.048695677021045845, -1.3224612713860078, 0.8802903889184316], [-1.0199790165722284, -1.0460596109169722, 0.8459557592066116], [2.637804808920496, 0.10491179662316866, 0.5248796861561874]], "y_tr": [1.6616205103474284, -2.2181304954456484, 2.9453636541176684, 1.762850950607453, -0.6036755573833935, 0.9299989099436576, -0.28546027131208945, 2.7165688321479586], "V": [[68.72005869574255, -17.320210742418254, 51.28761054928727], [-25.161457609980282, -39.376758132513274, 15.47821916588967], [30.67642995797084, 32.581190528796085, -32.613514549031166], [46.916188634731924, 16.582258622046645, -64.88840596247849]], "y_val": [90.20206670427349, -1.6035237522512247, 6.232456056315005, 22.40295783308898], "c_reg": 0.05, "w_radius": 2.0}, "noise": {"sigma_f1": 0.1, "sigma_g1": 0.05, "sigma_g2": 0.0}}, "schedule": {"mode": "practical", "epsilon": 0.1, "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 0.001, "beta": 0.95, "eta": 0.005, "T": 1500, "T0": 200, "S": 2, "Q": 15, "I": 2, "N": 12}}, "option": "two"}
# The same document run by the plain-momentum baseline, the only row whose
# run logs hold the baseline's count columns.
ridge_base   accbo       2   0  -                      {"instance": {"kind": "ridge_weighting", "params": {"Z": [[0.9477747885049593, 0.5085849021788509, -0.146131691628378], [-0.6008420289368845, -1.3547715968388199, 0.4227198599626369], [1.6250770453504617, -1.0134871226725717, 0.5717090987760849], [0.29015337503636485, -0.05422143532970905, -1.7344414671004895], [0.21823074369631223, 1.6091523073413556, -0.06932058963611176], [0.048695677021045845, -1.3224612713860078, 0.8802903889184316], [-1.0199790165722284, -1.0460596109169722, 0.8459557592066116], [2.637804808920496, 0.10491179662316866, 0.5248796861561874]], "y_tr": [1.6616205103474284, -2.2181304954456484, 2.9453636541176684, 1.762850950607453, -0.6036755573833935, 0.9299989099436576, -0.28546027131208945, 2.7165688321479586], "V": [[68.72005869574255, -17.320210742418254, 51.28761054928727], [-25.161457609980282, -39.376758132513274, 15.47821916588967], [30.67642995797084, 32.581190528796085, -32.613514549031166], [46.916188634731924, 16.582258622046645, -64.88840596247849]], "y_val": [90.20206670427349, -1.6035237522512247, 6.232456056315005, 22.40295783308898], "c_reg": 0.05, "w_radius": 2.0}, "noise": {"sigma_f1": 0.1, "sigma_g1": 0.05, "sigma_g2": 0.0}}, "schedule": {"mode": "practical", "epsilon": 0.1, "delta": 0.05, "d0": 1.0, "overrides": {"alpha": 0.001, "beta": 0.95, "eta": 0.005, "T": 1500, "T0": 200, "S": 2, "Q": 15, "I": 2, "N": 12}}, "option": "two", "algorithm": "plain_momentum"}
# Diverging lower levels, each aborted by a non-finite gradient: in the warm
# start (alpha_init 1e10), in option one's step and in option two's round
# (alpha 1e10). tau = 1e-300 keeps y_hat finite, so the lower level aborts
# before the momentum does. Each exits 4 and names its step on stderr.
abort_warm    accbo       2   0  convergence.json  {"schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2, "overrides": {"alpha": 0.04, "alpha_init": 1e10, "eta": 0.002, "T": 400, "T0": 200, "S": 1, "Q": 1, "sigma_g1_tilde": 0.005}}}
abort_one     accbo       2   0  convergence.json  {"schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2, "overrides": {"alpha": 1e10, "alpha_init": 0.04, "tau": 1e-300, "beta": 0.9, "eta": 0.002, "T": 400, "T0": 20, "S": 1, "Q": 1, "sigma_g1_tilde": 0.005}}}
abort_two     accbo       2   0  convergence.json  {"option": "two", "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2, "overrides": {"alpha": 1e10, "alpha_init": 0.04, "tau": 1e-300, "beta": 0.9, "eta": 0.002, "T": 400, "T0": 20, "S": 1, "Q": 1, "I": 3, "N": 5, "sigma_g1_tilde": 0.005}}}
# The baseline's warm start diverging (alpha_init 1e10): it exits 4 and names
# its SGD step on stderr, with no numpy warning before it.
abort_base    accbo  2  0  convergence.json  {"algorithm": "plain_momentum", "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2, "overrides": {"alpha": 0.04, "alpha_init": 1e10, "eta": 0.002, "T": 400, "T0": 200, "S": 1, "Q": 1, "sigma_g1_tilde": 0.005}}}
# Bias draws near 1e160 whose oracle noise norms overflow: bias exits 4 and
# names the non-finite estimate on stderr, with no numpy warning before it.
abort_bias    bias   1  0  bias.json         {"instance": {"kind": "isotropic_quadratic", "params": {"mu": 1.0, "A": [[2.0, 0.0], [0.0, 2.0]], "b": [0.1, -0.1], "c": [0.3, 0.2], "d": [0.2, -0.3], "l_f0": 1.0}, "noise": {"sigma_f1": 1e160, "sigma_g1": 0.2, "sigma_g2": 0.1}}, "Q_grid": [1, 2], "n_samples": 20}
# Bias at a point whose y*(x) overflows: bias exits 4 and names the
# non-finite estimate on stderr, with no numpy warning before it.
abort_bias_x  bias   1  0  bias.json         {"x": [1e308, -1e308], "n_samples": 3, "Q_grid": [1]}
# A tracking grid at alpha 30, whose potentials overflow within T: every cell
# violates its bound and the command exits 3.
track_diverge snag-track  5   0  tracking.json     {"T": 300, "alpha": 30.0}
# Refused configs: each exits 2 and names the field at fault on stderr.
refuse_delta accbo       1   0  convergence.json       {"schedule": {"mode": "practical", "epsilon": 0.05, "delta": 1.5, "d0": 0.2, "overrides": {"alpha": 0.04, "eta": 0.002, "sigma_g1_tilde": 0.005, "T0": 200, "S": 4, "Q": 1}}}
refuse_T     snag-track  1   0  tracking.json          {"T": 2.5}
refuse_mu    accbo       1   0  convergence.json       {"instance": {"kind": "isotropic_quadratic", "params": {"mu": 0, "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1], "c": [0.4, -0.3], "d": [0.2, 0.1], "l_f0": 1.0}, "noise": {"sigma_f1": 0.01, "sigma_g1": 0.001}}}
# A theorem schedule, derived by the closed forms, that refuses its epsilon.
refuse_theorem accbo     1   0  convergence.json       {"schedule": {"mode": "theorem", "epsilon": 100, "delta": 0.05, "d0": 0.2}}
# Instance documents whose constants overflow: a ridge toy with a huge
# training row (l_g1 is NaN), one with a huge validation row (l_f0 is inf) and
# an exp toy with a huge u (Lx1 is inf). Each exits 2 and names the constant on
# stderr, with no numpy warning before it.
refuse_ridge_z accbo     1   0  convergence.json       {"option": "two", "x0": [0.0], "instance": {"kind": "ridge_weighting", "params": {"Z": [[1e200, 0.0]], "y_tr": [1.0], "V": [[1.0, 0.0]], "y_val": [1.0], "c_reg": 1.0}}}
refuse_ridge_v accbo     1   0  convergence.json       {"option": "two", "x0": [0.0], "instance": {"kind": "ridge_weighting", "params": {"Z": [[1.0, 0.0]], "y_tr": [1.0], "V": [[1e200, 0.0]], "y_val": [1.0], "c_reg": 1.0}}}
refuse_exp_u   accbo     1   0  convergence.json       {"instance": {"kind": "exp_upper_toy", "params": {"u": [1e300, 1e300], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1]}}}
# Instance paths that cannot be read: each exits 2 and names the field and the
# file on stderr.
refuse_inst_dir     accbo  1  0  convergence.json  {"instance": "scripts/configs"}
refuse_inst_missing accbo  1  0  convergence.json  {"instance": "scripts/configs/missing.json"}
EOF
)

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
      --seeds "$seeds" --base-seed "$base_seed" --out "$out/$name") 2> "$out/$name.err" || rc=$?
    echo "$rc" > "$out/$name.rc"
  done 3<<< "$COMMANDS"
done

diff -r "$work/out_parent" "$work/out_change"
echo byte-identical
