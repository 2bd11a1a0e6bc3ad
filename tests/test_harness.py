import copy
import json
import logging
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo.harness import (
    ConfigError,
    ExperimentConfig,
    calls_to_target,
    cmd_accbo,
    cmd_bias,
    cmd_snag_track,
    cmd_sweep,
    load_config,
    write_csv,
    write_json,
)
from accbo.optimizer import IterationLog
from accbo import cli
from accbo.problems import instance_to_json

from conftest import analytic_instances


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


SNAG_DOC = {
    "mu": 1.0, "alpha": 0.04, "T": 50, "delta_prob": 0.05, "V0": 1.0,
    "dim": 2, "sigma": [0.0, 0.1],
}

ISO_DOC = {
    "kind": "isotropic_quadratic",
    "params": {"mu": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, 0.0],
               "c": [0.5, -0.5], "d": [0.2, 0.3], "l_f0": 1.0},
    "noise": {"sigma_f1": 0.05, "sigma_g1": 0.1, "sigma_g2": 0.0},
}

ACCBO_DOC = {
    "instance": ISO_DOC,
    "option": "one",
    "schedule": {
        "mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 1.0,
        "overrides": {"alpha": 0.04, "eta": 0.01, "T": 30, "T0": 40},
    },
    "x0": [1.0, 1.0],
}


def with_overrides(**overrides):
    """ACCBO_DOC with its schedule overrides updated."""
    schedule = ACCBO_DOC["schedule"]
    return dict(ACCBO_DOC, schedule=dict(
        schedule, overrides=dict(schedule["overrides"], **overrides)))


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        doc = {"a": 1, "b": [1.5, 2.5]}
        assert load_config(write_config(tmp_path, doc)) == doc

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)

    def test_missing_field_names_field(self, tmp_path):
        doc = dict(SNAG_DOC)
        del doc["alpha"]
        config = ExperimentConfig("snag-track", doc, tmp_path, n_seeds=2)
        with pytest.raises(ConfigError, match="'alpha'"):
            cmd_snag_track(config)

    def test_unknown_field_names_field(self, tmp_path):
        doc = dict(SNAG_DOC, typo_field=1)
        config = ExperimentConfig("snag-track", doc, tmp_path, n_seeds=2)
        with pytest.raises(ConfigError, match="'typo_field'"):
            cmd_snag_track(config)

    def test_invalid_run_options(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig("bias", {}, tmp_path, n_seeds=0)


class TestSerialization:
    def test_csv_floats_round_trip_exactly(self, tmp_path):
        vals = [0.1, 1.0 / 3.0, np.pi, 1e-300, 12345.6789e17]
        records = [{"t": i, "v": v} for i, v in enumerate(vals)]
        path = tmp_path / "out.csv"
        write_csv(records, path, ["t", "v"])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,v"
        for i, v in enumerate(vals):
            parsed = float(lines[i + 1].split(",")[1])
            assert parsed == v  # exact, thanks to 17 significant digits

    def test_csv_uses_lf_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([{"a": 1}], path, ["a"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_sorted_keys_and_numpy_types(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"zeta": np.float64(0.5), "alpha": np.int64(3),
                    "arr": np.array([1.0, 2.0])}, path)
        text = path.read_text(encoding="utf-8")
        assert text.index('"alpha"') < text.index('"arr"') < text.index('"zeta"')
        assert json.loads(text) == {"alpha": 3, "arr": [1.0, 2.0], "zeta": 0.5}


class TestCommands:
    def test_snag_track_outputs(self, tmp_path):
        config = ExperimentConfig("snag-track", dict(SNAG_DOC), tmp_path,
                                  n_seeds=3)
        rc = cmd_snag_track(config)
        summary = json.loads((tmp_path / "snag_track_summary.json").read_text())
        assert rc in (0, 3)
        assert len(summary["cells"]) == 2
        assert (rc == 0) == summary["all_within_delta"]
        csvs = list(tmp_path.glob("track_sigma*.csv"))
        assert len(csvs) == 2
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t,V,bound,dist,phi_gap"

    def test_bias_outputs(self, tmp_path):
        doc = {"instance": ISO_DOC, "Q_grid": [1, 2, 4], "n_samples": 400}
        config = ExperimentConfig("bias", doc, tmp_path)
        rc = cmd_bias(config)
        assert rc == 0  # l_g1 = mu for this instance: bias identically zero
        rows = (tmp_path / "bias.csv").read_text().splitlines()
        assert rows[0] == "Q,S,bias_bound,bias_est,var_est,se"
        assert len(rows) == 4

    def test_accbo_outputs(self, tmp_path):
        config = ExperimentConfig("accbo", dict(ACCBO_DOC), tmp_path, n_seeds=2)
        assert cmd_accbo(config) == 0
        summary = json.loads((tmp_path / "accbo_summary.json").read_text())
        assert len(summary["per_seed"]) == 2
        for k in range(2):
            lines = (tmp_path / f"run_seed{k}.csv").read_text().splitlines()
            assert lines[0].startswith("t,grad_norm,m_norm")
            assert len(lines) == 31  # header + T rows

    def test_accbo_plain_momentum_algorithm(self, tmp_path):
        doc = dict(ACCBO_DOC, algorithm="plain_momentum")
        assert cmd_accbo(ExperimentConfig("accbo", doc, tmp_path)) == 0
        summary = json.loads((tmp_path / "accbo_summary.json").read_text())
        assert summary["algorithm"] == "plain_momentum"

    def test_accbo_unknown_algorithm(self, tmp_path):
        doc = dict(ACCBO_DOC, algorithm="bogus")
        with pytest.raises(ConfigError, match="algorithm"):
            cmd_accbo(ExperimentConfig("accbo", doc, tmp_path))

    def test_instance_from_file_path(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(ISO_DOC), encoding="utf-8")
        doc = dict(ACCBO_DOC, instance=str(inst_path))
        assert cmd_accbo(ExperimentConfig("accbo", doc, tmp_path / "out")) == 0

    def test_sweep_outputs(self, tmp_path):
        doc = {
            "instance": ISO_DOC,
            "option": "one",
            "epsilons": [0.2, 0.1],
            "schedule": {"mode": "practical", "epsilon": 0.0, "delta": 0.05,
                         "d0": 1.0,
                         "overrides": {"alpha": 0.04, "eta": 0.02, "T": 60,
                                       "T0": 40}},
            "x0": [1.0, 1.0],
        }
        config = ExperimentConfig("sweep", doc, tmp_path, n_seeds=2)
        assert cmd_sweep(config) == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert len(summary["table"]) == 4  # 2 epsilons x 2 algorithms

    def test_sweep_unknown_algorithm_runs_nothing(self, tmp_path):
        doc = {
            "instance": ISO_DOC, "option": "one", "epsilons": [0.2],
            "schedule": ACCBO_DOC["schedule"], "algorithms": ["accbo", "acbo"],
        }
        with pytest.raises(ConfigError, match="sweep.algorithms.*'acbo'"):
            cmd_sweep(ExperimentConfig("sweep", doc, tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestInfoLog:
    """ACCBO_LOG=info logs one line per finished unit and changes no output."""

    def run(self, caplog, tmp_path, cmd, command, doc, n_seeds, level):
        out = tmp_path / logging.getLevelName(level)
        caplog.clear()
        with caplog.at_level(level, logger="accbo"):
            cmd(ExperimentConfig(command, doc, out, n_seeds=n_seeds))
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return [r.getMessage() for r in caplog.records if r.name == "accbo"], files

    @pytest.mark.parametrize("cmd, command, doc, n_seeds, units, text", [
        (cmd_snag_track, "snag-track", SNAG_DOC, 2, 2, "violation rate"),
        (cmd_accbo, "accbo", ACCBO_DOC, 2, 2, "running average grad norm"),
        (cmd_sweep, "sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                              "schedule": ACCBO_DOC["schedule"]}, 2, 4,
         "oracle calls to target"),
    ], ids=["snag-track", "accbo", "sweep"])
    def test_one_line_per_unit(self, caplog, tmp_path, cmd, command, doc, n_seeds,
                               units, text):
        info, files = self.run(caplog, tmp_path, cmd, command, doc, n_seeds,
                               logging.INFO)
        assert len(info) == units
        assert all(text in msg for msg in info)
        quiet, quiet_files = self.run(caplog, tmp_path, cmd, command, doc, n_seeds,
                                      logging.WARNING)
        assert quiet == []
        assert files == quiet_files


class TestCallsToTarget:
    def make_log(self, t, grad_norm, calls):
        return IterationLog(t=t, grad_norm_true=grad_norm, m_norm=0.0,
                            y_track_err=0.0, yhat_track_err=0.0, yhat_step=0.0,
                            calls_g1=calls, calls_jvp=0, calls_hvp=0, calls_f=0)

    def test_first_hit(self):
        logs = [self.make_log(0, 4.0, 10), self.make_log(1, 0.0, 20),
                self.make_log(2, 0.0, 30)]
        # running means: 4, 2, 4/3 -> target 1.5 first met at t=2.
        assert calls_to_target(logs, 1.5) == 30.0

    def test_never_hit_is_inf(self):
        logs = [self.make_log(0, 4.0, 10)]
        assert calls_to_target(logs, 0.1) == float("inf")


class TestCli:
    def run_cli(self, args, env_extra=None):
        import os
        env = dict(os.environ)
        env.setdefault("ACCBO_LOG", "quiet")
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "accbo.cli", *args],
            capture_output=True, text=True, env=env,
        )

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"mu": 1.0})  # missing fields
        res = self.run_cli(["snag-track", "--config", str(path),
                            "--out", str(tmp_path / "out")])
        assert res.returncode == 2
        assert "missing required field" in res.stderr

    def test_missing_config_file_exit_code(self, tmp_path):
        res = self.run_cli(["bias", "--config", str(tmp_path / "nope.json"),
                            "--out", str(tmp_path / "out")])
        assert res.returncode == 2

    def test_invalid_log_level(self, tmp_path):
        path = write_config(tmp_path, SNAG_DOC)
        res = self.run_cli(["snag-track", "--config", str(path),
                            "--out", str(tmp_path / "out")],
                           env_extra={"ACCBO_LOG": "chatty"})
        assert res.returncode == 2
        assert "ACCBO_LOG" in res.stderr

    def test_snag_track_success(self, tmp_path):
        path = write_config(tmp_path, dict(SNAG_DOC, sigma=[0.0]))
        res = self.run_cli(["snag-track", "--config", str(path),
                            "--out", str(tmp_path / "out"), "--seeds", "2"])
        assert res.returncode == 0
        assert (tmp_path / "out" / "snag_track_summary.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, ACCBO_DOC)
        for d in ("out1", "out2"):
            res = self.run_cli(["accbo", "--config", str(path),
                                "--out", str(tmp_path / d),
                                "--seeds", "2", "--base-seed", "7"])
            assert res.returncode == 0
        for name in ("accbo_summary.json", "run_seed0.csv", "run_seed1.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == \
                (tmp_path / "out2" / name).read_bytes()

    @pytest.mark.parametrize("command, doc, field", [
        ("snag-track", dict(SNAG_DOC, T="20"), "snag-track.T"),
        ("snag-track", dict(SNAG_DOC, dim=0), "snag-track.dim"),
        ("snag-track", dict(SNAG_DOC, mu=None), "snag-track.mu"),
        ("snag-track", dict(SNAG_DOC, sigma=[0.1, "x"]), "snag-track.sigma"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "dleta": 5}),
         "'dleta'"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "delta": "5"}),
         "snag-track.drift.delta"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "external", "delta": 0.1}),
         "snag-track.drift.kind"),
        ("snag-track", dict(SNAG_DOC, drift=[0.1]), "snag-track.drift"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": ACCBO_DOC["schedule"], "algorithms": ["acbo"]},
         "sweep.algorithms"),
        ("bias", {"instance": {"kind": "fixture_ridge", "sigma_gg": 0.1},
                  "Q_grid": [1], "n_samples": 10}, "bias.instance"),
        ("accbo", dict(ACCBO_DOC, instance=dict(
            ISO_DOC, params=dict(ISO_DOC["params"], l_f9=1.0))), "accbo.instance"),
        ("sweep", {"instance": dict(ISO_DOC, noise={"sigma_g3": 0.1}), "option": "one",
                   "epsilons": [0.2], "schedule": ACCBO_DOC["schedule"]},
         "sweep.instance"),
        ("accbo", dict(ACCBO_DOC, instance="no/such/instance.json"), "accbo.instance"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": "0.1",
                   "schedule": ACCBO_DOC["schedule"]}, "sweep.epsilons"),
        ("bias", {"instance": ISO_DOC, "Q_grid": 3, "n_samples": 10}, "bias.Q_grid"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], epsilon="0.1")),
         "accbo.schedule.epsilon"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": dict(ACCBO_DOC["schedule"], delta="0.05")},
         "sweep.schedule.delta"),
        ("accbo", dict(ACCBO_DOC, schedule=5), "accbo.schedule"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": [1]}, "sweep.schedule"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [],
                   "schedule": ACCBO_DOC["schedule"]}, "sweep.epsilons"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10, "S": "2"},
         "bias.S"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": "10"},
         "bias.n_samples"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10, "x": [0.1]},
         "bias.x"),
        ("accbo", dict(ACCBO_DOC, x0="ab"), "accbo.x0"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": ACCBO_DOC["schedule"], "x0": [1.0, "b"]}, "sweep.x0"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [0], "n_samples": 10}, "bias.Q_grid"),
        ("accbo", dict(ACCBO_DOC, option="three"), "accbo.option"),
        ("accbo", dict(ACCBO_DOC, option="three", algorithm="plain_momentum"),
         "accbo.option"),
        ("accbo", dict(ACCBO_DOC, instance={"kind": "fixture_ridge"}, x0=[0.0] * 8),
         "accbo.option"),
        ("sweep", {"instance": ISO_DOC, "option": "three", "epsilons": [0.2],
                   "schedule": ACCBO_DOC["schedule"]}, "sweep.option"),
        ("sweep", {"instance": {"kind": "fixture_ridge"}, "option": "one",
                   "epsilons": [0.2], "schedule": ACCBO_DOC["schedule"]},
         "sweep.option"),
        ("snag-track", dict(SNAG_DOC, mu=-1), "snag-track.mu"),
        ("snag-track", dict(SNAG_DOC, alpha=0), "snag-track.alpha"),
        ("snag-track", dict(SNAG_DOC, delta_prob=1.5), "snag-track.delta_prob"),
        ("snag-track", dict(SNAG_DOC, V0=-1), "snag-track.V0"),
        ("snag-track", dict(SNAG_DOC, sigma=[0.1, -0.5]), "snag-track.sigma"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "delta": -0.1}),
         "snag-track.drift.delta"),
        ("accbo", with_overrides(alpha="abc"), "accbo.schedule.overrides.alpha"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], overrides=[1])),
         "accbo.schedule.overrides"),
        ("accbo", with_overrides(T="30"), "accbo.schedule.overrides.T"),
        ("accbo", with_overrides(T=2.5), "accbo.schedule.overrides.T"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], mode="fast")),
         "accbo.schedule.mode"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], delta=1.5)),
         "accbo.schedule.delta"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [-0.2],
                   "schedule": ACCBO_DOC["schedule"]}, "sweep.epsilons"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": ACCBO_DOC["schedule"], "algorithms": []},
         "sweep.algorithms"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [], "n_samples": 10}, "bias.Q_grid"),
        ("snag-track", dict(SNAG_DOC, sigma=[]), "snag-track.sigma"),
        ("accbo", dict(ACCBO_DOC, x0=[1.0, float("nan")]), "accbo.x0"),
        ("snag-track", dict(SNAG_DOC, mu=float("inf")), "snag-track.mu"),
        ("accbo", with_overrides(eta=0), "accbo.schedule.overrides.eta"),
        ("bias", {"instance": {"kind": "fixture_ridge", "seed": 1.5},
                  "Q_grid": [1], "n_samples": 10}, "bias.instance.seed"),
        ("accbo", dict(ACCBO_DOC, instance=dict(
            ISO_DOC, params=dict(ISO_DOC["params"], mu=None))),
         "accbo.instance.params.mu"),
        ("sweep", {"instance": dict(ISO_DOC, noise={"sigma_g1": "x"}), "option": "one",
                   "epsilons": [0.2], "schedule": ACCBO_DOC["schedule"]},
         "sweep.instance.noise.sigma_g1"),
        ("bias", {"instance": {"kind": "fixture_ridge", "c_reg": float("inf")},
                  "Q_grid": [1], "n_samples": 10}, "bias.instance.c_reg"),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, command, doc,
                                        field):
        path = write_config(tmp_path, doc)
        rc = cli.main([command, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_info_log_goes_to_stderr(self, tmp_path):
        path = write_config(tmp_path, SNAG_DOC)
        res = self.run_cli(["snag-track", "--config", str(path),
                            "--out", str(tmp_path / "out"), "--seeds", "2"],
                           env_extra={"ACCBO_LOG": "info"})
        assert res.returncode in (0, 3)
        assert res.stdout == ""
        assert res.stderr.count("violation rate") == len(SNAG_DOC["sigma"])

    def test_main_callable_directly(self, tmp_path):
        path = write_config(tmp_path, dict(SNAG_DOC, sigma=[0.0]))
        rc = cli.main(["snag-track", "--config", str(path),
                       "--out", str(tmp_path / "out"), "--seeds", "2"])
        assert rc == 0


class TestInstanceFixtureLoading:
    def test_fixture_ridge_inline(self, tmp_path):
        doc = {
            "instance": {"kind": "fixture_ridge", "sigma_g1": 0.1},
            "Q_grid": [1], "n_samples": 50,
        }
        rc = cmd_bias(ExperimentConfig("bias", doc, tmp_path))
        assert rc in (0, 3)

    def test_all_kinds_serializable_for_configs(self, tmp_path):
        for inst in analytic_instances():
            text = instance_to_json(inst)
            assert json.loads(text)["kind"] == inst.kind


# The fuzz test's base documents, one per command, each running in well
# under a second.
FUZZ_DOCS = {
    "snag-track": dict(SNAG_DOC, drift={"kind": "random_walk", "delta": 0.01}),
    "bias": {"instance": ISO_DOC, "Q_grid": [1, 2], "n_samples": 20},
    "accbo": ACCBO_DOC,
    "sweep": {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
              "schedule": ACCBO_DOC["schedule"]},
}
# Replacement values; no large numbers, so that no run outgrows its base doc.
FUZZ_VALUES = [None, True, "x", [], {}, [1, "a"], -1, 0, 1.5, math.nan, math.inf]


@st.composite
def mutated_configs(draw):
    """A base doc with one field deleted, added or replaced, at the top level
    or in its schedule, overrides or drift object."""
    command = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    doc = copy.deepcopy(FUZZ_DOCS[command])
    schedule = doc.get("schedule", {})
    objects = [("top", doc), ("schedule", schedule),
               ("overrides", schedule.get("overrides")), ("drift", doc.get("drift"))]
    where, target = draw(st.sampled_from([o for o in objects if o[1]]))
    # Deleting an override would fall back to a derived count (T = 8000 for
    # ACCBO_DOC), so overrides are only added or replaced.
    kinds = ["add", "replace"] + (["delete"] if where != "overrides" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "add":
        target["unknown"] = draw(st.sampled_from(FUZZ_VALUES))
    else:
        name = draw(st.sampled_from(sorted(target)))
        if kind == "delete":
            del target[name]
        else:
            target[name] = draw(st.sampled_from(FUZZ_VALUES))
    return command, doc


# The four docs admit 559 distinct mutations; Hypothesis stops once it has
# tried them all, so this bound makes the search exhaustive.
@settings(max_examples=1000, deadline=None)
@given(mutated_configs())
def test_fuzzed_config_exits_cleanly(case):
    """Any one-field mutation of a valid config ends in a documented exit code,
    never a traceback, and a config error leaves no output directory."""
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        rc = cli.main([command, "--config", str(path), "--out", str(out),
                       "--seeds", "2"])
        assert rc in (0, 2, 3, 4)
        if rc == 2:
            assert not out.exists()

