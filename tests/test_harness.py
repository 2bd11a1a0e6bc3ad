import copy
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo import hypergrad, optimizer, snag
from accbo.constants import PRACTICAL_OVERRIDES, ConstraintViolation, derive_schedule
from accbo.harness import (
    RUN_COLUMNS,
    _fmt,
    _median,
    _summarize_run,
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
from accbo.hypergrad import EstimatorConfig
from accbo.problems import ARRAY, INSTANCE_KINDS, NOISE, instance_from_dict, \
    make_fixture_ridge
from accbo.snag import DriftProcess, TrackingBoundParams

from conftest import analytic_instances, run_log_of


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


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

# ACCBO_DOC's schedule without its epsilon: sweep takes each from epsilons.
SWEEP_SCHEDULE = {k: v for k, v in ACCBO_DOC["schedule"].items() if k != "epsilon"}


def with_params(**params):
    """ACCBO_DOC with its instance's params updated."""
    return dict(ACCBO_DOC, instance=dict(ISO_DOC, params=dict(ISO_DOC["params"], **params)))


def with_schedule(**fields):
    """ACCBO_DOC with its schedule's fields updated."""
    return dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], **fields))


def with_overrides(**overrides):
    """ACCBO_DOC with its schedule overrides updated."""
    return with_schedule(overrides=dict(ACCBO_DOC["schedule"]["overrides"], **overrides))


# A theorem schedule for ISO_DOC whose closed forms refuse 1 - beta < 0: at
# epsilon 0.05 they would derive T = 8.3e10, a run no test can wait for.
THEOREM_SCHEDULE = {"mode": "theorem", "epsilon": 500.0, "delta": 0.05, "d0": 1.0}


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


# Values of an integer and of a float CSV column: the int64 extremes, and the
# floats whose text is special: signed zeros, infinities, NaN and subnormals.
# Each comes as a Python and as a numpy scalar.
csv_ints = st.one_of(st.integers(-2**63, 2**63 - 1),
                     st.integers(-2**63, 2**63 - 1).map(np.int64),
                     st.sampled_from([-2**63, 2**63 - 1, np.int64(-2**63), np.int64(2**63 - 1)]))
csv_floats = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     np.float64(-0.0), np.float64(1e-320)]))


class TestSerialization:
    def test_csv_floats_round_trip_exactly(self, tmp_path):
        vals = [0.1, 1.0 / 3.0, np.pi, 1e-300, 12345.6789e17]
        path = tmp_path / "out.csv"
        write_csv({"t": np.arange(len(vals)), "v": vals}, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,v"
        for i, v in enumerate(vals):
            parsed = float(lines[i + 1].split(",")[1])
            assert parsed == v  # exact, thanks to 17 significant digits

    # Each column is formatted with one %-format chosen by its dtype; every
    # value must come out as _fmt writes it alone.
    @given(columns=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.one_of(st.lists(csv_ints, min_size=n, max_size=n),
                  st.lists(csv_floats, min_size=n, max_size=n)), min_size=1, max_size=6)))
    @settings(max_examples=300)
    def test_csv_cells_are_fmt_of_each_value(self, columns):
        table = {f"c{j}": column for j, column in enumerate(columns)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_csv(table, path)
            lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines == [",".join(table)] + [
            ",".join(_fmt(v) for v in row) for row in zip(*columns)] + [""]

    @pytest.mark.parametrize("table, name", [
        ({"a": [1, 2], "b": [0.5]}, "b"),
        ({"a": np.arange(3), "b": np.zeros(3), "c": np.zeros(4)}, "c"),
        ({"a": [1.0], "flag": [True]}, "flag"),
        ({"a": ["x"]}, "a"),
        ({"a": [1], "big": [2**64]}, "big"),
        ({"a": np.zeros((2, 2))}, "a"),
    ], ids=["lengths", "last_length", "bool", "text", "object", "2d"])
    def test_malformed_table_refused_before_the_file_is_opened(self, tmp_path, table, name):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"^CSV column '{name}' "):
            write_csv(table, path)
        assert not path.exists()

    def test_csv_uses_lf_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv({"a": [1]}, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_run_log_csv_is_written_in_blocks(self, tmp_path):
        # Formatted whole, 20,000 rows would peak at about 14 MiB.
        logs = random_run_log(0, 20_000)
        path = tmp_path / "run.csv"
        tracemalloc.start()
        try:
            write_csv({name: logs.columns[field] for name, field in RUN_COLUMNS.items()}, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines == [",".join(RUN_COLUMNS)] + [
            ",".join(_fmt(getattr(rec, field)) for field in RUN_COLUMNS.values())
            for rec in logs] + [""]

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"zeta": 0.5, "alpha": 3, "arr": [1.0, 2.0]}, path)
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

    def test_accbo_option_one_on_exp_toy(self, tmp_path):
        exp = {"kind": "exp_upper_toy",
               "params": {"u": [0.3, -0.2], "A": [[0.5, 0.0], [0.0, 0.5]],
                          "b": [0.1, -0.1], "mu": 1.0, "l_f0": 1.0},
               "noise": {"sigma_f1": 0.05, "sigma_g1": 0.05, "sigma_g2": 0.05}}
        doc = dict(ACCBO_DOC, instance=exp, x0=[0.5, -0.5])
        assert cmd_accbo(ExperimentConfig("accbo", doc, tmp_path)) == 0
        summary = json.loads((tmp_path / "accbo_summary.json").read_text())
        assert summary["option"] == "one"

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
            "schedule": {"mode": "practical", "delta": 0.05, "d0": 1.0,
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
            "schedule": SWEEP_SCHEDULE, "algorithms": ["accbo", "acbo"],
        }
        with pytest.raises(ConfigError, match="sweep.algorithms.*'acbo'"):
            cmd_sweep(ExperimentConfig("sweep", doc, tmp_path / "out"))
        assert not (tmp_path / "out").exists()


# One valid instance document of each kind; ISO_DOC is the isotropic one.
INSTANCE_DOCS = {
    "isotropic_quadratic": ISO_DOC,
    "general_quadratic": {"kind": "general_quadratic", "params": {
        "H": [[2.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0],
        "c": [0.0, 0.0], "d": [0.0, 0.0]}},
    "ridge_weighting": {"kind": "ridge_weighting", "params": {
        "Z": [[1.0, 0.0]], "y_tr": [0.5], "V": [[0.0, 1.0]], "y_val": [0.5], "c_reg": 0.1}},
    "exp_upper_toy": {"kind": "exp_upper_toy", "params": {
        "u": [0.3, -0.2], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1]}},
}
# A theorem schedule for sweep, whose closed forms derive at epsilon 0.05.
THEOREM_SWEEP = {"instance": ISO_DOC, "option": "one", "epsilons": [0.05],
                 "schedule": {"mode": "theorem", "delta": 0.05, "d0": 1.0}}


def with_entry(doc, keys, value):
    """A deep copy of doc whose entry at keys (keys of objects, indices of
    lists) is value."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


def field_path(command: str, keys) -> str:
    """The path that a config error gives for the entry at keys."""
    return command + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def field_cases():
    """Each config field that a library record or function reads, as
    (command, base doc, the field's keys in it, the library's name for the
    field, the library call, its base keywords, the field's keys in them)."""
    iso = instance_from_dict(ISO_DOC).constants
    schedule = lambda kw: derive_schedule(iso, **kw)
    practical, theorem = ACCBO_DOC["schedule"], dict(THEOREM_SWEEP["schedule"], epsilon=0.05)
    bias = {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10}
    cases = [("accbo", ACCBO_DOC, ("schedule", "overrides", name), f"override {name}",
              schedule, practical, ("overrides", name)) for name in PRACTICAL_OVERRIDES]
    cases += [("accbo", ACCBO_DOC, ("schedule", name), name, schedule, practical, (name,))
              for name in ("delta", "d0", "epsilon")]
    cases += [("sweep", THEOREM_SWEEP, ("schedule", name), name, schedule, theorem, (name,))
              for name in ("delta", "d0", "sigma_g1_tilde", "y0_gap")]
    cases.append(("sweep", THEOREM_SWEEP, ("epsilons", 0), "epsilon", schedule, theorem,
                  ("epsilon",)))
    bound = dict(mu=1.0, alpha=0.04, sigma=0.1, T=10, delta_prob=0.05, V0=1.0)
    cases += [("snag-track", SNAG_DOC, (name,), name, lambda kw: TrackingBoundParams(**kw),
               bound, (name,)) for name in ("mu", "alpha", "T", "delta_prob", "V0", "sigma")]
    cases.append(("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "delta": 0.01}),
                  ("drift", "delta"), "delta", lambda kw: DriftProcess(**kw),
                  {"kind": "random_walk", "delta": 0.01}, ("delta",)))
    cases.append(("bias", bias, ("Q_grid", 0), "Q", lambda kw: EstimatorConfig(**kw),
                  {"Q": 1, "S": 1, "l_g1": 1.0}, ("Q",)))
    for kind, cls in INSTANCE_KINDS.items():
        doc = dict(bias, instance=INSTANCE_DOCS[kind])
        cases += [("bias", doc, ("instance", "params", name), name, instance_from_dict,
                   doc["instance"], ("params", name))
                  for name, (domain, _) in cls.PARAMS.items() if domain is not ARRAY]
    cases += [("bias", bias, ("instance", "noise", name), name, instance_from_dict,
               ISO_DOC, ("noise", name)) for name in NOISE]
    fixture = lambda kw: make_fixture_ridge(**kw)
    cases += [("bias", dict(bias, instance={"kind": "fixture_ridge"}), ("instance", name),
               name, fixture, {}, (name,)) for name in ("c_reg", *NOISE)]
    return [pytest.param(*case, id=field_path(case[0], case[2])) for case in cases]


class Ran(Exception):
    """Raised in place of a command's run, once the command has built its inputs."""


def ran(*args, **kwargs):
    raise Ran


@pytest.mark.parametrize("value", [0, 1, -1, 0.5, 1.5, 2.5, math.nan, math.inf, True,
                                   10**400],
                         ids=["0", "1", "-1", "0.5", "1.5", "2.5", "nan", "inf", "True",
                              "10**400"])
@pytest.mark.parametrize("command, doc, keys, name, read, kwargs, read_keys", field_cases())
def test_field_accepted_iff_the_library_accepts(monkeypatch, tmp_path, command, doc, keys,
                                                name, read, kwargs, read_keys, value):
    """A command builds its inputs from a config field exactly when the
    library call that reads the field accepts its value: both check it
    against one table. A value outside the field's domain is refused at the
    field's path, in the library's words."""
    for owner, runner in ((optimizer, "run_accbo"), (snag, "mc_tracking_grid"),
                          (hypergrad, "empirical_bias_and_variance")):
        monkeypatch.setattr(owner, runner, ran)
    try:
        read(with_entry(kwargs, read_keys, value))
        refusal = None
    except ConstraintViolation as exc:
        refusal = str(exc)
    config = ExperimentConfig(command, with_entry(doc, keys, value), tmp_path / "out")
    with pytest.raises((ConfigError, ConstraintViolation, Ran)) as outcome:
        cli._COMMANDS[command](config)
    assert (outcome.type is Ran) == (refusal is None)
    if refusal is not None and refusal.startswith(f"{name} must be "):
        assert str(outcome.value) == f"{field_path(command, keys)}: {refusal[len(name) + 1:]}"


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
                              "schedule": SWEEP_SCHEDULE}, 2, 4,
         "oracle calls to target"),
        (cmd_bias, "bias", {"instance": ISO_DOC, "Q_grid": [1, 2, 4], "n_samples": 50},
         1, 3, "bias estimate"),
    ], ids=["snag-track", "accbo", "sweep", "bias"])
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
        logs = run_log_of([self.make_log(0, 4.0, 10), self.make_log(1, 0.0, 20),
                           self.make_log(2, 0.0, 30)])
        # running means: 4, 2, 4/3 -> target 1.5 first met at t=2.
        assert calls_to_target(logs, 1.5) == 30.0

    def test_never_hit_is_inf(self):
        logs = run_log_of([self.make_log(0, 4.0, 10)])
        assert calls_to_target(logs, 0.1) == float("inf")


def random_run_log(seed, n):
    """A RunLog of n rows: gradient norms over six decades, cumulative counts
    and rare zero-momentum flags."""
    gen = np.random.default_rng(seed)
    calls = np.cumsum(gen.integers(0, 50, size=(4, n)), axis=1)
    return optimizer.RunLog({
        "t": np.arange(n), "grad_norm_true": gen.random(n) * 10.0 ** gen.integers(-3, 3, n),
        **{name: gen.random(n) for name in ("m_norm", "y_track_err", "yhat_track_err",
                                            "yhat_step")},
        **dict(zip(("calls_g1", "calls_jvp", "calls_hvp", "calls_f"), calls)),
        "zero_momentum": gen.random(n) < 0.05,
    })


def calls_to_target_rows(logs, target):
    """calls_to_target as a loop over the rows: the reference."""
    running = 0.0
    for i, rec in enumerate(logs):
        running += rec.grad_norm_true
        if running / (i + 1) <= target:
            return float(rec.total_calls)
    return math.inf


def summarize_rows(logs):
    """_summarize_run from the rows: the reference."""
    return {
        "iterations": len(logs),
        "running_avg_grad_norm": float(np.mean([rec.grad_norm_true for rec in logs])),
        "final_grad_norm": logs[-1].grad_norm_true,
        "total_oracle_calls": logs[-1].total_calls,
        "zero_momentum_events": sum(1 for rec in logs if rec.zero_momentum),
    }


class TestColumnReaders:
    """Each reader of a RunLog's columns equals its loop over the rows."""

    @pytest.mark.parametrize("seed", range(8))
    def test_calls_to_target_equals_the_row_loop(self, seed):
        logs, means, running = random_run_log(seed, 300), [], 0.0
        for i, rec in enumerate(logs):
            running += rec.grad_norm_true
            means.append(running / (i + 1))
        # A target between the running means, one exactly equal to a running
        # mean (met at that row or earlier), one below them all and one above.
        for target in (float(np.median(means)), means[150], min(means) / 2, max(means)):
            got = calls_to_target(logs, target)
            assert got == calls_to_target_rows(logs, target)
            assert type(got) is float
        assert calls_to_target(logs, min(means) / 2) == math.inf

    def test_running_mean_equal_to_the_target_meets_it(self):
        logs = run_log_of([IterationLog(t, g, 0.0, 0.0, 0.0, 0.0, 10 * (t + 1), 0, 0, 0)
                           for t, g in enumerate([3.0, 1.0, 2.0])])
        # Running means 3, 2, 2: the first one equal to 2 is at t = 1.
        assert calls_to_target(logs, 2.0) == calls_to_target_rows(logs, 2.0) == 20.0

    @pytest.mark.parametrize("seed", range(4))
    def test_summary_equals_the_row_forms(self, seed):
        logs = random_run_log(seed, 257)
        got, want = _summarize_run(logs), summarize_rows(logs)
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
        avg = optimizer.running_average_grad_norm(logs)
        assert avg == want["running_avg_grad_norm"] and type(avg) is float


class TestMedian:
    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [5.0, 1.0, 3.0], [4.0, 1.0, 3.0, 2.0], [2.0, 2.0, 1.0, 2.0],
        [1.0, math.inf], [math.inf, math.inf, 1.0], [-math.inf, math.inf],
        [math.inf, math.inf], [1.0, math.nan, 2.0], [math.nan], [math.nan, math.inf],
        [0.1, 0.2], [1e308, 1e308], [1e308, 1.7e308], [-0.0, 0.0],
    ])
    def test_equals_np_median(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            want = float(np.median(values))
        got = _median(values)
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:  # the sign of a zero too
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_no_command_imports_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on its first call, for 1.3 MiB of memory.
        sweep = {"instance": ISO_DOC, "option": "one", "epsilons": [0.2, 0.1],
                 "schedule": SWEEP_SCHEDULE, "x0": [1.0, 1.0]}
        args = []
        for cmd, doc in (("sweep", sweep), ("accbo", ACCBO_DOC)):
            args += [cmd, str(write_config(tmp_path, doc, f"{cmd}.json")), str(tmp_path / cmd)]
        script = ("import sys\n"
                  "from accbo import cli\n"
                  "for cmd, config, out in zip(*[iter(sys.argv[1:])] * 3):\n"
                  "    assert cli.main([cmd, '--config', config, '--out', out, '--seeds', '2']) == 0\n"
                  "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
                   "schedule": SWEEP_SCHEDULE, "algorithms": ["acbo"]},
         "sweep.algorithms"),
        ("bias", {"instance": {"kind": "fixture_ridge", "sigma_gg": 0.1},
                  "Q_grid": [1], "n_samples": 10}, "bias.instance"),
        ("accbo", dict(ACCBO_DOC, instance=dict(
            ISO_DOC, params=dict(ISO_DOC["params"], l_f9=1.0))), "accbo.instance"),
        ("sweep", {"instance": dict(ISO_DOC, noise={"sigma_g3": 0.1}), "option": "one",
                   "epsilons": [0.2], "schedule": SWEEP_SCHEDULE},
         "sweep.instance"),
        ("accbo", dict(ACCBO_DOC, instance="no/such/instance.json"), "accbo.instance"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": "0.1",
                   "schedule": SWEEP_SCHEDULE}, "sweep.epsilons"),
        ("bias", {"instance": ISO_DOC, "Q_grid": 3, "n_samples": 10}, "bias.Q_grid"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(ACCBO_DOC["schedule"], epsilon="0.1")),
         "accbo.schedule.epsilon"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": dict(SWEEP_SCHEDULE, delta="0.05")},
         "sweep.schedule.delta"),
        ("accbo", dict(ACCBO_DOC, schedule=5), "accbo.schedule"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": [1]}, "sweep.schedule"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [],
                   "schedule": SWEEP_SCHEDULE}, "sweep.epsilons"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10, "S": "2"},
         "bias: unknown field 'S'"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": "10"},
         "bias.n_samples"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10, "x": [0.1]},
         "bias.x"),
        ("accbo", dict(ACCBO_DOC, x0="ab"), "accbo.x0"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": SWEEP_SCHEDULE, "x0": [1.0, "b"]}, "sweep.x0"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [0], "n_samples": 10}, "bias.Q_grid"),
        ("accbo", dict(ACCBO_DOC, option="three"), "accbo.option"),
        ("accbo", dict(ACCBO_DOC, option="three", algorithm="plain_momentum"),
         "accbo.option"),
        ("accbo", dict(ACCBO_DOC, instance={"kind": "fixture_ridge"}, x0=[0.0] * 8),
         "accbo.option"),
        ("sweep", {"instance": ISO_DOC, "option": "three", "epsilons": [0.2],
                   "schedule": SWEEP_SCHEDULE}, "sweep.option"),
        ("sweep", {"instance": {"kind": "fixture_ridge"}, "option": "one",
                   "epsilons": [0.2], "schedule": SWEEP_SCHEDULE},
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
                   "schedule": SWEEP_SCHEDULE}, "sweep.epsilons"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": SWEEP_SCHEDULE, "algorithms": []},
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
                   "epsilons": [0.2], "schedule": SWEEP_SCHEDULE},
         "sweep.instance.noise.sigma_g1"),
        ("bias", {"instance": {"kind": "fixture_ridge", "c_reg": float("inf")},
                  "Q_grid": [1], "n_samples": 10}, "bias.instance.c_reg"),
        # Instance params are checked against their kind's PARAMS table.
        ("accbo", with_params(b=[math.inf, 0.0]), "accbo.instance.params.b[0]"),
        ("accbo", with_params(c=[math.nan, 0.0]), "accbo.instance.params.c[0]"),
        ("accbo", with_params(d=[True, 0.0]), "accbo.instance.params.d[0]"),
        ("accbo", with_params(A=[[math.nan, 0.0], [0.0, 1.0]]),
         "accbo.instance.params.A[0][0]"),
        ("accbo", dict(ACCBO_DOC, option="two", x0=[0.0], instance={
            "kind": "ridge_weighting",
            "params": {"Z": [[1.0, 0.0]], "y_tr": [math.nan], "V": [[0.0, 1.0]],
                       "y_val": [0.5], "c_reg": 0.1}}),
         "accbo.instance.params.y_tr[0]"),
        ("accbo", with_params(c_reg=0.1), "accbo.instance.params: unknown field 'c_reg'"),
        ("accbo", dict(ACCBO_DOC, instance=dict(ISO_DOC, params={
            k: v for k, v in ISO_DOC["params"].items() if k != "d"})),
         "accbo.instance.params: missing required field 'd'"),
        ("accbo", dict(ACCBO_DOC, option="two", instance={
            "kind": "general_quadratic",
            "params": {"H": [[2.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
                       "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [0.0, 0.0],
                       "w_radius": 2.0}}),
         "accbo.instance.params: unknown field 'w_radius'"),
        ("accbo", with_params(A=[[]]), "accbo.instance.params.A[0]"),
        # An array is rectangular: the first entry whose shape differs is named.
        ("accbo", dict(ACCBO_DOC, option="two", instance={
            "kind": "general_quadratic",
            "params": {"H": [[2.0, 0.3], [0.3]], "C": [[1.0, 0.0], [0.0, 1.0]],
                       "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [0.0, 0.0]}}),
         "accbo.instance.params.H[1]: must have the shape (2,) of entry 0, got [0.3]"),
        ("accbo", with_params(A=[[0.5, 0.0], 0.5]),
         "accbo.instance.params.A[1]: must have the shape (2,) of entry 0, got 0.5"),
        ("accbo", with_params(A=[[[0.5], [0.0]], [[0.0], [0.5, 1.0]]]),
         "accbo.instance.params.A[1][1]: must have the shape (1,) of entry 0"),
        ("accbo", dict(ACCBO_DOC, instance={"kind": "ridge"}), "accbo.instance.kind"),
        # Each schedule mode's table holds only the fields that the mode reads.
        ("accbo", with_schedule(**THEOREM_SCHEDULE),
         "accbo.schedule: unknown field 'overrides'"),
        ("accbo", with_schedule(sigma_g1_tilde=0.5),
         "accbo.schedule: unknown field 'sigma_g1_tilde'"),
        ("accbo", with_schedule(y0_gap=0.5), "accbo.schedule: unknown field 'y0_gap'"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": dict(SWEEP_SCHEDULE, epsilon=-1)},
         "sweep.schedule: unknown field 'epsilon'"),
        # Each override is checked against its domain, and alpha is required.
        ("accbo", with_overrides(beta=-1), "accbo.schedule.overrides.beta"),
        ("accbo", with_overrides(beta=1.5), "accbo.schedule.overrides.beta"),
        ("accbo", with_overrides(tau=0), "accbo.schedule.overrides.tau"),
        ("accbo", with_overrides(tau=-1), "accbo.schedule.overrides.tau"),
        ("accbo", with_overrides(sigma_g1_tilde=-5),
         "accbo.schedule.overrides.sigma_g1_tilde"),
        ("accbo", with_schedule(overrides={}),
         "accbo.schedule.overrides: missing required field 'alpha'"),
        # A derived value that derive_schedule refuses is reported at the schedule.
        ("accbo", with_overrides(alpha=1.5), "accbo.schedule: beta must be"),
        ("accbo", with_params(mu=1e160), "accbo.schedule: beta must be"),
        ("accbo", dict(ACCBO_DOC, schedule=THEOREM_SCHEDULE),
         "accbo.schedule: theorem-mode 1-beta"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": dict(SWEEP_SCHEDULE, overrides={"alpha": 4.0})},
         "sweep.schedule: beta must be"),
        # A derived T of 8e163 (2e163 at epsilon 0.2): more oracle calls than the
        # count columns hold.
        ("accbo", with_schedule(d0=1e160, overrides={"alpha": 0.04, "eta": 0.01}),
         "accbo.schedule: T = 8e+163 and T0 = 8e+163 may need 2**63 or more oracle calls"),
        ("accbo", dict(with_schedule(d0=1e160, overrides={"alpha": 0.04, "eta": 0.01}),
                       algorithm="plain_momentum"), "accbo.schedule: T = 8e+163 and T0"),
        ("sweep", {"instance": ISO_DOC, "option": "two", "epsilons": [0.05, 0.2],
                   "schedule": dict(SWEEP_SCHEDULE, d0=1e160,
                                    overrides={"alpha": 0.04, "eta": 0.01})},
         "sweep.schedule: T = 8e+163 and T0 = 8e+163"),
        # A closed form that divides by a quantity that underflowed to 0.
        ("accbo", with_schedule(epsilon=1e-200, overrides={"alpha": 0.04, "eta": 1e-200}),
         "accbo.schedule: the practical-mode schedule underflows: float division by zero"),
        ("accbo", dict(ACCBO_DOC, schedule=dict(THEOREM_SCHEDULE, epsilon=1e-110)),
         "accbo.schedule: the theorem-mode schedule underflows: float division by zero"),
        # A T and delta_prob whose log factor is not finite are refused by name,
        # before any sigma or delta.
        ("snag-track", dict(SNAG_DOC, delta_prob=1e-320),
         "error: snag-track: the tracking bound's log factor log(e*T/delta_prob) of "
         "T = 50 and delta_prob = 1e-320 is not finite\n"),
        # A sigma or drift delta whose bound floor is not finite is refused by path.
        ("snag-track", dict(SNAG_DOC, sigma=[1e160]), "snag-track.sigma[0]"),
        ("snag-track", dict(SNAG_DOC, sigma=[0.1, 1.3e154]), "snag-track.sigma[1]"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "delta": [1e160]}),
         "snag-track.drift.delta[0]"),
        # The drift is tagged by its kind: "none" takes no delta, the others need one.
        ("snag-track", dict(SNAG_DOC, drift={"delta": [0.01]}), "snag-track.drift.kind"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "none", "delta": [0.01]}),
         "snag-track.drift: unknown field 'delta'"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk"}),
         "snag-track.drift: missing required field 'delta'"),
        ("snag-track", dict(SNAG_DOC, drift={}), "snag-track.drift.kind"),
        # bias draws single-sample estimates: it has no batch size.
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10, "S": 2},
         "bias: unknown field 'S'"),
        # A list that a command runs over holds distinct values.
        ("snag-track", dict(SNAG_DOC, sigma=[0.1, 0.1]),
         "snag-track.sigma[1]: must differ from entry 0, got 0.1"),
        ("snag-track", dict(SNAG_DOC, sigma=[0, 0.0]), "snag-track.sigma[1]"),
        ("snag-track", dict(SNAG_DOC, drift={"kind": "random_walk", "delta": [0.01, 0.01]}),
         "snag-track.drift.delta[1]"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1, 1], "n_samples": 10}, "bias.Q_grid[1]"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.1, 0.1],
                   "schedule": SWEEP_SCHEDULE}, "sweep.epsilons[1]"),
        ("sweep", {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
                   "schedule": SWEEP_SCHEDULE, "algorithms": ["accbo", "accbo"]},
         "sweep.algorithms[1]"),
        # What the tracking grid refuses is reported at the command: a V0 whose
        # start row overflows, and a sigma and delta whose floors are finite
        # alone but not together.
        ("snag-track", dict(SNAG_DOC, mu=0.5, V0=1.7e308), "snag-track: V0 = 1.7e+308"),
        ("snag-track", dict(SNAG_DOC, sigma=[4e153],
                            drift={"kind": "random_walk", "delta": [1e152]}),
         "snag-track: the tracking bound floor of sigma = 4e+153 and delta = 1e+152"),
        # A size whose arrays do not fit in memory is refused at the command. Each
        # asks for more than a 47-bit address space, so it fails at once.
        ("snag-track", dict(SNAG_DOC, T=10**15), "snag-track: Unable to allocate"),
        ("bias", {"instance": ISO_DOC, "Q_grid": [1], "n_samples": 10**15},
         "bias: Unable to allocate"),
        # "An integer >= 1" means one thing everywhere: a count too large for a
        # double is refused at its own field.
        ("snag-track", dict(SNAG_DOC, T=10**400),
         "snag-track.T: must be an integer >= 1, got 1000"),
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

    def test_underflowing_derived_T_unused_with_a_T_override(self, tmp_path, capsys):
        # eta * epsilon underflows to 0, but T is given, so it is never divided by.
        doc = with_schedule(epsilon=1e-200, overrides={"alpha": 0.04, "eta": 1e-200,
                                                       "T": 5, "T0": 5})
        path = write_config(tmp_path, doc)
        rc = cli.main(["accbo", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "out" / "accbo_summary.json").exists()

    def test_overflowing_momentum_exit_code(self, tmp_path, capsys):
        # Momentum entries near 1e160 are finite, but their norm overflows.
        doc = dict(ACCBO_DOC, instance=dict(ISO_DOC, noise=dict(ISO_DOC["noise"],
                                                               sigma_f1=1e160)))
        path = write_config(tmp_path, doc)
        with np.errstate(over="ignore"):
            rc = cli.main(["accbo", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert "non-finite momentum at t=0" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bias_exit_code(self, tmp_path, capsys):
        # Draws near 1e160 are finite, but their squares, and so the bias,
        # the variance and the standard error, overflow.
        instance = dict(ISO_DOC, noise=dict(ISO_DOC["noise"], sigma_f1=1e160))
        path = write_config(tmp_path, {"instance": instance, "Q_grid": [1, 2],
                                       "n_samples": 20})
        rc = cli.main(["bias", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert "bias inf, variance inf or standard error inf at Q = 1 is not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "bias.csv").exists()

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_base_seed_outside_64_bits_exit_code(self, tmp_path, capsys, base_seed):
        # Masked to 64 bits, -1 would write the outputs of 2**64 - 1, and 2**64
        # those of 0.
        path = write_config(tmp_path, dict(SNAG_DOC, sigma=[0.0]))
        rc = cli.main(["snag-track", "--config", str(path), "--out",
                       str(tmp_path / "out"), "--base-seed", str(base_seed)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "base_seed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_base_seed_at_64_bit_edge_runs(self, tmp_path):
        path = write_config(tmp_path, dict(SNAG_DOC, sigma=[0.0]))
        assert cli.main(["snag-track", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--base-seed", str(2**64 - 1)]) == 0

    def test_overflowing_V0_exit_code(self, tmp_path, capsys):
        # V0 / mu overflows: the start row would be infinite and its potential NaN.
        path = write_config(tmp_path, {"mu": 0.5, "alpha": 0.04, "T": 5,
                                       "delta_prob": 0.05, "V0": 1.7e308, "dim": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["snag-track", "--config", str(path),
                           "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "V0 = 1.7e+308" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # scripts/check_identical.sh's abort_* and track_diverge rows: a lower level
    # that diverges in the warm start, in option one's step and in option two's
    # round, a baseline warm start that diverges, bias draws that overflow, bias
    # at a point whose y*(x) overflows, and a tracking grid whose potentials
    # overflow. tau = 1e-300 keeps y_hat finite, so the lower level aborts
    # before the momentum does.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, base, fields, n_seeds, rc, err", [
        ("accbo", "convergence.json",
         {"schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2,
                       "overrides": {"alpha": 0.04, "alpha_init": 1e10, "eta": 0.002,
                                     "T": 400, "T0": 200, "S": 1, "Q": 1,
                                     "sigma_g1_tilde": 0.005}}},
         2, 4, "numerical abort: non-finite gradient at iteration 61\n"),
        ("accbo", "convergence.json",
         {"schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2,
                       "overrides": {"alpha": 1e10, "alpha_init": 0.04, "tau": 1e-300,
                                     "beta": 0.9, "eta": 0.002, "T": 400, "T0": 20,
                                     "S": 1, "Q": 1, "sigma_g1_tilde": 0.005}}},
         2, 4, "numerical abort: non-finite gradient at iteration 61\n"),
        ("accbo", "convergence.json",
         {"option": "two",
          "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2,
                       "overrides": {"alpha": 1e10, "alpha_init": 0.04, "tau": 1e-300,
                                     "beta": 0.9, "eta": 0.002, "T": 400, "T0": 20,
                                     "S": 1, "Q": 1, "I": 3, "N": 5,
                                     "sigma_g1_tilde": 0.005}}},
         2, 4, "numerical abort: non-finite gradient at iteration 1\n"),
        ("accbo", "convergence.json",
         {"algorithm": "plain_momentum",
          "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05, "d0": 0.2,
                       "overrides": {"alpha": 0.04, "alpha_init": 1e10, "eta": 0.002,
                                     "T": 400, "T0": 200, "S": 1, "Q": 1,
                                     "sigma_g1_tilde": 0.005}}},
         2, 4, "numerical abort: non-finite gradient in sgd_tracking_step\n"),
        ("bias", "bias.json",
         {"instance": {"kind": "isotropic_quadratic",
                       "params": {"mu": 1.0, "A": [[2.0, 0.0], [0.0, 2.0]], "b": [0.1, -0.1],
                                  "c": [0.3, 0.2], "d": [0.2, -0.3], "l_f0": 1.0},
                       "noise": {"sigma_f1": 1e160, "sigma_g1": 0.2, "sigma_g2": 0.1}},
          "Q_grid": [1, 2], "n_samples": 20},
         1, 4, "numerical abort: non-finite hypergradient estimate\n"),
        ("bias", "bias.json", {"x": [1e308, -1e308], "n_samples": 3, "Q_grid": [1]},
         1, 4, "numerical abort: non-finite hypergradient estimate\n"),
        ("snag-track", "tracking.json", {"T": 300, "alpha": 30.0}, 5, 3, ""),
    ], ids=["abort_warm", "abort_one", "abort_two", "abort_base", "abort_bias",
            "abort_bias_x", "track_diverge"])
    def test_diverging_run_stops_without_warnings(self, tmp_path, capsys, command, base,
                                                  fields, n_seeds, rc, err):
        """The warm start and option one name their step, which in option one
        is the outer iteration; option two names the step within its round."""
        doc = json.loads((CONFIGS / base).read_text(encoding="utf-8"))
        doc.update(fields)
        path = write_config(tmp_path, doc)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                         "--seeds", str(n_seeds)]) == rc
        assert capsys.readouterr().err == err

    # scripts/check_identical.sh's refuse_ridge_z, refuse_ridge_v and
    # refuse_exp_u rows: instance constants that overflow are refused by the
    # constants' own check, with no numpy warning before it.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fields, err", [
        ({"option": "two", "x0": [0.0], "instance": {"kind": "ridge_weighting", "params": {
            "Z": [[1e200, 0.0]], "y_tr": [1.0], "V": [[1.0, 0.0]], "y_val": [1.0],
            "c_reg": 1.0}}},
         "error: accbo.instance: l_g1 must be a number >= 0, got nan\n"),
        ({"option": "two", "x0": [0.0], "instance": {"kind": "ridge_weighting", "params": {
            "Z": [[1.0, 0.0]], "y_tr": [1.0], "V": [[1e200, 0.0]], "y_val": [1.0],
            "c_reg": 1.0}}},
         "error: accbo.instance: l_f0 must be a number >= 0, got inf\n"),
        ({"instance": {"kind": "exp_upper_toy", "params": {
            "u": [1e300, 1e300], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1]}}},
         "error: accbo.instance: Lx1 must be a number >= 0, got inf\n"),
    ], ids=["refuse_ridge_z", "refuse_ridge_v", "refuse_exp_u"])
    def test_overflowing_constants_refused_without_warnings(self, tmp_path, capsys,
                                                            fields, err):
        doc = json.loads((CONFIGS / "convergence.json").read_text(encoding="utf-8"))
        doc.update(fields)
        path = write_config(tmp_path, doc)
        assert cli.main(["accbo", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == err
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
            text = json.dumps(inst.to_dict())
            assert json.loads(text)["kind"] == inst.kind


# The fuzz test's base documents, one per command, each running in well
# under a second.
FUZZ_DOCS = {
    "snag-track": dict(SNAG_DOC, drift={"kind": "random_walk", "delta": 0.01}),
    "bias": {"instance": ISO_DOC, "Q_grid": [1, 2], "n_samples": 20},
    "accbo": ACCBO_DOC,
    "sweep": {"instance": ISO_DOC, "option": "one", "epsilons": [0.2],
              "schedule": SWEEP_SCHEDULE},
}
# Replacement values. A huge number could outgrow its base doc only through a
# derived iteration count, which every base doc overrides, and "theorem" only
# through the theorem closed forms, which refuse a schedule with overrides.
# "none" as the drift kind of a drift that gives a delta is refused.
FUZZ_VALUES = [None, True, "x", [], {}, [1, "a"], -1, 0, 1.5, 1e160, "theorem",
               "none", math.nan, math.inf]


@st.composite
def mutated_configs(draw):
    """A base doc with one field deleted, added or replaced, at the top level,
    in its schedule, overrides or drift object, or in its instance's params
    or noise object."""
    command = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    doc = copy.deepcopy(FUZZ_DOCS[command])
    schedule, instance = doc.get("schedule", {}), doc.get("instance", {})
    objects = [("top", doc), ("schedule", schedule),
               ("overrides", schedule.get("overrides")), ("drift", doc.get("drift")),
               ("params", instance.get("params")), ("noise", instance.get("noise"))]
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


# The four docs admit 1177 distinct mutations; Hypothesis stops once it has
# tried them all, so this bound makes the search exhaustive.
# A numpy overflow that the code turns into an abort is computed silently.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=1950, deadline=None)
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

