"""Experiment orchestration: config checking, result serialization, commands.

Every command is a pure function of (config, seeds, output directory): the
same inputs produce byte-identical output files. Numbers are written with 17
significant digits so they re-parse to the exact in-memory double.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, hypergrad, optimizer, problems, snag
from .constants import PRACTICAL_OVERRIDES, derive_schedule
from .rng import RandomStream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "write_csv",
    "write_json",
    "cmd_snag_track",
    "cmd_bias",
    "cmd_accbo",
    "cmd_sweep",
]

log = logging.getLogger("accbo")


class ConfigError(ValueError):
    """A configuration document is malformed.

    The message starts with the path of the field at fault, as in
    ``accbo.schedule.delta: must be a number in (0, 1), got 1.5`` or
    ``sweep.algorithms[1]: must be one of 'accbo', 'plain_momentum', got 'acbo'``.
    A value that the library refuses once the fields are checked, such as a
    derived ``tau = sqrt(mu*alpha)`` above 1, is reported at the object it
    comes from: ``accbo.schedule: tau must be a number in (0, 1], got 1.22…``.
    """


@dataclass(frozen=True)
class ExperimentConfig:
    """One command invocation: parsed config plus run-level options."""

    command: str
    params: dict
    out_dir: Path
    n_seeds: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ConfigError("seeds: must be >= 1")
        # RandomStream refuses seeds outside the 64 bits SeedSequence reads;
        # say so here, naming the field, before any output is written.
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError(f"base_seed: must be an integer in [0, 2**64), "
                              f"got {self.base_seed!r}")


# ---------------------------------------------------------------------------
# Config schema: each command's fields live in one table (SNAG_TRACK, BIAS,
# ACCBO and SWEEP below) mapping a name to (check, default). A check takes
# (value, path), raises ConfigError naming the path, and returns the value
# to use.

REQUIRED = object()  # no default: the field must be given
OPTIONAL = object()  # no default: an absent field stays absent


def parse(doc, schema: dict, ctx: str) -> dict:
    """Check doc against schema; return it with every default filled in."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx}: must be an object, got {doc!r}")
    for name in doc:
        if name not in schema:
            raise ConfigError(f"{ctx}: unknown field '{name}'")
    out = {}
    for name, (check, default) in schema.items():
        if name in doc:
            out[name] = check(doc[name], f"{ctx}.{name}")
        elif default is REQUIRED:
            raise ConfigError(f"{ctx}: missing required field '{name}'")
        elif default is not OPTIONAL:
            # A default goes through its check as well, so that it takes the
            # checked form (a bare sigma becomes a list, an object gets its
            # own defaults); None means "not given" and is kept as is.
            out[name] = None if default is None else check(default, f"{ctx}.{name}")
    return out


def _check(what: str, ok):
    def check(value, ctx: str):
        if not ok(value):
            raise ConfigError(f"{ctx}: must be {what}, got {value!r}")
        return value
    return check


def _real(value) -> bool:
    # The comparison is exact for ints, so it refuses NaN, the infinities
    # and integers too large for a double, without converting any of them.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(low: int):
    """A JSON integer >= low (never a bool or a float)."""
    return _check(f"an integer >= {low}", lambda v: isinstance(v, int)
                  and not isinstance(v, bool) and v >= low)


finite = _check("a finite number", _real)
positive = _check("a positive number", lambda v: _real(v) and v > 0)
nonnegative = _check("a number >= 0", lambda v: _real(v) and v >= 0)
fraction = _check("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1)
count = _integer(1)


def one_of(*names: str):
    return _check("one of " + ", ".join(map(repr, names)),
                  lambda v: isinstance(v, str) and v in names)


def list_of(item, bare: bool = False, distinct: bool = False):
    """A non-empty list whose entries pass item; with bare, one entry alone
    too; with distinct, no entry equal to an earlier one (0 equals 0.0)."""
    def check(value, ctx: str):
        if bare and not isinstance(value, list):
            return [item(value, ctx)]
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{ctx}: must be a non-empty list, got {value!r}")
        out = [item(v, f"{ctx}[{i}]") for i, v in enumerate(value)]
        if distinct:
            first: dict = {}  # each value's first index
            for i, v in enumerate(out):
                if first.setdefault(v, i) != i:
                    raise ConfigError(f"{ctx}[{i}]: must differ from entry {first[v]}, "
                                      f"got {v!r}")
        return out
    return check


def table(schema: dict):
    """An object whose fields are checked against schema."""
    return lambda value, ctx: parse(value, schema, ctx)


def tagged(tag: str, schemas: dict):
    """An object checked against the schema that its tag field names; the
    tag is kept in the result."""
    pick = one_of(*schemas)

    def check(value, ctx: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{ctx}: must be an object, got {value!r}")
        name = pick(value.get(tag), f"{ctx}.{tag}")
        return parse(value, {tag: (pick, REQUIRED), **schemas[name]}, ctx)
    return check


@contextmanager
def _refused_at(ctx: str):
    """Report a value that the library refuses (a ConstraintViolation or
    another ValueError) as a config error at ctx."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def array(value, ctx: str):
    """A finite number, or a non-empty list of arrays: nested to any depth."""
    if isinstance(value, list):
        return list_of(array)(value, ctx)
    return finite(value, ctx)


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row_format(kinds: tuple[type, ...]) -> str:
    """The %-format of a CSV row whose values have these types: with bools
    made "true" or "false" first, it gives _fmt's bytes for every value."""
    return ",".join("%.17g" if issubclass(kind, float) else "%s" for kind in kinds)


def _rows(records: list[dict], columns: list[str]):
    """Each record's values in column order, as a tuple."""
    if len(columns) > 1:
        return map(operator.itemgetter(*columns), records)
    return (tuple(rec[c] for c in columns) for rec in records)


def write_csv(records: list[dict], path: str | Path, columns: list[str]) -> None:
    formats: dict[tuple[type, ...], str] = {}
    lines = [",".join(columns)]
    for row in _rows(records, columns):
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = _row_format(kinds)
        if bool in kinds:
            row = tuple(_fmt(v) if type(v) is bool else v for v in row)
        lines.append(fmt % row)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _FloatEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def write_json(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, cls=_FloatEncoder)
        fh.write("\n")


# An instance is a path to a JSON file or an inline object tagged by its
# kind: the fixture (FIXTURE_RIDGE) or an instance document of one kind, whose
# params table is built from the kind's own PARAMS.
_NOISE = {name: (nonnegative, OPTIONAL) for name in ("sigma_f1", "sigma_g1", "sigma_g2")}
_VALUES = {"positive": positive, "nonnegative": nonnegative, "array": array}

FIXTURE_RIDGE = {"seed": (_integer(0), OPTIONAL), "c_reg": (positive, OPTIONAL), **_NOISE}

INSTANCES = {"fixture_ridge": FIXTURE_RIDGE, **{
    kind: {
        "params": (table({
            name: (_VALUES[value], OPTIONAL if has_default else REQUIRED)
            for name, (value, has_default) in cls.PARAMS.items()
        }), REQUIRED),
        "noise": (table(_NOISE), OPTIONAL),
    } for kind, cls in problems.INSTANCE_KINDS.items()}}
_INSTANCE = tagged("kind", INSTANCES)


def _load_instance(spec, ctx: str) -> problems.BilevelInstance:
    if isinstance(spec, str):
        try:
            spec = json.loads(Path(spec).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: must be a path or an inline object, got {spec!r}")
    doc = _INSTANCE(spec, ctx)
    with _refused_at(ctx):  # a rejected array shape, say
        if doc["kind"] == "fixture_ridge":
            return problems.make_fixture_ridge(
                **{k: v for k, v in doc.items() if k != "kind"})
        return problems.instance_from_dict(doc)


def _point(value, inst: problems.BilevelInstance, ctx: str):
    """A checked list of numbers as a float array of inst.dim_x entries."""
    if value is None:
        return None
    if len(value) != inst.dim_x:
        raise ConfigError(f"{ctx}: must be a list of {inst.dim_x} numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _check_option(option: str, inst, algorithms: list[str], ctx: str) -> None:
    """Refuse an option where run_accbo would, before any output is written."""
    if "accbo" in algorithms:
        with _refused_at(ctx):
            optimizer.check_option(inst, option)


# Runners by algorithm name, each called as (inst, schedule, option, stream,
# x0). The library functions are looked up on their modules at call time.
_RUNNERS = {
    "accbo": lambda inst, schedule, option, stream, x0:
        optimizer.run_accbo(inst, schedule, option, stream, x0=x0),
    "plain_momentum": lambda inst, schedule, option, stream, x0:
        baselines.run_plain_momentum_bilevel(inst, schedule, stream, x0=x0),
}

# The schedule object of accbo and sweep is tagged by its mode. Each mode's
# table holds, epsilon aside, the keyword arguments of derive_schedule that
# the mode reads; each override is checked against its PRACTICAL_OVERRIDES
# domain, and alpha is required.
_SCHEDULE = {"delta": (fraction, REQUIRED), "d0": (positive, REQUIRED)}
SCHEDULES = {
    "theorem": {**_SCHEDULE, "sigma_g1_tilde": (positive, OPTIONAL),
                "y0_gap": (positive, OPTIONAL)},
    "practical": {**_SCHEDULE, "overrides": (table({
        name: (_check(what, lambda v, ok=ok: _real(v) and ok(v)),
               REQUIRED if name == "alpha" else OPTIONAL)
        for name, (what, ok) in PRACTICAL_OVERRIDES.items()
    }), REQUIRED)},
}

# A grid value: one entry alone, or a list of distinct entries.
_GRID = list_of(nonnegative, bare=True, distinct=True)

SNAG_TRACK = {
    "mu": (positive, REQUIRED),
    "alpha": (positive, REQUIRED),
    "T": (count, REQUIRED),
    "delta_prob": (fraction, REQUIRED),
    "V0": (nonnegative, REQUIRED),
    "dim": (count, REQUIRED),
    "sigma": (_GRID, 0.0),
    # Tagged by its kind: "none" takes no delta, and every other kind requires one.
    "drift": (tagged("kind", {kind: {} if kind == "none" else {"delta": (_GRID, REQUIRED)}
                              for kind in snag.DRIFT_KINDS}), {"kind": "none"}),
}

BIAS = {
    "instance": (_load_instance, REQUIRED),
    "Q_grid": (list_of(count, distinct=True), REQUIRED),
    "n_samples": (_integer(2), REQUIRED),
    "x": (list_of(finite), None),
}

ACCBO = {
    "instance": (_load_instance, REQUIRED),
    "schedule": (tagged("mode", {mode: {**schema, "epsilon": (positive, REQUIRED)}
                                 for mode, schema in SCHEDULES.items()}), REQUIRED),
    "option": (one_of("one", "two"), REQUIRED),
    "x0": (list_of(finite), None),
    "algorithm": (one_of(*_RUNNERS), "accbo"),
}

SWEEP = {
    "instance": (_load_instance, REQUIRED),
    "epsilons": (list_of(positive, distinct=True), REQUIRED),
    # Each run takes its epsilon from epsilons, so the schedule has none.
    "schedule": (tagged("mode", SCHEDULES), REQUIRED),
    "option": (one_of("one", "two"), REQUIRED),
    "x0": (list_of(finite), None),
    "algorithms": (list_of(one_of(*_RUNNERS), distinct=True), ["accbo", "plain_momentum"]),
}


TRAJECTORY_COLUMNS = ["t", "V", "bound", "dist", "phi_gap"]
# Each run-log CSV column, in order, with the IterationLog field it holds.
RUN_COLUMNS = {
    "t": "t", "grad_norm": "grad_norm_true", "m_norm": "m_norm",
    "y_err": "y_track_err", "yhat_err": "yhat_track_err", "yhat_step": "yhat_step",
    "calls_g1": "calls_g1", "calls_jvp": "calls_jvp", "calls_hvp": "calls_hvp",
    "calls_f": "calls_f",
}


def _run_log_records(logs: list[optimizer.IterationLog]) -> list[dict]:
    return [{column: getattr(rec, field) for column, field in RUN_COLUMNS.items()}
            for rec in logs]


# ---------------------------------------------------------------------------
# snag-track


def cmd_snag_track(config: ExperimentConfig) -> int:
    doc = parse(config.params, SNAG_TRACK, "snag-track")
    dim, kind = doc["dim"], doc["drift"]["kind"]
    still = snag.TrackingBoundParams(mu=doc["mu"], alpha=doc["alpha"], sigma=0.0, T=doc["T"],
                                     delta_prob=doc["delta_prob"], V0=doc["V0"])
    # "none" takes no delta: it moves the minimizer by 0.
    drifts = [snag.DriftProcess(kind, delta) for delta in doc["drift"].get("delta", [0.0])]
    # Each sigma and each delta must give a bound floor that is finite by itself.
    for i, sigma in enumerate(doc["sigma"]):
        with _refused_at(f"snag-track.sigma[{i}]"):
            snag.tracking_bound(replace(still, sigma=sigma), snag.DriftProcess(), 0)
    for i, drift in enumerate(drifts):
        with _refused_at(f"snag-track.drift.delta[{i}]"):
            snag.tracking_bound(still, drift, 0)
    # A delta of 0 does not move, whatever the kind.
    cells = [(replace(still, sigma=sigma), drift)
             for sigma in doc["sigma"] for drift in drifts]
    with _refused_at("snag-track"):  # a V0, or a sigma and delta together
        rates, trajectories = snag.mc_tracking_grid(cells, config.n_seeds, dim=dim,
                                                    base_seed=config.base_seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for (p, drift), rate, trajectory in zip(cells, rates, trajectories):
        sigma, delta = p.sigma, drift.delta
        # Seed 0 of the grid: run_tracking_experiment on (base_seed, "mc", 0).
        name = f"track_sigma{_fmt(float(sigma))}_delta{_fmt(float(delta))}.csv"
        write_csv(trajectory(), config.out_dir / name, TRAJECTORY_COLUMNS)
        log.info("snag-track sigma=%s delta=%s: violation rate %s over %d seeds",
                 sigma, delta, rate, config.n_seeds)
        results.append({"sigma": sigma, "delta": delta, "violation_rate": rate,
                        "n_seeds": config.n_seeds})

    summary = {
        "command": "snag-track",
        "delta_prob": doc["delta_prob"],
        "cells": results,
        "all_within_delta": all(
            r["violation_rate"] <= doc["delta_prob"] for r in results
        ),
    }
    write_json(summary, config.out_dir / "snag_track_summary.json")
    return 0 if summary["all_within_delta"] else 3


# ---------------------------------------------------------------------------
# bias


def cmd_bias(config: ExperimentConfig) -> int:
    doc = parse(config.params, BIAS, "bias")
    inst = doc["instance"]
    x = _point(doc["x"], inst, "bias.x")
    if x is None:
        x = np.zeros(inst.dim_x)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    ok = True
    for Q in doc["Q_grid"]:
        # Each draw is a single-sample estimate, so var_est is per sample.
        cfg = hypergrad.EstimatorConfig(Q=Q, S=1, l_g1=inst.constants.l_g1)
        stream = RandomStream(config.base_seed).child("bias", Q)
        res = hypergrad.empirical_bias_and_variance(
            inst, x, cfg, doc["n_samples"], stream
        )
        bound = hypergrad.bias_bound(inst.constants, Q)
        row_ok = res["bias_est"] <= bound + 4.0 * res["se"]
        ok = ok and row_ok
        rows.append({
            "Q": Q, "S": cfg.S, "bias_bound": bound, "bias_est": res["bias_est"],
            "var_est": res["var_est"], "se": res["se"],
        })
    write_csv(rows, config.out_dir / "bias.csv",
              ["Q", "S", "bias_bound", "bias_est", "var_est", "se"])
    write_json({"command": "bias", "rows": rows, "all_within_bound": ok},
               config.out_dir / "bias_summary.json")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# accbo


def _summarize_run(logs: list[optimizer.IterationLog]) -> dict:
    final = logs[-1]
    return {
        "iterations": len(logs),
        "running_avg_grad_norm": optimizer.running_average_grad_norm(logs),
        "final_grad_norm": final.grad_norm_true,
        "total_oracle_calls": final.total_calls,
        "zero_momentum_events": sum(1 for rec in logs if rec.zero_momentum),
    }


def cmd_accbo(config: ExperimentConfig) -> int:
    doc = parse(config.params, ACCBO, "accbo")
    inst, algorithm = doc["instance"], doc["algorithm"]
    with _refused_at("accbo.schedule"):
        schedule = derive_schedule(inst.constants, **doc["schedule"])
    x0 = _point(doc["x0"], inst, "accbo.x0")
    _check_option(doc["option"], inst, [algorithm], "accbo.option")
    run = _RUNNERS[algorithm]
    config.out_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for k in range(config.n_seeds):
        stream = RandomStream(config.base_seed).child("run", k)
        logs = run(inst, schedule, doc["option"], stream, x0)
        write_csv(_run_log_records(logs), config.out_dir / f"run_seed{k}.csv",
                  list(RUN_COLUMNS))
        per_seed.append(_summarize_run(logs))
        log.info("accbo %s seed %d: running average grad norm %s after %d iterations",
                 algorithm, k, per_seed[-1]["running_avg_grad_norm"], len(logs))

    summary = {
        "command": "accbo",
        "algorithm": algorithm,
        "option": doc["option"],
        "epsilon": schedule.epsilon,
        "per_seed": per_seed,
        "median_running_avg_grad_norm": float(np.median(
            [s["running_avg_grad_norm"] for s in per_seed]
        )),
    }
    write_json(summary, config.out_dir / "accbo_summary.json")
    return 0


# ---------------------------------------------------------------------------
# sweep


def calls_to_target(logs: list[optimizer.IterationLog], target: float) -> float:
    """Cumulative oracle calls at the first t whose running average meets target."""
    running = 0.0
    for i, rec in enumerate(logs):
        running += rec.grad_norm_true
        if running / (i + 1) <= target:
            return float(rec.total_calls)
    return math.inf


def cmd_sweep(config: ExperimentConfig) -> int:
    doc = parse(config.params, SWEEP, "sweep")
    inst, epsilons, algorithms = doc["instance"], doc["epsilons"], doc["algorithms"]
    x0 = _point(doc["x0"], inst, "sweep.x0")
    _check_option(doc["option"], inst, algorithms, "sweep.option")
    runners = [_RUNNERS[a] for a in algorithms]
    with _refused_at("sweep.schedule"):
        schedules = [derive_schedule(inst.constants, **doc["schedule"], epsilon=eps)
                     for eps in epsilons]
    config.out_dir.mkdir(parents=True, exist_ok=True)

    table = []
    for eps, schedule in zip(epsilons, schedules):
        target = 20.0 * eps
        for algorithm, run in zip(algorithms, runners):
            counts = []
            for k in range(config.n_seeds):
                stream = RandomStream(config.base_seed).child("sweep", k)
                logs = run(inst, schedule, doc["option"], stream, x0)
                counts.append(calls_to_target(logs, target))
                log.info("sweep epsilon=%s %s seed %d: %s oracle calls to target",
                         eps, algorithm, k, counts[-1])
            table.append({
                "epsilon": eps,
                "algorithm": algorithm,
                "median_calls_to_target": float(np.median(counts)),
                "calls": counts,
            })

    accbo_rows = [r for r in table if r["algorithm"] == "accbo"
                  and math.isfinite(r["median_calls_to_target"])]
    slope = None
    if len(accbo_rows) >= 2:
        xs = np.log([1.0 / r["epsilon"] for r in accbo_rows])
        ys = np.log([r["median_calls_to_target"] for r in accbo_rows])
        slope = float(np.polyfit(xs, ys, 1)[0])

    summary = {"command": "sweep", "table": table, "accbo_loglog_slope": slope}
    write_json(summary, config.out_dir / "sweep_summary.json")
    return 0
