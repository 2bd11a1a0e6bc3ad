"""Experiment orchestration: config checking, result serialization, commands.

Every command is a pure function of (config, seeds, output directory): the
same inputs produce byte-identical output files. Numbers are written with 17
significant digits so they re-parse to the exact in-memory double.

A config field that a library record reads is checked against the domain in
that record's table (``DOMAINS``, an instance kind's ``PARAMS``, the schedule
tables of ``accbo.constants``); only the fields that no record holds, ``dim``,
``n_samples`` and the fixture's ``seed``, have checks of their own.

Every refused input raises ``ConstraintViolation``, whose message starts with
the path of the field or file at fault, as in
``accbo.schedule.delta: must be a number in (0, 1), got 1.5`` or
``sweep.algorithms[1]: must be one of 'accbo', 'plain_momentum', got 'acbo'``.
A value that the library refuses once the fields are checked, such as a
derived ``tau = sqrt(mu*alpha)`` above 1, is reported at the object it
comes from: ``accbo.schedule: tau must be a number in (0, 1], got 1.22…``.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, hypergrad, optimizer, problems, snag
from .constants import (COUNT, FINITE, PRACTICAL_OVERRIDES, SCHEDULE_INPUTS, THEOREM_INPUTS,
                        ConstraintViolation, derive_schedule)
from .rng import RandomStream

__all__ = [
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
            raise ConstraintViolation("seeds: must be >= 1")
        # RandomStream refuses seeds outside the 64 bits SeedSequence reads;
        # say so here, naming the field, before any output is written.
        if not 0 <= self.base_seed < 2**64:
            raise ConstraintViolation(f"base_seed: must be an integer in [0, 2**64), "
                                      f"got {self.base_seed!r}")
        # An out that is, or lies under, a file is refused before any work.
        path = next(p for p in (self.out_dir, *self.out_dir.parents) if p.exists())
        if not path.is_dir():
            raise ConstraintViolation(f"out: {path} is not a directory")


# ---------------------------------------------------------------------------
# Config schema: each command's fields live in one table (SNAG_TRACK, BIAS,
# ACCBO and SWEEP below) mapping a name to (check, default). A check takes
# (value, path), raises ConstraintViolation naming the path, and returns the
# value to use.

REQUIRED = object()  # no default: the field must be given
OPTIONAL = object()  # no default: an absent field stays absent


def parse(doc, schema: dict, ctx: str) -> dict:
    """Check doc against schema; return it with every default filled in."""
    if not isinstance(doc, dict):
        raise ConstraintViolation(f"{ctx}: must be an object, got {doc!r}")
    for name in doc:
        if name not in schema:
            raise ConstraintViolation(f"{ctx}: unknown field '{name}'")
    out = {}
    for name, (check, default) in schema.items():
        if name in doc:
            out[name] = check(doc[name], f"{ctx}.{name}")
        elif default is REQUIRED:
            raise ConstraintViolation(f"{ctx}: missing required field '{name}'")
        elif default is not OPTIONAL:
            # A default goes through its check as well, so that it takes the
            # checked form (a bare sigma becomes a list, an object gets its
            # own defaults).
            out[name] = check(default, f"{ctx}.{name}")
    return out


def _check(what: str, ok):
    def check(value, ctx: str):
        if not ok(value):
            raise ConstraintViolation(f"{ctx}: must be {what}, got {value!r}")
        return value
    return check


def _fields(domains: dict, default) -> dict:
    """Schema entries that check each name against its domain, with one default."""
    return {name: (_check(*domain), default) for name, domain in domains.items()}


def _integer(low: int):
    """A JSON integer >= low (never a bool or a float)."""
    return _check(f"an integer >= {low}", lambda v: isinstance(v, int)
                  and not isinstance(v, bool) and v >= low)


finite = _check(*FINITE)


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
            raise ConstraintViolation(f"{ctx}: must be a non-empty list, got {value!r}")
        out = [item(v, f"{ctx}[{i}]") for i, v in enumerate(value)]
        if distinct:
            first: dict = {}  # each value's first index
            for i, v in enumerate(out):
                if first.setdefault(v, i) != i:
                    raise ConstraintViolation(f"{ctx}[{i}]: must differ from entry {first[v]}, "
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
            raise ConstraintViolation(f"{ctx}: must be an object, got {value!r}")
        name = pick(value.get(tag), f"{ctx}.{tag}")
        return parse(value, {tag: (pick, REQUIRED), **schemas[name]}, ctx)
    return check


@contextmanager
def _refused_at(ctx: str):
    """Report a value that the library refuses (a ConstraintViolation or
    another ValueError) or that asks for too much memory as a refusal at ctx."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConstraintViolation(f"{ctx}: {exc}") from exc


def array(value, ctx: str):
    """A finite number, or a non-empty list of arrays of one shape: a
    rectangular array of any depth."""
    if not isinstance(value, list):
        return finite(value, ctx)
    rows = list_of(array)(value, ctx)
    for i, row in enumerate(rows):
        if np.shape(row) != np.shape(rows[0]):
            raise ConstraintViolation(f"{ctx}[{i}]: must have the shape {np.shape(rows[0])} "
                                      f"of entry 0, got {row!r}")
    return rows


def _read_object(path: str | Path, ctx) -> dict:
    """The JSON object in the file at path; any other file is refused at ctx."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConstraintViolation(f"{ctx}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConstraintViolation(f"{ctx}: top level must be an object")
    return doc


def load_config(path: str | Path) -> dict:
    return _read_object(path, path)


def _fmt(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


# Lines a CSV writer formats and writes at a time.
_CSV_BLOCK = 1024


def write_csv(columns: dict, path: str | Path) -> None:
    """Write a table, a mapping from column name to a 1-D array or list, under
    a header of its names: an integer column as %d and a float column as
    %.17g, which are _fmt's bytes. A table whose columns differ in length, or
    whose column is not 1-D integers or floats, is refused with ValueError
    before the file is opened. Lines are formatted and written _CSV_BLOCK
    rows at a time, from the columns' Python scalars."""
    arrays = [np.asarray(col) for col in columns.values()]
    for name, col in zip(columns, arrays):
        if col.ndim != 1 or col.dtype.kind not in "iuf":
            raise ValueError(f"CSV column {name!r} must be 1-D integers or floats, "
                             f"got dtype {col.dtype} and shape {col.shape}")
        if len(col) != len(arrays[0]):
            raise ValueError(f"CSV column {name!r} has {len(col)} rows, "
                             f"the first column {len(arrays[0])}")
    fmt = ",".join("%.17g" if col.dtype.kind == "f" else "%d" for col in arrays)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), _CSV_BLOCK):
            rows = zip(*(col[lo:lo + _CSV_BLOCK].tolist() for col in arrays))
            fh.write("\n".join(map(fmt.__mod__, rows)) + "\n")


def write_json(obj, path: str | Path) -> None:
    """Write obj, which holds only JSON-native values, with sorted keys."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# An instance is a path to a JSON file or an inline object tagged by its
# kind: the fixture (FIXTURE_RIDGE) or an instance document of one kind, whose
# params table is built from the kind's own PARAMS.
_NOISE = _fields(problems.NOISE, OPTIONAL)

FIXTURE_RIDGE = {"seed": (_integer(0), OPTIONAL), **_fields(
    {"c_reg": problems.RidgeWeighting.PARAMS["c_reg"][0], **problems.NOISE}, OPTIONAL)}

INSTANCES = {"fixture_ridge": FIXTURE_RIDGE, **{
    kind: {
        "params": (table({
            name: (array if domain is problems.ARRAY else _check(*domain),
                   OPTIONAL if has_default else REQUIRED)
            for name, (domain, has_default) in cls.PARAMS.items()
        }), REQUIRED),
        "noise": (table(_NOISE), OPTIONAL),
    } for kind, cls in problems.INSTANCE_KINDS.items()}}
_INSTANCE = tagged("kind", INSTANCES)


def _load_instance(spec, ctx: str) -> problems.BilevelInstance:
    if isinstance(spec, str):
        spec = _read_object(spec, ctx)
    if not isinstance(spec, dict):
        raise ConstraintViolation(f"{ctx}: must be a path or an inline object, got {spec!r}")
    doc = _INSTANCE(spec, ctx)
    with _refused_at(ctx):  # a rejected array shape, say
        if doc["kind"] == "fixture_ridge":
            return problems.make_fixture_ridge(
                **{k: v for k, v in doc.items() if k != "kind"})
        return problems.instance_from_dict(doc)


def _point(value, inst: problems.BilevelInstance, ctx: str):
    """A checked list of numbers as a float array of inst.dim_x entries; the
    origin when the field is absent (None)."""
    if value is None:
        return np.zeros(inst.dim_x)
    if len(value) != inst.dim_x:
        raise ConstraintViolation(f"{ctx}: must be a list of {inst.dim_x} numbers, got {value!r}")
    return np.asarray(value, dtype=float)


# Each algorithm's oracle calls per iteration, called as (inst, schedule,
# option), and its runner, called as (inst, schedule, option, stream, x0).
# The library names are looked up on their modules at call time.
_ALGORITHMS = {
    "accbo": (lambda *args: optimizer.accbo_sampling(*args),
              lambda inst, schedule, option, stream, x0:
                  optimizer.run_accbo(inst, schedule, option, stream, x0=x0)),
    "plain_momentum": (lambda inst, schedule, option: baselines.SAMPLING,
                       lambda inst, schedule, option, stream, x0:
                           baselines.run_plain_momentum_bilevel(inst, schedule, stream, x0=x0)),
}


def _check_runs(inst, schedules, option: str, algorithms: list[str], cmd: str) -> None:
    """Refuse, before any output is written, what a runner refuses before its
    warm start: an option it cannot run, at <cmd>.option, and a schedule whose
    oracle calls the count columns cannot hold, at <cmd>.schedule."""
    for algorithm in algorithms:
        for schedule in schedules:
            with _refused_at(f"{cmd}.option"):
                sampling = _ALGORITHMS[algorithm][0](inst, schedule, option)
            with _refused_at(f"{cmd}.schedule"):
                optimizer.check_budget(sampling, schedule)


# The schedule object of accbo and sweep is tagged by its mode. Each mode's
# table holds, epsilon aside, the keyword arguments of derive_schedule that
# the mode reads, each with its domain in accbo.constants; alpha is the one
# required override.
_SCHEDULE = _fields({name: domain for name, domain in SCHEDULE_INPUTS.items()
                     if name != "epsilon"}, REQUIRED)
_EPSILON = _check(*SCHEDULE_INPUTS["epsilon"])
SCHEDULES = {
    "theorem": {**_SCHEDULE, **_fields(THEOREM_INPUTS, OPTIONAL)},
    "practical": {**_SCHEDULE, "overrides": (table({
        name: (_check(*domain), REQUIRED if name == "alpha" else OPTIONAL)
        for name, domain in PRACTICAL_OVERRIDES.items()
    }), REQUIRED)},
}

_BOUND = snag.TrackingBoundParams.DOMAINS
SNAG_TRACK = {
    **_fields({name: domain for name, domain in _BOUND.items() if name != "sigma"}, REQUIRED),
    "dim": (_check(*COUNT), REQUIRED),
    # A grid value: one entry alone, or a list of distinct entries.
    "sigma": (list_of(_check(*_BOUND["sigma"]), bare=True, distinct=True), 0.0),
    # Tagged by its kind: "none" takes no delta, and every other kind requires one.
    "drift": (tagged("kind", {kind: {} if kind == "none" else {"delta": (list_of(
        _check(*snag.DriftProcess.DOMAINS["delta"]), bare=True, distinct=True), REQUIRED)}
        for kind in snag.DRIFT_KINDS}), {"kind": "none"}),
}

BIAS = {
    "instance": (_load_instance, REQUIRED),
    "Q_grid": (list_of(_check(*hypergrad.EstimatorConfig.DOMAINS["Q"]), distinct=True),
               REQUIRED),
    "n_samples": (_integer(2), REQUIRED),
    "x": (list_of(finite), OPTIONAL),
}

ACCBO = {
    "instance": (_load_instance, REQUIRED),
    "schedule": (tagged("mode", {mode: {**schema, "epsilon": (_EPSILON, REQUIRED)}
                                 for mode, schema in SCHEDULES.items()}), REQUIRED),
    "option": (one_of("one", "two"), REQUIRED),
    "x0": (list_of(finite), OPTIONAL),
    "algorithm": (one_of(*_ALGORITHMS), "accbo"),
}

SWEEP = {
    "instance": (_load_instance, REQUIRED),
    "epsilons": (list_of(_EPSILON, distinct=True), REQUIRED),
    # Each run takes its epsilon from epsilons, so the schedule has none.
    "schedule": (tagged("mode", SCHEDULES), REQUIRED),
    "option": (one_of("one", "two"), REQUIRED),
    "x0": (list_of(finite), OPTIONAL),
    "algorithms": (list_of(one_of(*_ALGORITHMS), distinct=True), ["accbo", "plain_momentum"]),
}


# Each run-log CSV column, in order, with the RunLog column it holds.
RUN_COLUMNS = {
    "t": "t", "grad_norm": "grad_norm_true", "m_norm": "m_norm",
    "y_err": "y_track_err", "yhat_err": "yhat_track_err", "yhat_step": "yhat_step",
    "calls_g1": "calls_g1", "calls_jvp": "calls_jvp", "calls_hvp": "calls_hvp",
    "calls_f": "calls_f",
}


def _median(values: list[float]) -> float:
    """float(np.median(values)) without the numpy.ma import that np.median
    makes on its first call: NaN if any value is NaN, else the middle sorted
    value, or the mean (a + b) / 2 of the two middle ones."""
    v = sorted(values)
    if any(math.isnan(x) for x in v):
        return math.nan
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


# ---------------------------------------------------------------------------
# snag-track


def cmd_snag_track(config: ExperimentConfig) -> int:
    doc = parse(config.params, SNAG_TRACK, "snag-track")
    dim, kind = doc["dim"], doc["drift"]["kind"]
    still = snag.TrackingBoundParams(mu=doc["mu"], alpha=doc["alpha"], sigma=0.0, T=doc["T"],
                                     delta_prob=doc["delta_prob"], V0=doc["V0"])
    # "none" takes no delta: it moves the minimizer by 0.
    drifts = [snag.DriftProcess(kind, delta) for delta in doc["drift"].get("delta", [0.0])]
    # T and delta_prob must give a finite log factor, and then each sigma and
    # each delta a bound floor that is finite by itself.
    with _refused_at("snag-track"):
        snag.tracking_bound(still, snag.DriftProcess(), 0)
    for i, sigma in enumerate(doc["sigma"]):
        with _refused_at(f"snag-track.sigma[{i}]"):
            snag.tracking_bound(replace(still, sigma=sigma), snag.DriftProcess(), 0)
    for i, drift in enumerate(drifts):
        with _refused_at(f"snag-track.drift.delta[{i}]"):
            snag.tracking_bound(still, drift, 0)
    # A delta of 0 does not move, whatever the kind.
    cells = [(replace(still, sigma=sigma), drift)
             for sigma in doc["sigma"] for drift in drifts]
    # A V0, a sigma and delta together, or a grid too large for memory.
    with _refused_at("snag-track"):
        rates, trajectories = snag.mc_tracking_grid(cells, config.n_seeds, dim=dim,
                                                    base_seed=config.base_seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for (p, drift), rate, trajectory in zip(cells, rates, trajectories):
        sigma, delta = p.sigma, drift.delta
        # Seed 0 of the grid: run_tracking_experiment on (base_seed, "mc", 0).
        name = f"track_sigma{_fmt(float(sigma))}_delta{_fmt(float(delta))}.csv"
        write_csv(trajectory(), config.out_dir / name)
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
    x = _point(doc.get("x"), inst, "bias.x")

    table = {name: [] for name in ("Q", "S", "bias_bound", "bias_est", "var_est", "se")}
    ok = True
    with _refused_at("bias"):  # n_samples draws that do not fit in memory
        for Q in doc["Q_grid"]:
            # Each draw is a single-sample estimate, so var_est is per sample.
            cfg = hypergrad.EstimatorConfig(Q=Q, S=1, l_g1=inst.constants.l_g1)
            stream = RandomStream(config.base_seed).child("bias", Q)
            res = hypergrad.empirical_bias_and_variance(
                inst, x, cfg, doc["n_samples"], stream
            )
            bound = hypergrad.bias_bound(inst.constants, Q)
            ok = ok and res["bias_est"] <= bound + 4.0 * res["se"]
            log.info("bias Q=%d: bias estimate %s, bound %s, standard error %s",
                     Q, res["bias_est"], bound, res["se"])
            for name, value in zip(table, (Q, cfg.S, bound, res["bias_est"],
                                           res["var_est"], res["se"])):
                table[name].append(value)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(table, config.out_dir / "bias.csv")
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    write_json({"command": "bias", "rows": rows, "all_within_bound": ok},
               config.out_dir / "bias_summary.json")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# accbo


def _summarize_run(logs: optimizer.RunLog) -> dict:
    final = logs[-1]
    return {
        "iterations": len(logs),
        "running_avg_grad_norm": optimizer.running_average_grad_norm(logs),
        "final_grad_norm": final.grad_norm_true,
        "total_oracle_calls": final.total_calls,
        "zero_momentum_events": int(np.count_nonzero(logs.columns["zero_momentum"])),
    }


def cmd_accbo(config: ExperimentConfig) -> int:
    doc = parse(config.params, ACCBO, "accbo")
    inst, algorithm = doc["instance"], doc["algorithm"]
    with _refused_at("accbo.schedule"):
        schedule = derive_schedule(inst.constants, **doc["schedule"])
    x0 = _point(doc.get("x0"), inst, "accbo.x0")
    _check_runs(inst, [schedule], doc["option"], [algorithm], "accbo")
    run = _ALGORITHMS[algorithm][1]
    config.out_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for k in range(config.n_seeds):
        stream = RandomStream(config.base_seed).child("run", k)
        logs = run(inst, schedule, doc["option"], stream, x0)
        write_csv({name: logs.columns[field] for name, field in RUN_COLUMNS.items()},
                  config.out_dir / f"run_seed{k}.csv")
        per_seed.append(_summarize_run(logs))
        log.info("accbo %s seed %d: running average grad norm %s after %d iterations",
                 algorithm, k, per_seed[-1]["running_avg_grad_norm"], len(logs))

    summary = {
        "command": "accbo",
        "algorithm": algorithm,
        "option": doc["option"],
        "epsilon": schedule.epsilon,
        "per_seed": per_seed,
        "median_running_avg_grad_norm": _median(
            [s["running_avg_grad_norm"] for s in per_seed]),
    }
    write_json(summary, config.out_dir / "accbo_summary.json")
    return 0


# ---------------------------------------------------------------------------
# sweep


def calls_to_target(logs: optimizer.RunLog, target: float) -> float:
    """Cumulative oracle calls at the first t whose running average meets target.

    The running sums are np.cumsum's, one sequential add per iteration."""
    grad = logs.columns["grad_norm_true"]
    hits = np.flatnonzero(np.cumsum(grad) / np.arange(1, len(grad) + 1) <= target)
    return float(logs[hits[0]].total_calls) if hits.size else math.inf


def cmd_sweep(config: ExperimentConfig) -> int:
    doc = parse(config.params, SWEEP, "sweep")
    inst, epsilons, algorithms = doc["instance"], doc["epsilons"], doc["algorithms"]
    x0 = _point(doc.get("x0"), inst, "sweep.x0")
    runners = [_ALGORITHMS[a][1] for a in algorithms]
    with _refused_at("sweep.schedule"):
        schedules = [derive_schedule(inst.constants, **doc["schedule"], epsilon=eps)
                     for eps in epsilons]
    _check_runs(inst, schedules, doc["option"], algorithms, "sweep")
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
                "median_calls_to_target": _median(counts),
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
