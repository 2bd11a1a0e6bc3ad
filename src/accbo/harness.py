"""Experiment orchestration: config loading, result serialization, commands.

Every command is a pure function of (config, seeds, output directory): the
same inputs produce byte-identical output files. Numbers are written with 17
significant digits so they re-parse to the exact in-memory double.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, hypergrad, optimizer, problems, snag
from .constants import derive_schedule
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
    """A configuration document is malformed; the message names the field."""


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


def _check_fields(doc: dict, required: set[str], optional: set[str], ctx: str) -> None:
    for name in required:
        if name not in doc:
            raise ConfigError(f"{ctx}: missing required field '{name}'")
    for name in doc:
        if name not in required and name not in optional:
            raise ConfigError(f"{ctx}: unknown field '{name}'")


def _is_number(value, integer: bool = False) -> bool:
    return (isinstance(value, int if integer else (int, float))
            and not isinstance(value, bool))


def _is_int(value, low: int = 1) -> bool:
    return _is_number(value, integer=True) and value >= low


def _point(value, dim: int, ctx: str) -> np.ndarray:
    """A list of dim numbers, as a float array."""
    if not (isinstance(value, list) and len(value) == dim
            and all(_is_number(v) for v in value)):
        raise ConfigError(f"{ctx}: must be a list of {dim} numbers")
    return np.asarray(value, dtype=float)


def _numbers(value, ctx: str) -> list:
    """A number or a list of numbers, as a list."""
    values = value if isinstance(value, list) else [value]
    if not all(_is_number(v) for v in values):
        raise ConfigError(f"{ctx}: must be a number or a list of numbers")
    return values


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


def write_csv(records: list[dict], path: str | Path, columns: list[str]) -> None:
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in columns))
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


def _load_instance(spec, ctx: str) -> problems.BilevelInstance:
    # A missing file, an unknown keyword (TypeError) and a rejected value
    # (ConstraintViolation is a ValueError) are all config errors.
    try:
        if isinstance(spec, str):
            return problems.instance_from_json(Path(spec).read_text(encoding="utf-8"))
        if isinstance(spec, dict):
            if spec.get("kind") == "fixture_ridge":
                kwargs = {k: v for k, v in spec.items() if k != "kind"}
                return problems.make_fixture_ridge(**kwargs)
            return problems.instance_from_dict(spec)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}: instance must be a path or an inline object")


def _schedule_from_config(doc, inst, ctx: str, **fixed):
    """Derive the schedule of a config's schedule object; keywords set fields over it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx}: must be an object")
    doc = dict(doc, **fixed)
    _check_fields(
        doc,
        required={"mode", "epsilon", "delta", "d0"},
        optional={"sigma_g1_tilde", "y0_gap", "overrides"},
        ctx=ctx,
    )
    for name in ("epsilon", "delta", "d0", "sigma_g1_tilde", "y0_gap"):
        if name in doc and not _is_number(doc[name]):
            raise ConfigError(f"{ctx}.{name}: must be a number")
    return derive_schedule(
        inst.constants,
        epsilon=doc["epsilon"],
        delta=doc["delta"],
        d0=doc["d0"],
        mode=doc["mode"],
        sigma_g1_tilde=doc.get("sigma_g1_tilde", 1.0),
        y0_gap=doc.get("y0_gap", 1.0),
        overrides=doc.get("overrides"),
    )


TRAJECTORY_COLUMNS = ["t", "V", "bound", "dist", "phi_gap"]
RUN_COLUMNS = [
    "t", "grad_norm", "m_norm", "y_err", "yhat_err", "yhat_step",
    "calls_g1", "calls_jvp", "calls_hvp", "calls_f",
]


def _run_log_records(logs: list[optimizer.IterationLog]) -> list[dict]:
    return [
        {
            "t": rec.t,
            "grad_norm": rec.grad_norm_true,
            "m_norm": rec.m_norm,
            "y_err": rec.y_track_err,
            "yhat_err": rec.yhat_track_err,
            "yhat_step": rec.yhat_step,
            "calls_g1": rec.calls_g1,
            "calls_jvp": rec.calls_jvp,
            "calls_hvp": rec.calls_hvp,
            "calls_f": rec.calls_f,
        }
        for rec in logs
    ]


# ---------------------------------------------------------------------------
# snag-track


def cmd_snag_track(config: ExperimentConfig) -> int:
    doc = config.params
    _check_fields(
        doc,
        required={"mu", "alpha", "T", "delta_prob", "V0", "dim"},
        optional={"sigma", "drift", "write_trajectories"},
        ctx="snag-track",
    )
    for name in ("mu", "alpha", "delta_prob", "V0"):
        if not _is_number(doc[name]):
            raise ConfigError(f"snag-track.{name}: must be a number")
    for name in ("T", "dim"):
        if not _is_int(doc[name]):
            raise ConfigError(f"snag-track.{name}: must be a positive integer")
    if not isinstance(doc.get("write_trajectories", True), bool):
        raise ConfigError("snag-track.write_trajectories: must be true or false")
    sigmas = _numbers(doc.get("sigma", 0.0), "snag-track.sigma")
    drift_doc = doc.get("drift", {})
    if not isinstance(drift_doc, dict):
        raise ConfigError("snag-track.drift: must be an object")
    _check_fields(drift_doc, required=set(), optional={"kind", "delta"},
                  ctx="snag-track.drift")
    deltas = _numbers(drift_doc.get("delta", 0.0), "snag-track.drift.delta")
    kind = drift_doc.get("kind", "none")
    if kind not in ("none", "fixed_direction", "random_walk"):
        raise ConfigError(
            "snag-track.drift.kind: must be none, fixed_direction or random_walk")
    # Written as "not (x > 0)" so that a NaN is refused too.
    for name in ("mu", "alpha"):
        if not doc[name] > 0:
            raise ConfigError(f"snag-track.{name}: must be positive")
    if not 0 < doc["delta_prob"] < 1:
        raise ConfigError("snag-track.delta_prob: must be in (0, 1)")
    for name, values in (("V0", [doc["V0"]]), ("sigma", sigmas),
                         ("drift.delta", deltas)):
        if not all(v >= 0 for v in values):
            raise ConfigError(f"snag-track.{name}: must be >= 0")

    dim = doc["dim"]
    cells = [(
        snag.TrackingBoundParams(
            mu=doc["mu"], alpha=doc["alpha"], sigma=sigma, delta_drift=delta,
            T=doc["T"], delta_prob=doc["delta_prob"], V0=doc["V0"],
        ),
        snag.DriftProcess(
            kind=kind if delta > 0 else "none", delta=delta,
            direction=(1.0,) + (0.0,) * (dim - 1)
            if kind == "fixed_direction" else None,
        ),
    ) for sigma in sigmas for delta in deltas]
    rates = snag.mc_tracking_grid(cells, config.n_seeds, dim=dim,
                                  base_seed=config.base_seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for (p, drift), rate in zip(cells, rates):
        sigma, delta = p.sigma, p.delta_drift
        if doc.get("write_trajectories", True):
            family = snag.QuadraticFamily(mu=doc["mu"], dim=dim)
            logs = snag.run_tracking_experiment(
                family, drift, p, RandomStream(config.base_seed).child("mc", 0)
            )
            name = f"track_sigma{_fmt(float(sigma))}_delta{_fmt(float(delta))}.csv"
            write_csv(logs, config.out_dir / name, TRAJECTORY_COLUMNS)
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
    doc = config.params
    _check_fields(
        doc,
        required={"instance", "Q_grid", "n_samples"},
        optional={"S", "x"},
        ctx="bias",
    )
    if not (isinstance(doc["Q_grid"], list)
            and all(_is_int(Q) for Q in doc["Q_grid"])):
        raise ConfigError("bias.Q_grid: must be a list of positive integers")
    if not _is_int(doc.get("S", 1)):
        raise ConfigError("bias.S: must be a positive integer")
    if not _is_int(doc["n_samples"], low=2):
        raise ConfigError("bias.n_samples: must be an integer >= 2")
    inst = _load_instance(doc["instance"], "bias.instance")
    x = _point(doc["x"], inst.dim_x, "bias.x") if "x" in doc else np.zeros(inst.dim_x)
    S = doc.get("S", 1)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    ok = True
    for Q in doc["Q_grid"]:
        cfg = hypergrad.EstimatorConfig(Q=Q, S=S, l_g1=inst.constants.l_g1)
        stream = RandomStream(config.base_seed).child("bias", Q)
        res = hypergrad.empirical_bias_and_variance(
            inst, x, cfg, doc["n_samples"], stream
        )
        bound = hypergrad.bias_bound(inst.constants, Q)
        row_ok = res["bias_est"] <= bound + 4.0 * res["se"]
        ok = ok and row_ok
        rows.append({
            "Q": Q, "S": S, "bias_bound": bound, "bias_est": res["bias_est"],
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


# Runners by algorithm name, each called as (inst, schedule, option, stream,
# x0). The library functions are looked up on their modules at call time.
_RUNNERS = {
    "accbo": lambda inst, schedule, option, stream, x0:
        optimizer.run_accbo(inst, schedule, option, stream, x0=x0),
    "plain_momentum": lambda inst, schedule, option, stream, x0:
        baselines.run_plain_momentum_bilevel(inst, schedule, stream, x0=x0),
}


def _runner(algorithm, ctx: str):
    if not isinstance(algorithm, str) or algorithm not in _RUNNERS:
        raise ConfigError(f"{ctx}: unknown algorithm {algorithm!r}")
    return _RUNNERS[algorithm]


def _check_option(option, inst, algorithms: list[str], ctx: str) -> None:
    """Refuse what run_accbo would refuse, before any output is written."""
    if option not in ("one", "two"):
        raise ConfigError(f"{ctx}: must be 'one' or 'two', got {option!r}")
    if (option == "one" and "accbo" in algorithms
            and inst.kind not in optimizer.OPTION_ONE_KINDS):
        raise ConfigError(f"{ctx}: option one requires an isotropic quadratic "
                          f"lower level, not {inst.kind!r}")


def cmd_accbo(config: ExperimentConfig) -> int:
    doc = config.params
    _check_fields(
        doc,
        required={"instance", "schedule", "option"},
        optional={"x0", "algorithm"},
        ctx="accbo",
    )
    inst = _load_instance(doc["instance"], "accbo.instance")
    schedule = _schedule_from_config(doc["schedule"], inst, "accbo.schedule")
    x0 = _point(doc["x0"], inst.dim_x, "accbo.x0") if "x0" in doc else None
    algorithm = doc.get("algorithm", "accbo")
    run = _runner(algorithm, "accbo.algorithm")
    _check_option(doc["option"], inst, [algorithm], "accbo.option")
    config.out_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for k in range(config.n_seeds):
        stream = RandomStream(config.base_seed).child("run", k)
        logs = run(inst, schedule, doc["option"], stream, x0)
        write_csv(_run_log_records(logs), config.out_dir / f"run_seed{k}.csv",
                  RUN_COLUMNS)
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
    doc = config.params
    _check_fields(
        doc,
        required={"instance", "epsilons", "option", "schedule"},
        optional={"x0", "algorithms"},
        ctx="sweep",
    )
    if not (isinstance(doc["epsilons"], list) and doc["epsilons"]):
        raise ConfigError("sweep.epsilons: must be a non-empty list of numbers")
    epsilons = _numbers(doc["epsilons"], "sweep.epsilons")
    inst = _load_instance(doc["instance"], "sweep.instance")
    x0 = _point(doc["x0"], inst.dim_x, "sweep.x0") if "x0" in doc else None
    algorithms = doc.get("algorithms", ["accbo", "plain_momentum"])
    if not isinstance(algorithms, list):
        raise ConfigError("sweep.algorithms: must be a list of algorithm names")
    runners = [_runner(a, "sweep.algorithms") for a in algorithms]
    _check_option(doc["option"], inst, algorithms, "sweep.option")
    schedules = [_schedule_from_config(doc["schedule"], inst, "sweep.schedule",
                                       epsilon=eps) for eps in epsilons]
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
