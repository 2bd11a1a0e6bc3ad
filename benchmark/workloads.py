"""The benchmark's workloads: inputs made from a seed, one repetition, its checks.

Each workload is a benchmark-sized slice of an experiment in
scripts/run_all.py or of an acceptance criterion. Its configuration is kept
here, not read from scripts/configs/, so that the workload stays fixed when
those files change. A repetition is one call of an ``accbo.harness.cmd_*``
command with the workload seed as ``base_seed``; every repetition of a run
uses the same seed, so their output directories must be byte-identical.

Checks use the paper's bounds and the oracle counts the schedule implies,
never stored digests of one random stream.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from accbo import harness, problems
from accbo.constants import derive_schedule
from accbo.snag import NumericalAbort

# scripts/configs/tracking.json: 3 noise levels x 3 random-walk drifts.
TRACKING = {
    "mu": 1.0, "alpha": 0.04, "T": 2000, "delta_prob": 0.05, "V0": 1.0, "dim": 2,
    "sigma": [0.0, 0.25, 0.5],
    "drift": {"kind": "random_walk", "delta": [0.0, 0.001, 0.01]},
}
TRACK_SEEDS = 400


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _csv_rows(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _read_dir(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@dataclass
class Rep:
    """One repetition: its wall time, exit status and output files."""

    wall_s: float
    rc: int
    abort: str | None
    files: dict[str, bytes]
    runs: list = field(default_factory=list)  # optimizer logs, sweep only


@dataclass
class Unit:
    """One checked unit (a seed-run or an MC cell) and what failed in it."""

    name: str
    failures: list[str] = field(default_factory=list)


class Workload:
    name: str
    command: str
    n_seeds: int = 1

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, out_dir: Path, call=None) -> Rep:
        """One repetition into out_dir, which is removed again; call(fn, config)
        runs the harness command, so the traced run can put a span around it."""
        fn = getattr(harness, self.command)
        config = harness.ExperimentConfig(
            command=self.command, params=self.params, out_dir=out_dir,
            n_seeds=self.n_seeds, base_seed=self.seed,
        )
        abort = None
        start = time.perf_counter()
        try:
            rc = call(fn, config) if call else fn(config)
        except NumericalAbort as exc:
            rc, abort = 4, str(exc)
        wall = time.perf_counter() - start
        files = _read_dir(out_dir) if out_dir.exists() else {}
        shutil.rmtree(out_dir, ignore_errors=True)
        return Rep(wall, rc, abort, files)

    def check(self, rep: Rep, first: Rep | None) -> tuple[list[Unit], int]:
        """Units of one repetition with their failures, and its oracle calls."""
        units, calls = self._check(rep)
        common = []
        if rep.rc != 0:
            common.append(f"exit code {rep.rc}" + (f" ({rep.abort})" if rep.abort else ""))
        if first is not None and rep.files != first.files:
            common.append("output differs from the first repetition of this seed")
        for unit in units:
            unit.failures = common + unit.failures
        return units, calls


class TrackMC(Workload):
    """cmd_snag_track on the tracking grid: batched seeds, large arrays."""

    name = "track-mc"
    command = "cmd_snag_track"
    n_seeds = TRACK_SEEDS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = TRACKING
        self.cells = [(s, d) for s in TRACKING["sigma"]
                      for d in TRACKING["drift"]["delta"]]

    def _check(self, rep: Rep):
        T, bound = TRACKING["T"], TRACKING["delta_prob"]
        summary = json.loads(rep.files.get("snag_track_summary.json", b"{}"))
        rates = {(c["sigma"], c["delta"]): c["violation_rate"]
                 for c in summary.get("cells", [])}
        units = []
        for sigma, delta in self.cells:
            unit = Unit(f"sigma={sigma} delta={delta}")
            rate = rates.get((sigma, delta))
            if rate is None or not math.isfinite(rate) or rate > bound:
                unit.failures.append(f"violation rate {rate} not <= {bound}")
            name = f"track_sigma{float(sigma):.17g}_delta{float(delta):.17g}.csv"
            if name not in rep.files:
                unit.failures.append(f"missing {name}")
            else:
                _, rows = _csv_rows(rep.files[name])
                if rows.shape[0] != T + 1 or not _finite(rows):
                    unit.failures.append(f"{name}: {rows.shape[0]} rows or non-finite")
            units.append(unit)
        # One noisy gradient per step for every MC seed and the trajectory run.
        return units, len(self.cells) * (self.n_seeds + 1) * T


class CmpRidgeTwo(Workload):
    """cmd_sweep of accbo against plain momentum, option two, on criterion 8's ridge toy."""

    name = "cmp-ridge-two"
    command = "cmd_sweep"
    algorithms = ("accbo", "plain_momentum")

    def __init__(self, seed: int):
        super().__init__(seed)
        base = problems.make_fixture_ridge()
        ridge = problems.RidgeWeighting(
            base.Z, base.y_tr, 40.0 * base.V, 40.0 * base.y_val, 0.05,
            sigma_f1=0.1, sigma_g1=0.05,
        )
        # Criterion 8's start: normalized descent on the true hypergradient.
        x = np.zeros(ridge.dim_x)
        for _ in range(3000):
            g = ridge.true_hypergradient(x)
            if np.linalg.norm(g) < 4.0:
                break
            x = x - 0.02 * g / np.linalg.norm(g)
        alpha, eps = 1e-3, 0.1
        overrides = {"alpha": alpha, "beta": 0.95, "eta": 0.05 * eps, "T": 3000,
                     "T0": 4000, "S": 1, "Q": 15, "I": 2, "N": 12,
                     "sigma_g1_tilde": 0.05 / math.sqrt(ridge.constants.mu * alpha)}
        sched = {"mode": "practical", "delta": 0.05, "d0": 1.0, "overrides": overrides}
        self.schedule = derive_schedule(ridge.constants, eps, 0.05, 1.0,
                                        mode="practical", overrides=overrides)
        self.params = {"instance": ridge.to_dict(), "epsilons": [eps], "option": "two",
                       "schedule": sched, "x0": x.tolist(),
                       "algorithms": list(self.algorithms)}

    def run(self, out_dir: Path, call=None) -> Rep:
        # cmd_sweep writes no per-run traces; keep each run's logs as the
        # command hands them to calls_to_target (one call per run).
        runs = []
        original = harness.calls_to_target

        def keep_logs(logs, target):
            runs.append(logs)
            return original(logs, target)

        harness.calls_to_target = keep_logs
        try:
            rep = super().run(out_dir, call)
        finally:
            harness.calls_to_target = original
        rep.runs = runs
        return rep

    def _check(self, rep: Rep):
        s = self.schedule
        rounds = sum(1 for t in range(1, s.T) if t % s.I == 0)
        expect = {
            "accbo": (s.T0 + rounds * s.N, 2 * s.S * (2 * s.T - 1), s.S * (2 * s.T - 1)),
            "plain_momentum": (s.T0 + s.T, 2 * s.S * s.T, s.S * s.T),
        }
        units, calls = [], 0
        for i, algorithm in enumerate(self.algorithms):
            unit = Unit(algorithm)
            units.append(unit)
            if i >= len(rep.runs):
                unit.failures.append("run missing")
                continue
            logs = rep.runs[i]
            last = logs[-1]
            values = [(r.grad_norm_true, r.m_norm, r.y_track_err, r.yhat_track_err,
                       r.yhat_step) for r in logs]
            if len(logs) != s.T or not _finite(values):
                unit.failures.append(f"{len(logs)} iterations or non-finite values")
            got = (last.calls_g1, last.calls_f, last.calls_jvp)
            if got != expect[algorithm]:
                unit.failures.append(f"(g1, f, jvp) = {got}, schedule implies {expect[algorithm]}")
            calls += last.total_calls
        return units, calls


WORKLOADS = {w.name: w for w in (TrackMC, CmpRidgeTwo)}
