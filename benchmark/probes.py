"""Micro-probes: untraced per-call times of single layer operations.

Each probe runs a fixed number of calls per batch and reports the median
over batches of the mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from accbo import hypergrad, optimizer, problems
from accbo.constants import derive_schedule
from accbo.rng import RandomStream

BATCHES = 5
# The isotropic instance and start of scripts/configs/convergence.json.
CONVERGENCE = {
    "instance": {
        "kind": "isotropic_quadratic",
        "params": {"mu": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, -0.1],
                   "c": [0.4, -0.3], "d": [0.2, 0.1], "l_f0": 1.0},
        "noise": {"sigma_f1": 0.01, "sigma_g1": 0.001},
    },
    "x0": [0.76, -0.56],
}


def _us_per_call(fn, calls: int) -> float:
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def _us_per_iteration(inst, option: str, x0, T: int) -> float:
    sched = derive_schedule(
        inst.constants, 0.05, 0.05, 0.2, mode="practical",
        overrides={"alpha": 0.04, "eta": 0.002, "sigma_g1_tilde": 0.005,
                   "T0": 1, "T": T, "S": 1, "Q": 1})
    stream = RandomStream(0).child("probe")
    return _us_per_call(lambda: optimizer.run_accbo(inst, sched, option, stream, x0=x0),
                        1) / T


def run(seed: int) -> dict:
    """Probe metrics on the convergence experiment's isotropic instance (S=1)."""
    inst = problems.instance_from_dict(CONVERGENCE["instance"])
    x = np.asarray(CONVERGENCE["x0"], dtype=float)
    y = inst.lower_minimizer(x)
    stream = RandomStream(seed).child("probe")
    cfg = hypergrad.EstimatorConfig(Q=1, S=1, l_g1=inst.constants.l_g1)
    return {
        "rng.normal2_us": _us_per_call(lambda: stream.normal(2), 2000),
        "problems.stoch_grad_y_g_us": _us_per_call(
            lambda: inst.stoch_grad_y_g(x, y, stream), 2000),
        "hypergrad.estimate_q1s1_us": _us_per_call(
            lambda: hypergrad.estimate_hypergradient(inst, x, y, cfg, stream), 500),
        "optimizer.iter_one_us": _us_per_iteration(inst, "one", x, 400),
        "optimizer.iter_two_us": _us_per_iteration(inst, "two", x, 400),
    }
