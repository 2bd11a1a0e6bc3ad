"""Reference algorithms for the comparative experiments.

Two deliberately weaker methods: a plain SGD tracker for the drifting
lower-level comparison, and a plain-momentum bilevel method that keeps the
normalized upper step and the same hypergradient estimator but drops the
variance-reduction correction and the Nesterov lower loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constants import Schedule
from .hypergrad import EstimatorConfig, estimate_hypergradient
from .optimizer import CountingOracles, IterationLog, upper_step
from .rng import RandomStream
from .snag import NumericalAbort

__all__ = ["sgd_tracking_step", "run_plain_momentum_bilevel"]


def sgd_tracking_step(
    w: np.ndarray,
    grad: Callable[[np.ndarray, RandomStream], np.ndarray],
    alpha: float,
    stream: RandomStream,
) -> np.ndarray:
    g = grad(w, stream)
    if not np.all(np.isfinite(g)):
        raise NumericalAbort("non-finite gradient in sgd_tracking_step")
    return w - alpha * g


def run_plain_momentum_bilevel(
    inst,
    schedule: Schedule,
    stream: RandomStream,
    x0: np.ndarray | None = None,
) -> list[IterationLog]:
    """Plain-momentum bilevel baseline with SGD lower-level updates.

    Same warm start length, estimator, normalization and logging schema as
    the accelerated optimizer; only the two acceleration mechanisms differ:
    m_t = beta*m_{t-1} + (1-beta)*estimate, and the lower level takes one
    plain SGD step per iteration with no extrapolation or averaging.
    """
    s = schedule
    oracles = CountingOracles(inst)
    cfg = EstimatorConfig(Q=s.Q, S=s.S, l_g1=inst.constants.l_g1)

    x = np.zeros(inst.dim_x) if x0 is None else np.asarray(x0, dtype=float)
    y = np.zeros(inst.dim_y)
    for t in range(s.T0):
        y = sgd_tracking_step(
            y, lambda w, st: oracles.stoch_grad_y_g(x, w, st),
            s.alpha_init, stream.child("init").child("warm", t),
        )

    m: np.ndarray | None = None
    logs: list[IterationLog] = []
    for t in range(s.T):
        ystar = inst.lower_minimizer(x)
        y_err = float(np.linalg.norm(y - ystar))

        y_next = sgd_tracking_step(
            y, lambda w, st: oracles.stoch_grad_y_g(x, w, st),
            s.alpha, stream.child("lower", t),
        )

        est_stream = stream.child("upper", t)
        q = est_stream.child("q").integers(0, cfg.Q)
        g = estimate_hypergradient(oracles, x, y, cfg, est_stream, q=q)
        m = g if m is None else s.beta * m + (1.0 - s.beta) * g
        if not np.all(np.isfinite(m)):
            raise NumericalAbort(f"non-finite momentum at t={t}")
        x_next, zero_event = upper_step(x, m, s.eta)

        logs.append(IterationLog(
            t=t,
            grad_norm_true=float(np.linalg.norm(inst.true_hypergradient(x))),
            m_norm=float(np.linalg.norm(m)),
            y_track_err=y_err,
            yhat_track_err=y_err,  # no averaging: yhat coincides with y
            yhat_step=float(np.linalg.norm(y_next - y)),
            calls_g1=oracles.calls["g1"],
            calls_jvp=oracles.calls["jvp"],
            calls_hvp=oracles.calls["hvp"],
            calls_f=oracles.calls["f"],
            zero_momentum=zero_event,
        ))

        y = y_next
        x = x_next

    return logs
