"""Reference algorithms for the comparative experiments.

Two deliberately weaker methods: a plain SGD tracker for the drifting
lower-level comparison, and a plain-momentum bilevel method. The latter is
the optimizer's shared outer loop with SGD lower-level tracking, no
averaging and no recursive-momentum correction, so it keeps the normalized
upper step and the same hypergradient estimator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constants import Schedule
from .hypergrad import EstimatorConfig, estimate_hypergradient
from .optimizer import RunLog, Sampling, _outer_loop
from .rng import RandomStream
from .snag import NumericalAbort

__all__ = ["SAMPLING", "sgd_tracking_step", "run_plain_momentum_bilevel"]

# The baseline's oracle calls: one SGD step and one estimate per iteration.
SAMPLING = Sampling(steps=1, every=1, at_zero=True, k=1)


def sgd_tracking_step(
    w: np.ndarray,
    grad: Callable[[np.ndarray, RandomStream], np.ndarray],
    alpha: float,
    stream: RandomStream,
) -> np.ndarray:
    g = grad(w, stream)
    if not np.isfinite(g).all():
        raise NumericalAbort("non-finite gradient in sgd_tracking_step")
    return w - alpha * g


def run_plain_momentum_bilevel(
    inst,
    schedule: Schedule,
    stream: RandomStream,
    x0: np.ndarray | None = None,
) -> RunLog:
    """Plain-momentum bilevel baseline with SGD lower-level updates.

    AccBO's outer loop (same warm start length, estimator, normalization,
    logging, oracle budget and abort handling) with both acceleration
    mechanisms removed: the lower level takes plain SGD steps with no
    extrapolation or averaging (y_hat = y), and m_t = beta*m_{t-1} +
    (1-beta)*estimate has no recursive-momentum correction.
    """
    s = schedule
    cfg = EstimatorConfig(Q=s.Q, S=s.S, l_g1=inst.constants.l_g1)

    def step(x, y, alpha, st):
        return sgd_tracking_step(y, lambda w, sw: inst.stoch_grad_y_g(x, w, sw), alpha, st)

    def warm(x, init):
        y = np.zeros(inst.dim_y)
        for st in init.children("warm", s.T0):
            y = step(x, y, s.alpha_init, st)
        return y

    def lower(x, y, y_prev, st, t):
        return step(x, y, s.alpha, st)

    def direction(m, x, x_prev, y, y_prev, st, q):
        g = estimate_hypergradient(inst, x, y, cfg, st, q=q)
        return g if m is None else s.beta * m + (1.0 - s.beta) * g

    # tau = 1: the averaged iterate is the last lower-level iterate.
    return _outer_loop(inst, x0, s, 1.0, warm, lower, direction, SAMPLING, stream)
