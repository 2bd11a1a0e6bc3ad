"""The accelerated bilevel optimizer: warm start, tracked lower level, and
normalized recursive-momentum upper updates.

Upper level: normalized steps of fixed length eta along a recursive-momentum
direction whose correction term re-evaluates the previous point under the
current sample, cancelling stale bias. Lower level: either one Nesterov step
per outer iteration against the drifting minimizer (option one, isotropic
quadratic lower level) or periodic N-step Nesterov rounds every I iterations
(option two, general strongly convex lower level), followed by geometric
averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstraintViolation, Schedule
from .hypergrad import EstimatorConfig, estimate_hypergradient
from .rng import RandomStream
from .snag import NumericalAbort, SnagState, snag_step

__all__ = [
    "CountingOracles",
    "IterationLog",
    "warm_start",
    "average_step",
    "momentum_update",
    "upper_step",
    "run_accbo",
]

# Instance kinds whose lower level option one can track (isotropic quadratic).
OPTION_ONE_KINDS = ("isotropic_quadratic", "exp_upper_toy")


class CountingOracles:
    """Wraps an instance, counting stochastic oracle calls by kind."""

    def __init__(self, inst):
        self.inst = inst
        self.calls = {"g1": 0, "f": 0, "jvp": 0, "hvp": 0}

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def stoch_grad_y_g(self, x, y, stream):
        self.calls["g1"] += 1
        return self.inst.stoch_grad_y_g(x, y, stream)

    def stoch_grad_x_f(self, x, y, stream):
        self.calls["f"] += 1
        return self.inst.stoch_grad_x_f(x, y, stream)

    def stoch_grad_y_f(self, x, y, stream):
        self.calls["f"] += 1
        return self.inst.stoch_grad_y_f(x, y, stream)

    def stoch_jvp_xy_g(self, x, y, v, stream):
        self.calls["jvp"] += 1
        return self.inst.stoch_jvp_xy_g(x, y, v, stream)

    def stoch_hvp_yy_g(self, x, y, v, stream):
        self.calls["hvp"] += 1
        return self.inst.stoch_hvp_yy_g(x, y, v, stream)

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


@dataclass
class IterationLog:
    """Per-iteration diagnostics of one optimizer run."""

    t: int
    grad_norm_true: float
    m_norm: float
    y_track_err: float
    yhat_track_err: float
    yhat_step: float
    calls_g1: int
    calls_jvp: int
    calls_hvp: int
    calls_f: int
    zero_momentum: bool = False

    @property
    def total_calls(self) -> int:
        return self.calls_g1 + self.calls_jvp + self.calls_hvp + self.calls_f


def warm_start(inst, x0, alpha_init: float, T0: int, stream: RandomStream,
               y_init=None) -> np.ndarray:
    """Run T0 Nesterov steps on the lower level at frozen x0, from y = 0."""
    if T0 < 1:
        raise ConstraintViolation(f"T0 must be >= 1, got {T0!r}")
    y0 = np.zeros(inst.dim_y) if y_init is None else np.asarray(y_init, dtype=float)
    state = SnagState.initial(y0, alpha_init, inst.constants.mu)

    def grad(z, s):
        return inst.stoch_grad_y_g(x0, z, s)

    for st in stream.children("warm", T0):
        state = snag_step(state, grad, st)
    return state.w


def average_step(y_hat: np.ndarray, y_next: np.ndarray, tau: float) -> np.ndarray:
    if not (0.0 <= tau <= 1.0):
        raise ConstraintViolation(f"tau must be in [0, 1], got {tau!r}")
    return (1.0 - tau) * y_hat + tau * y_next


def momentum_update(
    inst,
    m_prev: np.ndarray | None,
    x_now: np.ndarray,
    x_prev: np.ndarray | None,
    yhat_now: np.ndarray,
    yhat_prev: np.ndarray | None,
    cfg: EstimatorConfig,
    beta: float,
    stream: RandomStream,
) -> np.ndarray:
    """Recursive-momentum direction; both estimator evaluations share samples.

    With m_prev None (first iteration) the momentum is simply the current
    estimate. Otherwise the correction term evaluates the previous point
    under the current sample bundle, i.e. the same stream and the same q.
    """
    q = stream.child("q").integers(0, cfg.Q)
    g_now = estimate_hypergradient(inst, x_now, yhat_now, cfg, stream, q=q)
    if m_prev is None:
        return g_now
    g_prev = estimate_hypergradient(inst, x_prev, yhat_prev, cfg, stream, q=q)
    return beta * m_prev + (1.0 - beta) * g_now + beta * (g_now - g_prev)


def upper_step(x: np.ndarray, m: np.ndarray, eta: float) -> tuple[np.ndarray, bool]:
    """Fixed-length normalized step; zero momentum skips the step (flagged)."""
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        return x, True
    return x - eta * m / norm, False


def _lower_round(inst, x, y, alpha, gamma, N, stream) -> np.ndarray:
    """N Nesterov steps on g(x, .) at frozen x, restarting the extrapolation."""
    state = SnagState(w=np.asarray(y, dtype=float), w_prev=np.asarray(y, dtype=float),
                      alpha=alpha, gamma=gamma)

    def grad(z, s):
        return inst.stoch_grad_y_g(x, z, s)

    for j in range(N):
        state = snag_step(state, grad, stream.child("inner", j))
    return state.w


def _outer_loop(oracles: CountingOracles, x: np.ndarray, y: np.ndarray,
                schedule: Schedule, tau: float, lower, direction,
                stream: RandomStream) -> list[IterationLog]:
    """The outer loop that AccBO and its plain-momentum ablation share.

    Iteration t takes the new lower iterate from
    ``lower(x, y, t, stream.child("lower", t))``, averages it into y_hat with
    weight tau, and steps x a distance eta along
    ``direction(m, x, x_prev, y_hat, yhat_prev, stream.child("upper", t))``,
    which is formed at the current y_hat. A NumericalAbort carries the logs
    collected so far as its ``logs`` attribute.
    """
    inst = oracles.inst
    y_hat = y.copy()
    x_prev: np.ndarray | None = None
    yhat_prev: np.ndarray | None = None
    m: np.ndarray | None = None
    logs: list[IterationLog] = []
    lowers = stream.children("lower", schedule.T)
    uppers = stream.children("upper", schedule.T)
    try:
        for t in range(schedule.T):
            ystar = inst.lower_minimizer(x)
            y_err = float(np.linalg.norm(y - ystar))
            yhat_err = float(np.linalg.norm(y_hat - ystar))

            y = lower(x, y, t, lowers[t])
            yhat_next = average_step(y_hat, y, tau)

            m = direction(m, x, x_prev, y_hat, yhat_prev, uppers[t])
            if not np.all(np.isfinite(m)):
                raise NumericalAbort(f"non-finite momentum at t={t}")
            x_next, zero_event = upper_step(x, m, schedule.eta)

            logs.append(IterationLog(
                t=t,
                grad_norm_true=float(np.linalg.norm(inst.true_hypergradient(x))),
                m_norm=float(np.linalg.norm(m)),
                y_track_err=y_err,
                yhat_track_err=yhat_err,
                yhat_step=float(np.linalg.norm(yhat_next - y_hat)),
                calls_g1=oracles.calls["g1"],
                calls_jvp=oracles.calls["jvp"],
                calls_hvp=oracles.calls["hvp"],
                calls_f=oracles.calls["f"],
                zero_momentum=zero_event,
            ))

            x_prev, x = x, x_next
            yhat_prev, y_hat = y_hat, yhat_next
    except NumericalAbort as exc:
        exc.logs = logs
        raise
    return logs


def run_accbo(
    inst,
    schedule: Schedule,
    option: str,
    stream: RandomStream,
    x0: np.ndarray | None = None,
) -> list[IterationLog]:
    """Full optimizer run; returns one IterationLog per outer iteration.

    Deterministic given (instance, schedule, option, stream). Non-finite
    state in the outer loop raises NumericalAbort with the logs collected so
    far attached as its ``logs`` attribute.
    """
    if option not in ("one", "two"):
        raise ConstraintViolation(f"option must be 'one' or 'two', got {option!r}")
    if option == "one" and inst.kind not in OPTION_ONE_KINDS:
        raise ConstraintViolation(
            "option one requires an isotropic quadratic lower level"
        )
    s = schedule
    oracles = CountingOracles(inst)
    cfg = EstimatorConfig(Q=s.Q, S=s.S, l_g1=inst.constants.l_g1)

    x = np.zeros(inst.dim_x) if x0 is None else np.asarray(x0, dtype=float)
    y = warm_start(oracles, x, s.alpha_init, s.T0, stream.child("init"))

    if option == "one":
        # One SNAG recursion carried across outer iterations.
        state = SnagState(w=y, w_prev=y.copy(), alpha=s.alpha, gamma=s.gamma)

        def lower(x, y, t, st):
            nonlocal state
            state = snag_step(state, lambda z, sz: oracles.stoch_grad_y_g(x, z, sz), st)
            return state.w
    else:
        def lower(x, y, t, st):
            if t > 0 and t % s.I == 0:
                return _lower_round(oracles, x, y, s.alpha, s.gamma, s.N, st)
            return y

    def direction(m, x, x_prev, y_hat, yhat_prev, st):
        return momentum_update(oracles, m, x, x_prev, y_hat, yhat_prev, cfg, s.beta, st)

    return _outer_loop(oracles, x, y, s, s.tau, lower, direction, stream)


def running_average_grad_norm(logs: list[IterationLog]) -> float:
    """Mean of the true gradient norms over the logged iterations."""
    if not logs:
        raise ConstraintViolation("empty log")
    return float(np.mean([rec.grad_norm_true for rec in logs]))
