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
from .problems import _dot
from .rng import RandomStream
from .snag import NumericalAbort, SnagState, snag_step

__all__ = [
    "CountingOracles",
    "IterationLog",
    "warm_start",
    "average_step",
    "momentum_update",
    "upper_step",
    "check_option",
    "run_accbo",
]

# Most iterations whose diagnostics are computed in one pass.
_BLOCK = 1024


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
    return _snag_round(inst, x0, state, stream.children("warm", T0)).w


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


def upper_step(x: np.ndarray, m: np.ndarray, eta: float,
               t: int) -> tuple[np.ndarray, bool]:
    """Fixed-length normalized step at iteration t; zero momentum skips the
    step (flagged). A momentum whose norm is not finite (a NaN or inf entry,
    or entries so large that the norm overflows) raises NumericalAbort."""
    norm = float(np.linalg.norm(m))
    if not math.isfinite(norm):
        raise NumericalAbort(f"non-finite momentum at t={t}")
    if norm == 0.0:
        return x, True
    return x - eta * m / norm, False


def _snag_round(inst, x, state: SnagState, streams) -> SnagState:
    """The lower level's Nesterov loop: snag_step on g(x, .) at frozen x from
    state, once per stream of streams; returns the last state. warm_start,
    option two's rounds and option one's single steps differ only in their
    start state and streams."""
    def grad(z, s):
        return inst.stoch_grad_y_g(x, z, s)

    for st in streams:
        state = snag_step(state, grad, st)
    return state


def _lower_round(inst, x, y, alpha, gamma, N, stream) -> np.ndarray:
    """N Nesterov steps on g(x, .) at frozen x, restarting the extrapolation."""
    y = np.asarray(y, dtype=float)
    state = SnagState(w=y, w_prev=y, alpha=alpha, gamma=gamma)
    return _snag_round(inst, x, state, (stream.child("inner", j) for j in range(N))).w


def _norms(rows: np.ndarray) -> list[float]:
    """np.linalg.norm of each row, bit for bit: the square root of one BLAS dot."""
    return np.sqrt(_dot(rows, rows)).tolist()


def _diagnose(inst, t0: int, x, y, yhat, yhat_next, m, calls, zero) -> list[IterationLog]:
    """IterationLogs of iterations t0, t0 + 1, ... from one row each.

    Row i holds iteration t0 + i's x_t, y_t (before the lower step), y_hat_t,
    y_hat_{t+1} and m_t, its oracle counters (g1, jvp, hvp, f) after the
    iteration, and its zero-momentum flag. Every value equals the one the
    1-D formulas give: y*(x_t), the true hypergradient and the norms are
    computed for all rows at once by the instance's stacked methods.
    """
    ystar = inst.lower_minimizer(x)
    g1, jvp, hvp, f = calls.T.tolist()
    columns = {
        "grad_norm_true": _norms(inst.true_hypergradient(x)),
        "m_norm": _norms(m),
        "y_track_err": _norms(y - ystar),
        "yhat_track_err": _norms(yhat - ystar),
        "yhat_step": _norms(yhat_next - yhat),
        "calls_g1": g1, "calls_jvp": jvp, "calls_hvp": hvp, "calls_f": f,
        "zero_momentum": zero.tolist(),
    }
    return [IterationLog(t=t0 + i, **dict(zip(columns, row)))
            for i, row in enumerate(zip(*columns.values()))]


def _outer_loop(oracles: CountingOracles, x: np.ndarray, y: np.ndarray,
                schedule: Schedule, tau: float, lower, direction,
                stream: RandomStream) -> list[IterationLog]:
    """The outer loop that AccBO and its plain-momentum ablation share.

    Iteration t takes the new lower iterate from
    ``lower(x, y, t, stream.child("lower", t))``, averages it into y_hat with
    weight tau, and steps x a distance eta along
    ``direction(m, x, x_prev, y_hat, yhat_prev, stream.child("upper", t))``,
    which is formed at the current y_hat. A NumericalAbort carries the logs
    of the iterations completed so far as its ``logs`` attribute.

    The recursion never reads its diagnostics, so the loop only records each
    iteration's x_t, y_t, y_hat_t, y_hat_{t+1}, m_t, oracle counters and
    zero-momentum flag in buffers of _BLOCK rows. ``_diagnose`` turns a full
    buffer into IterationLogs in one pass (y*(x_t), the true hypergradient
    and the norms), as do the end of the run and an abort for the rows
    filled so far. Nothing in the loop reads y*(x_t) any more, which is why
    the ridge toy's per-x cache holds only its sigmoid weights and H_yy(x).
    """
    inst = oracles.inst
    calls = oracles.calls
    y_hat = y.copy()
    x_prev: np.ndarray | None = None
    yhat_prev: np.ndarray | None = None
    m: np.ndarray | None = None
    logs: list[IterationLog] = []
    rows = min(schedule.T, _BLOCK)
    xs, ms = np.empty((rows, x.size)), np.empty((rows, x.size))
    ys, yhats, yhat_nexts = (np.empty((rows, y.size)) for _ in range(3))
    counts = np.empty((rows, 4), dtype=np.int64)
    zeros = np.empty(rows, dtype=bool)
    n = 0  # buffered iterations: t - n .. t - 1

    def flush(t: int) -> None:
        nonlocal n
        if n:
            logs.extend(_diagnose(inst, t - n, xs[:n], ys[:n], yhats[:n],
                                  yhat_nexts[:n], ms[:n], counts[:n], zeros[:n]))
            n = 0

    lowers = stream.children("lower", schedule.T)
    uppers = stream.children("upper", schedule.T)
    try:
        for t in range(schedule.T):
            xs[n], ys[n], yhats[n] = x, y, y_hat

            y = lower(x, y, t, lowers[t])
            yhat_next = average_step(y_hat, y, tau)

            m = direction(m, x, x_prev, y_hat, yhat_prev, uppers[t])
            x_next, zero_event = upper_step(x, m, schedule.eta, t)

            yhat_nexts[n], ms[n], zeros[n] = yhat_next, m, zero_event
            counts[n] = calls["g1"], calls["jvp"], calls["hvp"], calls["f"]
            n += 1
            if n == rows:
                flush(t + 1)

            x_prev, x = x, x_next
            yhat_prev, y_hat = y_hat, yhat_next
    except NumericalAbort as exc:
        flush(t)
        exc.logs = logs
        raise
    flush(schedule.T)
    return logs


def check_option(inst, option: str) -> None:
    """Refuse an option that run_accbo cannot run on inst."""
    if option not in ("one", "two"):
        raise ConstraintViolation(f"option must be 'one' or 'two', got {option!r}")
    if option == "one" and not inst.isotropic_lower:
        raise ConstraintViolation(f"option one requires an isotropic quadratic "
                                  f"lower level, not {inst.kind!r}")


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
    check_option(inst, option)
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
            state = _snag_round(oracles, x, state, (st,))
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
