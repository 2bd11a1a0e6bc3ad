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
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .constants import ConstraintViolation, Schedule, check_domains
from .hypergrad import EstimatorConfig, estimate_hypergradient
from .problems import _dot
from .rng import RandomStream
from .snag import NumericalAbort, SnagState, snag_step

__all__ = [
    "IterationLog",
    "RunLog",
    "Sampling",
    "oracle_counts",
    "check_budget",
    "accbo_sampling",
    "warm_start",
    "average_step",
    "momentum_update",
    "upper_step",
    "run_accbo",
]

# Most iterations whose diagnostics are computed in one pass.
_BLOCK = 1024


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


# Each IterationLog field's column dtype: 'int' is int64, 'float' float64, 'bool' bool.
_COLUMNS = {f.name: np.dtype(f.type) for f in fields(IterationLog)}


class RunLog(Sequence):
    """The diagnostics of one run, held as one read-only 1-D array per
    IterationLog field in ``columns``. Row i is an IterationLog built when it
    is read, with Python scalars, so its fields and their types are those of
    the per-iteration formulas; a slice is the RunLog of those rows. Two
    RunLogs are equal when every column is."""

    def __init__(self, columns: dict[str, np.ndarray]):
        for col in columns.values():
            col.flags.writeable = False
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RunLog({name: col[i] for name, col in self.columns.items()})
        return IterationLog(**{name: col[i].item() for name, col in self.columns.items()})

    def __iter__(self):
        for row in zip(*(col.tolist() for col in self.columns.values())):
            yield IterationLog(**dict(zip(self.columns, row)))

    def __eq__(self, other):
        if not isinstance(other, RunLog):
            return NotImplemented
        return all(np.array_equal(col, other.columns[name])
                   for name, col in self.columns.items())


def _join(blocks: list[dict[str, np.ndarray]]) -> RunLog:
    """The RunLog of consecutive blocks of columns, in order; no blocks give
    the RunLog of no rows."""
    return RunLog({name: np.concatenate([np.empty(0, dtype), *(b[name] for b in blocks)])
                   for name, dtype in _COLUMNS.items()})


# A runner's oracle calls: a lower-level round of `steps` gradient calls at each
# t that `every` divides (t = 0 only if `at_zero`), and k estimates at each t > 0.
Sampling = namedtuple("Sampling", "steps every at_zero k")


def oracle_counts(sampling: Sampling, schedule: Schedule, t, q_sum, q0):
    """Cumulative stochastic oracle calls (g1, jvp, hvp, f) after outer iteration t.

    g1 counts the T0 warm-start steps and the lower-level rounds. Each of the
    1 + k*t estimates (one at t = 0) draws S samples of one jvp, q_t hvp and
    two f calls, where q_sum is q_0 + ... + q_t and q0 is q_0. Exact on
    Python ints of any size and on int64 arrays whose counts fit.
    """
    k, S = sampling.k, schedule.S
    estimates = 1 + k * t
    rounds = t // sampling.every + sampling.at_zero
    return (schedule.T0 + sampling.steps * rounds, S * estimates,
            S * (q0 + k * (q_sum - q0)), 2 * S * estimates)


def check_budget(sampling: Sampling, s: Schedule) -> None:
    """Refuse a schedule whose count columns could overflow int64: the closed
    form at t = T - 1 with every q_t = Q - 1."""
    if sum(oracle_counts(sampling, s, s.T - 1, (s.Q - 1) * s.T, s.Q - 1)) >= 2**63:
        raise ConstraintViolation(f"T = {float(s.T):.3g} and T0 = {float(s.T0):.3g} may "
                                  f"need 2**63 or more oracle calls")


def accbo_sampling(inst, schedule: Schedule, option: str) -> Sampling:
    """run_accbo's oracle calls on inst: a step per iteration (option one) or
    N-step rounds every I iterations from t = I (option two), and two
    estimates. An option that run_accbo cannot run on inst is refused."""
    if option == "two":
        return Sampling(steps=schedule.N, every=schedule.I, at_zero=False, k=2)
    if option != "one":
        raise ConstraintViolation(f"option must be 'one' or 'two', got {option!r}")
    if not inst.isotropic_lower:
        raise ConstraintViolation(f"option one requires an isotropic quadratic "
                                  f"lower level, not {inst.kind!r}")
    return Sampling(steps=1, every=1, at_zero=True, k=2)


def warm_start(inst, x0, alpha_init: float, T0: int, stream: RandomStream,
               y_init=None) -> np.ndarray:
    """Run T0 Nesterov steps on the lower level at frozen x0, from y = 0."""
    check_domains({"T0": T0}, Schedule.DOMAINS)
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
    q: int,
) -> np.ndarray:
    """Recursive-momentum direction; both estimator evaluations share samples.

    With m_prev None (first iteration) the momentum is simply the current
    estimate at Neumann depth q. Otherwise the correction term evaluates the
    previous point under the current sample bundle, i.e. the same stream and
    the same q.
    """
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
    with np.errstate(over="ignore"):
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


def _norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: the square root of one BLAS dot."""
    return np.sqrt(_dot(rows, rows))


def _diagnose(inst, t0: int, x, y, yhat, yhat_next, m, calls, zero) -> dict[str, np.ndarray]:
    """The RunLog columns of iterations t0, t0 + 1, ... from one row each.

    Row i holds iteration t0 + i's x_t, y_t (before the lower step), y_hat_t,
    y_hat_{t+1} and m_t, its oracle counters (g1, jvp, hvp, f) after the
    iteration, and its zero-momentum flag. Every value equals the one the
    1-D formulas give: y*(x_t), the true hypergradient and the norms are
    computed for all rows at once by the instance's stacked methods.
    """
    ystar = inst.lower_minimizer(x)
    g1, jvp, hvp, f = calls.T
    return {
        "t": np.arange(t0, t0 + len(x), dtype=np.int64),
        "grad_norm_true": _norms(inst.true_hypergradient(x)),
        "m_norm": _norms(m),
        "y_track_err": _norms(y - ystar),
        "yhat_track_err": _norms(yhat - ystar),
        "yhat_step": _norms(yhat_next - yhat),
        "calls_g1": g1, "calls_jvp": jvp, "calls_hvp": hvp, "calls_f": f,
        "zero_momentum": zero.copy(),
    }


def _outer_loop(inst, x: np.ndarray, y: np.ndarray, schedule: Schedule, tau: float,
                lower, direction, sampling: Sampling,
                stream: RandomStream) -> RunLog:
    """The outer loop that AccBO and its plain-momentum ablation share.

    Iteration t takes the new lower iterate from
    ``lower(x, y, stream.child("lower", t))`` at each lower-level round of
    sampling (y stays otherwise), averages it into y_hat with weight tau,
    draws the Neumann depth q_t from the "q" child of ``st =
    stream.child("upper", t)``, and steps x a distance eta along
    ``direction(m, x, x_prev, y_hat, yhat_prev, st, q_t)``, which is formed
    at the current y_hat. A NumericalAbort carries the RunLog of the
    iterations completed so far as its ``logs`` attribute.

    The recursion never reads its diagnostics, so the loop only records each
    iteration's x_t, y_t, y_hat_t, y_hat_{t+1}, m_t, running sum of q_t and
    zero-momentum flag in buffers of _BLOCK rows. ``_diagnose`` turns a full
    buffer into a block of RunLog columns in one pass (y*(x_t), the true
    hypergradient and the norms, with the counters of ``oracle_counts``), as
    do the end of the run and an abort for the rows filled so far. The blocks
    are joined once, at the end, so memory grows only with the iterations
    run. Nothing in the loop reads y*(x_t) any more, which is why the ridge
    toy's per-x cache holds only its sigmoid weights and H_yy(x).
    """
    y_hat = y.copy()
    x_prev: np.ndarray | None = None
    yhat_prev: np.ndarray | None = None
    m: np.ndarray | None = None
    blocks: list[dict[str, np.ndarray]] = []
    rows = min(schedule.T, _BLOCK)
    xs, ms = np.empty((rows, x.size)), np.empty((rows, x.size))
    ys, yhats, yhat_nexts = (np.empty((rows, y.size)) for _ in range(3))
    q_sums = np.empty(rows, dtype=np.int64)
    zeros = np.empty(rows, dtype=bool)
    n = 0  # buffered iterations: t - n .. t - 1
    q0 = q_sum = 0

    def flush(t: int) -> None:
        nonlocal n
        if n:
            counts = np.column_stack(oracle_counts(
                sampling, schedule, np.arange(t - n, t), q_sums[:n], q0))
            blocks.append(_diagnose(inst, t - n, xs[:n], ys[:n], yhats[:n],
                                    yhat_nexts[:n], ms[:n], counts, zeros[:n]))
            n = 0

    lowers = stream.children("lower", schedule.T)
    uppers = stream.children("upper", schedule.T)
    try:
        for t in range(schedule.T):
            xs[n], ys[n], yhats[n] = x, y, y_hat

            if t % sampling.every == 0 and (t or sampling.at_zero):
                y = lower(x, y, lowers[t])
            yhat_next = average_step(y_hat, y, tau)

            q = uppers[t].child("q").integers(0, schedule.Q)
            m = direction(m, x, x_prev, y_hat, yhat_prev, uppers[t], q)
            x_next, zero_event = upper_step(x, m, schedule.eta, t)

            if t == 0:
                q0 = q
            q_sum += q
            yhat_nexts[n], ms[n], q_sums[n], zeros[n] = yhat_next, m, q_sum, zero_event
            n += 1
            if n == rows:
                flush(t + 1)

            x_prev, x = x, x_next
            yhat_prev, y_hat = y_hat, yhat_next
    except NumericalAbort as exc:
        flush(t)
        exc.logs = _join(blocks)
        raise
    flush(schedule.T)
    return _join(blocks)


def run_accbo(
    inst,
    schedule: Schedule,
    option: str,
    stream: RandomStream,
    x0: np.ndarray | None = None,
) -> RunLog:
    """Full optimizer run; returns its RunLog, one row per outer iteration.

    Deterministic given (instance, schedule, option, stream). An option
    that cannot run on inst, or a schedule that check_budget refuses, raises
    ConstraintViolation before the warm start. Non-finite state in the outer
    loop raises NumericalAbort with the logs collected so far attached as
    its ``logs`` attribute.
    """
    s = schedule
    sampling = accbo_sampling(inst, s, option)
    check_budget(sampling, s)
    cfg = EstimatorConfig(Q=s.Q, S=s.S, l_g1=inst.constants.l_g1)

    x = np.zeros(inst.dim_x) if x0 is None else np.asarray(x0, dtype=float)
    y = warm_start(inst, x, s.alpha_init, s.T0, stream.child("init"))

    if option == "one":
        # One SNAG recursion carried across outer iterations.
        state = SnagState(w=y, w_prev=y.copy(), alpha=s.alpha, gamma=s.gamma)

        def lower(x, y, st):
            nonlocal state
            state = _snag_round(inst, x, state, (st,))
            return state.w
    else:
        def lower(x, y, st):
            return _lower_round(inst, x, y, s.alpha, s.gamma, s.N, st)

    def direction(m, x, x_prev, y_hat, yhat_prev, st, q):
        return momentum_update(inst, m, x, x_prev, y_hat, yhat_prev, cfg, s.beta, st, q)

    return _outer_loop(inst, x, y, s, s.tau, lower, direction, sampling, stream)


def running_average_grad_norm(logs: RunLog) -> float:
    """Mean of the true gradient norms over the logged iterations."""
    if not len(logs):
        raise ConstraintViolation("empty log")
    return float(np.mean(logs.columns["grad_norm_true"]))
