"""Neumann-series stochastic hypergradient estimator and its diagnostics.

The inverse-Hessian factor of the hypergradient is replaced by a randomly
truncated Neumann series: draw a depth q uniformly below Q, apply q damped
Hessian-vector products, and rescale by Q. Averaged over q the truncation is
a geometric-series approximation of the inverse whose bias decays like
(1 - mu/l_g1)^Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import COUNT, POSITIVE, ConstraintViolation, ProblemConstants, check_domains
from .rng import RandomStream
from .snag import NumericalAbort

__all__ = [
    "EstimatorConfig",
    "neumann_inverse_apply",
    "estimate_hypergradient",
    "enumerated_estimator_mean",
    "bias_bound",
    "empirical_bias_and_variance",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Truncation depth, batch size and curvature scale of the estimator."""

    Q: int
    S: int
    l_g1: float

    DOMAINS = {"Q": COUNT, "S": COUNT, "l_g1": POSITIVE}

    def __post_init__(self) -> None:
        check_domains(vars(self), self.DOMAINS)


def neumann_inverse_apply(
    hvp: Callable[[np.ndarray, RandomStream], np.ndarray],
    v: np.ndarray,
    cfg: EstimatorConfig,
    q: int,
    stream: RandomStream,
) -> np.ndarray:
    """Apply the depth-q randomly truncated inverse approximation to v.

    Returns (Q/l_g1) * prod_{i=1..q}(I - hvp/l_g1) v, with the empty product
    (q = 0) equal to the identity. Each factor draws fresh noise from the
    sub-stream ("hvp", i).
    """
    if not (0 <= q <= cfg.Q - 1):
        raise ConstraintViolation(f"q must be in [0, Q-1], got {q!r}")
    u = np.asarray(v, dtype=float)
    for i in range(1, q + 1):
        u = u - hvp(u, stream.child("hvp", i)) / cfg.l_g1
    return (cfg.Q / cfg.l_g1) * u


def estimate_hypergradient(
    inst,
    x: np.ndarray,
    y_hat: np.ndarray,
    cfg: EstimatorConfig,
    stream: RandomStream,
    q: int | None = None,
) -> np.ndarray:
    """Batched Neumann hypergradient estimate at (x, y_hat).

    One truncation depth q is shared across the whole S-batch (drawn from the
    "q" sub-stream unless supplied); each batch member s uses disjoint
    sub-streams for its upper-level gradients ("xf"/"yf", s), the Jacobian
    sample ("jvp", s) and the Hessian chain ("chain", s). The batch mean is
    accumulated in index order so results are bit-deterministic.
    """
    if q is None:
        q = stream.child("q").integers(0, cfg.Q)
    acc = None
    for s in range(cfg.S):
        gx = inst.stoch_grad_x_f(x, y_hat, stream.child("xf", s))
        gy = inst.stoch_grad_y_f(x, y_hat, stream.child("yf", s))
        chain = neumann_inverse_apply(
            lambda u, st: inst.stoch_hvp_yy_g(x, y_hat, u, st),
            gy, cfg, q, stream.child("chain", s),
        )
        term = gx - inst.stoch_jvp_xy_g(x, y_hat, chain, stream.child("jvp", s))
        acc = term if acc is None else acc + term
    est = acc / cfg.S
    if not np.isfinite(est).all():
        raise NumericalAbort("non-finite hypergradient estimate")
    return est


def enumerated_estimator_mean(
    inst, x: np.ndarray, y: np.ndarray, cfg: EstimatorConfig
) -> np.ndarray:
    """Exact-oracle estimator mean: enumerate q instead of sampling it.

    Uses the instance's exact derivatives (no noise), so this equals the
    conditional expectation of the stochastic estimator at zero noise.
    """
    gx = inst.grad_x_f(x, y)
    gy = inst.grad_y_f(x, y)
    H = inst.hess_yy_g(x, y)
    u = np.asarray(gy, dtype=float)
    total = u.copy()
    for _ in range(1, cfg.Q):
        u = u - (H @ u) / cfg.l_g1
        total += u
    # mean over q of (Q/l) (I - H/l)^q gy  =  (1/l) * sum_{q=0}^{Q-1} (...)^q gy
    return gx - inst.jac_xy_g(x, y) @ (total / cfg.l_g1)


def bias_bound(c: ProblemConstants, Q: int) -> float:
    """Neumann truncation bias bound (l_g1*l_f0/mu) * (1 - mu/l_g1)^Q."""
    check_domains({"Q": Q}, EstimatorConfig.DOMAINS)
    return (c.l_g1 * c.l_f0 / c.mu) * (1.0 - c.mu / c.l_g1) ** Q


def empirical_bias_and_variance(
    inst,
    x: np.ndarray,
    cfg: EstimatorConfig,
    n_samples: int,
    stream: RandomStream,
) -> dict:
    """Monte-Carlo bias and variance of the estimator cfg at y = y*(x).

    Returns bias_est = ||mean of n_samples draws of estimate_hypergradient
    with cfg - true hypergradient||, var_est = the mean squared deviation of
    the draws from their mean (per sample when cfg.S is 1, as in the bias
    command), and the standard error of the mean estimate, under those three
    keys and no others. A draw that is not finite, or any of the three that
    is not (the draws' squares overflow), raises NumericalAbort.
    """
    if n_samples < 2:
        raise ConstraintViolation("n_samples must be >= 2")
    draws = np.empty((n_samples, inst.dim_x))
    # An overflowing y*(x), draw or statistic aborts the run at its check.
    with np.errstate(over="ignore", invalid="ignore"):
        ystar = inst.lower_minimizer(x)
        for k, st in enumerate(stream.children("mc", n_samples)):
            draws[k] = estimate_hypergradient(inst, x, ystar, cfg, st)
        mean = draws.mean(axis=0)
        var_est = float(np.mean(np.sum((draws - mean) ** 2, axis=1)))
        bias_est = float(np.linalg.norm(mean - inst.true_hypergradient(x)))
    se = math.sqrt(var_est / n_samples)
    if not all(map(math.isfinite, (bias_est, var_est, se))):
        raise NumericalAbort(f"bias {bias_est!r}, variance {var_est!r} or standard "
                             f"error {se!r} at Q = {cfg.Q} is not finite")
    return {"bias_est": bias_est, "var_est": var_est, "se": se}
