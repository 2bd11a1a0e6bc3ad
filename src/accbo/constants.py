"""Problem constants, derived smoothness/noise constants, and hyperparameter schedules.

The calculators here are direct transcriptions of closed-form expressions:
the relaxed-smoothness constants (L0, L1) of the composed objective, the
hypergradient estimator's bias/variance constants, and the full theorem-mode
hyperparameter schedule. Everything is a pure function of the inputs in
64-bit floats; iteration counts round up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ConstraintViolation",
    "ProblemConstants",
    "Schedule",
    "PRACTICAL_OVERRIDES",
    "nesterov_momentum",
    "derive_smoothness_constants",
    "derive_sigma_bar",
    "derive_bias_lipschitz",
    "derive_estimator_lipschitz",
    "derive_schedule",
    "averaging_theta",
    "epsilon_ceiling",
]


class ConstraintViolation(ValueError):
    """An input violates a documented precondition or invariant."""


@dataclass(frozen=True)
class ProblemConstants:
    """Strong-convexity, smoothness and noise constants of one bilevel problem."""

    mu: float
    l_g1: float
    l_g2: float = 0.0
    l_f0: float = 0.0
    Lx0: float = 0.0
    Lx1: float = 0.0
    Ly0: float = 0.0
    Ly1: float = 0.0
    sigma_f1: float = 0.0
    sigma_g1: float = 0.0
    sigma_g2: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "mu", "l_g1", "l_g2", "l_f0", "Lx0", "Lx1", "Ly0", "Ly1",
            "sigma_f1", "sigma_g1", "sigma_g2",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ConstraintViolation(f"{name} must be finite and >= 0, got {v!r}")
        if self.mu <= 0.0:
            raise ConstraintViolation(f"mu must be > 0, got {self.mu!r}")
        if self.l_g1 < self.mu:
            raise ConstraintViolation(
                f"l_g1 ({self.l_g1!r}) must be >= mu ({self.mu!r})"
            )


def derive_smoothness_constants(c: ProblemConstants) -> tuple[float, float]:
    """Relaxed-smoothness constants (L0, L1) of the composed objective."""
    kappa = math.sqrt(1.0 + c.l_g1**2 / c.mu**2)
    return kappa * derive_bias_lipschitz(c), kappa * c.Lx1


def derive_sigma_bar(c: ProblemConstants) -> float:
    """Std bound of the single-sample Neumann hypergradient estimator."""
    var = c.sigma_f1**2 + (3.0 / c.mu**2) * (
        (c.sigma_f1**2 + c.l_f0**2) * (c.sigma_g2**2 + 2.0 * c.l_g1**2)
        + c.sigma_f1**2 * c.l_g1**2
    )
    return math.sqrt(var)


def derive_bias_lipschitz(c: ProblemConstants) -> float:
    """Constant relating hypergradient error to lower-level tracking error.

    Equals L0 without the sqrt(1 + l_g1^2/mu^2) prefactor, hence <= L0.
    """
    return (
        c.Lx0
        + c.Lx1 * c.l_g1 * c.l_f0 / c.mu
        + (c.l_g1 / c.mu) * (c.Ly0 + c.Ly1 * c.l_f0)
        + c.l_f0 * (c.mu * c.l_g2 + c.l_g1 * c.l_g2) / c.mu**2
    )


def derive_estimator_lipschitz(
    c: ProblemConstants, Q: int, r: float
) -> tuple[float, float]:
    """Mean-square Lipschitz constants (Lbar0, Lbar1) of the stochastic estimator.

    ``r`` stands in for the lower-level tracking error ||y - y*(x)||; callers
    verifying schedule-driven runs should pass r = 2*epsilon/L0.
    """
    if Q < 1:
        raise ConstraintViolation(f"Q must be >= 1, got {Q!r}")
    if r < 0.0:
        raise ConstraintViolation(f"radius must be >= 0, got {r!r}")
    base = c.Lx0 + c.Lx1 * c.l_g1 * c.l_f0 / c.mu
    first = 4.0 * (c.Lx0 + c.Lx1 * (c.l_g1 * c.l_f0 / c.mu + base * r)) ** 2
    chain_numer = c.l_f0**2 * c.l_g1**2 * c.l_g2**2 * Q**2
    if chain_numer == 0.0:
        chain = 0.0
    elif c.l_g1 == c.mu:
        # Degenerate spectrum: the Neumann chain term has a (l_g1 - mu)^-2
        # factor which only matters when the second-order oracle is both
        # noisy-in-curvature (l_g2 > 0) and coupled (l_f0 > 0).
        chain = math.inf
    else:
        chain = chain_numer / (c.l_g1 - c.mu) ** 2
    second = (6.0 * Q / (2.0 * c.mu * c.l_g1 - c.mu**2)) * (
        c.l_g1**2 * (c.Ly0 + c.Ly1 * c.l_f0) ** 2 + c.l_f0**2 * c.l_g2**2 + chain
    )
    Lbar0 = math.sqrt(first + second)
    Lbar1 = 2.0 * c.Lx1 * (1.0 + c.Lx1 * r)
    return Lbar0, Lbar1


def nesterov_momentum(mu: float, alpha: float) -> float:
    """Momentum gamma = (1 - sqrt(mu*alpha)) / (1 + sqrt(mu*alpha))."""
    if not (mu > 0.0 and alpha > 0.0):  # a NaN is refused too
        raise ConstraintViolation("mu and alpha must be positive")
    s = math.sqrt(mu * alpha)
    return (1.0 - s) / (1.0 + s)


@dataclass(frozen=True)
class Schedule:
    """Hyperparameters of one optimizer run.

    Produced either from the theorem-mode closed forms (all fields computed
    from the problem constants and the accuracy target) or in practical mode
    from user overrides (gamma and consistency checks filled in).
    """

    alpha: float
    alpha_init: float
    beta: float
    gamma: float
    eta: float
    tau: float
    T: int
    T0: int
    I: int
    N: int
    S: int
    Q: int
    logP: float
    epsilon: float
    delta: float
    d0: float
    sigma_g1: float
    eps_admissible: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ConstraintViolation(f"tau must be in (0, 1], got {self.tau!r}")
        if not (0.0 <= self.beta < 1.0):
            raise ConstraintViolation(f"beta must be in [0, 1), got {self.beta!r}")
        # Written as "not x > 0" so that a NaN is refused too.
        if not (self.eta > 0.0 and self.alpha > 0.0 and self.alpha_init > 0.0):
            raise ConstraintViolation("eta, alpha and alpha_init must be positive")
        for name in ("T", "T0", "I", "N", "S", "Q"):
            if getattr(self, name) < 1:
                raise ConstraintViolation(f"{name} must be a positive integer")


def averaging_theta(mu: float, epsilon: float, L0: float, sigma_g1: float) -> float:
    """Consecutive averaged-iterate displacement bound mu*eps^2/(24*L0^2*sigma_g1)."""
    if sigma_g1 <= 0.0:
        return math.inf
    return mu * epsilon**2 / (24.0 * L0**2 * sigma_g1)


def _ceil_int(x: float) -> int:
    if not math.isfinite(x):
        raise ConstraintViolation(f"iteration count is not finite: {x!r}")
    return max(1, math.ceil(x))


def epsilon_ceiling(
    c: ProblemConstants, delta: float, d0: float, sigma_g1_tilde: float, Q: int, r: float
) -> float:
    """Largest target accuracy admitted by the theorem-mode schedule."""
    L0, L1 = derive_smoothness_constants(c)
    _, Lbar1 = derive_estimator_lipschitz(c, Q, r)
    sigma_bar = derive_sigma_bar(c)
    terms = [
        L0 / (32.0 * L1) if L1 > 0 else math.inf,
        c.l_g1 * L0 / (c.mu * Lbar1) if Lbar1 > 0 else math.inf,
        L0 / (8.0 * Lbar1) if Lbar1 > 0 else math.inf,
        L0 * c.l_g1 * sigma_g1_tilde / c.mu**2,
        (L0 / c.mu) * math.sqrt(c.l_g1 * sigma_g1_tilde / L1) if L1 > 0 else math.inf,
        (
            164.0 * 32.0 * math.e * d0 * L0**2 * sigma_g1_tilde**2
            / (delta * c.mu**2)
            * max(c.l_g1 / sigma_g1_tilde, sigma_bar / d0)
        )
        ** (1.0 / 3.0),
    ]
    return min(terms)


def _theorem_schedule(
    c: ProblemConstants,
    epsilon: float,
    delta: float,
    d0: float,
    sigma_g1_tilde: float,
    y0_gap: float,
) -> Schedule:
    L0, L1 = derive_smoothness_constants(c)
    sigma_bar = derive_sigma_bar(c)

    # Truncation depth first: it feeds the estimator Lipschitz constants.
    if c.l_f0 == 0.0 or c.l_g1 == c.mu:
        Q = 1  # bias is identically zero
    else:
        target = c.mu * epsilon / (c.l_g1 * c.l_f0)
        if target >= 1.0:
            Q = 1
        else:
            Q = _ceil_int(math.log(target) / math.log1p(-c.mu / c.l_g1))

    r = 2.0 * epsilon / L0 if L0 > 0 else 0.0
    Lbar0, _ = derive_estimator_lipschitz(c, Q, r)

    P = (
        170.0 * 64.0 * math.e * d0 * L0**2 * sigma_g1_tilde**2
        / (delta * c.mu**2 * epsilon**3)
        * max(c.l_g1 / sigma_g1_tilde, sigma_bar / d0)
    ) ** 2
    logP = math.log(P)

    one_minus_beta_terms = [
        c.mu**2 * epsilon**2 / (164.0 * 16.0 * L0**2 * sigma_g1_tilde**2 * logP),
        c.l_g1 / (4.0 * sigma_g1_tilde * L1) if L1 > 0 else math.inf,
        epsilon**2 / (4.0 * sigma_bar**2) if sigma_bar > 0 else math.inf,
    ]
    one_minus_beta = min(one_minus_beta_terms)
    if not (0.0 < one_minus_beta < 1.0):
        raise ConstraintViolation(
            f"theorem-mode 1-beta = {one_minus_beta!r} outside (0, 1)"
        )
    beta = 1.0 - one_minus_beta

    eta = min(sigma_g1_tilde / c.l_g1, d0 / sigma_bar if sigma_bar > 0 else math.inf)
    eta *= one_minus_beta
    alpha = one_minus_beta / c.mu
    alpha_init = one_minus_beta / (c.mu + c.l_g1)
    if alpha > 1.0 / (25.0 * c.l_g1):
        raise ConstraintViolation(
            f"theorem-mode alpha = {alpha!r} exceeds 1/(25*l_g1); epsilon too large"
        )
    gamma = nesterov_momentum(c.mu, alpha)
    tau = math.sqrt(c.mu * alpha)
    sigma_g1 = one_minus_beta ** 0.25 * sigma_g1_tilde

    T = _ceil_int(4.0 * d0 / (eta * epsilon))
    T0 = _ceil_int(
        math.log(c.mu**3 * alpha**3 * epsilon**2 / (256.0 * L0**2 * y0_gap**2))
        / math.log1p(-c.mu * alpha / 4.0)
    )
    I = _ceil_int(c.mu * epsilon / (2.0 * one_minus_beta * L0 * sigma_g1_tilde))
    N = _ceil_int(
        math.log(c.mu * alpha / 128.0) / math.log1p(-math.sqrt(c.mu * alpha) / 4.0)
    )
    S = _ceil_int(
        max(
            128.0 * logP,
            128.0 * Lbar0**2 / L0**2 * logP if L0 > 0 else 0.0,
            c.mu**2 * Lbar0**2 / (c.l_g1**2 * L0**2) if L0 > 0 else 0.0,
        )
    )

    eps_ok = epsilon <= epsilon_ceiling(c, delta, d0, sigma_g1_tilde, Q, r)

    return Schedule(
        alpha=alpha,
        alpha_init=alpha_init,
        beta=beta,
        gamma=gamma,
        eta=eta,
        tau=tau,
        T=T,
        T0=T0,
        I=I,
        N=N,
        S=S,
        Q=Q,
        logP=logP,
        epsilon=epsilon,
        delta=delta,
        d0=d0,
        sigma_g1=sigma_g1,
        eps_admissible=eps_ok,
    )


# The practical-mode overrides by name, with the kind of value each takes:
# "count" (a whole number), "positive" (a number > 0) or "real".
PRACTICAL_OVERRIDES: dict[str, str] = {
    "alpha": "positive", "alpha_init": "positive", "eta": "positive",
    "beta": "real", "tau": "real", "sigma_g1_tilde": "real", "sigma_g1": "real",
    "T": "count", "T0": "count", "I": "count", "N": "count", "S": "count",
    "Q": "count",
}


def _practical_schedule(
    c: ProblemConstants,
    epsilon: float,
    delta: float,
    d0: float,
    overrides: dict[str, Any],
) -> Schedule:
    unknown = sorted(set(overrides) - set(PRACTICAL_OVERRIDES))
    if unknown:
        raise ConstraintViolation(f"unknown schedule overrides: {unknown}")
    for name, value in overrides.items():
        kind = PRACTICAL_OVERRIDES[name]
        if kind == "count" and not (isinstance(value, int) or float(value).is_integer()):
            raise ConstraintViolation(
                f"override {name} must be a whole number, got {value!r}")
        # Written as "not x > 0" so that a NaN is refused too.
        if kind == "positive" and not float(value) > 0.0:
            raise ConstraintViolation(f"override {name} must be positive, got {value!r}")
    ov = dict(overrides)
    if "alpha" not in ov:
        raise ConstraintViolation("practical mode requires an explicit alpha")
    alpha = float(ov.pop("alpha"))
    beta = float(ov.pop("beta", 1.0 - c.mu * alpha))
    eta = float(ov.pop("eta", alpha))
    tau = float(ov.pop("tau", math.sqrt(c.mu * alpha)))
    sigma_g1_tilde = float(ov.pop("sigma_g1_tilde", c.sigma_g1))
    sigma_g1 = float(ov.pop("sigma_g1", math.sqrt(c.mu * alpha) * sigma_g1_tilde))
    T = int(ov.pop("T", _ceil_int(4.0 * d0 / (eta * epsilon))))
    T0 = int(ov.pop("T0", T))
    I = int(ov.pop("I", 1))
    N = int(ov.pop("N", 1))
    S = int(ov.pop("S", 1))
    Q = int(ov.pop("Q", 1))
    alpha_init = float(ov.pop("alpha_init", alpha))
    return Schedule(
        alpha=alpha,
        alpha_init=alpha_init,
        beta=beta,
        gamma=nesterov_momentum(c.mu, alpha),
        eta=eta,
        tau=tau,
        T=T,
        T0=T0,
        I=I,
        N=N,
        S=S,
        Q=Q,
        logP=0.0,
        epsilon=epsilon,
        delta=delta,
        d0=d0,
        sigma_g1=sigma_g1,
        eps_admissible=True,
    )


def derive_schedule(
    c: ProblemConstants,
    epsilon: float,
    delta: float,
    d0: float,
    mode: str = "theorem",
    *,
    sigma_g1_tilde: float = 1.0,
    y0_gap: float = 1.0,
    overrides: dict[str, Any] | None = None,
) -> Schedule:
    """Compute a full hyperparameter schedule.

    ``mode="theorem"`` evaluates every closed form; an epsilon above the
    admissibility ceiling only clears ``eps_admissible`` on the result.
    ``mode="practical"`` takes user overrides (alpha required) and fills in
    the momentum gamma and defaults consistent with the structural identities.
    """
    if not (0.0 < delta < 1.0):
        raise ConstraintViolation(f"delta must be in (0, 1), got {delta!r}")
    if epsilon <= 0.0:
        raise ConstraintViolation(f"epsilon must be positive, got {epsilon!r}")
    if d0 <= 0.0:
        raise ConstraintViolation(f"d0 must be positive, got {d0!r}")
    if mode == "theorem":
        if sigma_g1_tilde <= 0.0:
            raise ConstraintViolation("sigma_g1_tilde must be positive")
        if y0_gap <= 0.0:
            raise ConstraintViolation("y0_gap must be positive")
        return _theorem_schedule(c, epsilon, delta, d0, sigma_g1_tilde, y0_gap)
    if mode == "practical":
        return _practical_schedule(c, epsilon, delta, d0, overrides or {})
    raise ConstraintViolation(f"mode must be 'theorem' or 'practical', got {mode!r}")
