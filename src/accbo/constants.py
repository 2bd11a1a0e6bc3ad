"""Problem constants, derived smoothness/noise constants, and hyperparameter schedules.

The calculators here are direct transcriptions of closed-form expressions:
the relaxed-smoothness constants (L0, L1) of the composed objective, the
hypergradient estimator's bias/variance constants, and the full theorem-mode
hyperparameter schedule. Everything is a pure function of the inputs in
64-bit floats; iteration counts round up.

Each scalar domain is written here once, as (what a value must be, in words;
the test it must pass). A record that a config builds maps its fields to
domains in its ``DOMAINS`` table and checks itself with ``check_domains``:
``<name> must be <what>, got <value!r>``. ``accbo.harness`` reads the same tables.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = [
    "ConstraintViolation",
    "FINITE",
    "POSITIVE",
    "NONNEGATIVE",
    "FRACTION",
    "COUNT",
    "check_domains",
    "ProblemConstants",
    "Schedule",
    "PRACTICAL_OVERRIDES",
    "SCHEDULE_INPUTS",
    "THEOREM_INPUTS",
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


Domain = tuple[str, Callable[[Any], bool]]


def _finite(value) -> bool:
    # A number (numpy's scalars too, never a bool) whose magnitude, compared
    # exactly, is at most the largest double: not NaN, inf or a huge integer.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# The scalar domains; beta's and tau's are in PRACTICAL_OVERRIDES.
FINITE: Domain = ("a finite number", _finite)
POSITIVE: Domain = ("a positive number", lambda v: _finite(v) and v > 0)
NONNEGATIVE: Domain = ("a number >= 0", lambda v: _finite(v) and v >= 0)
FRACTION: Domain = ("a number in (0, 1)", lambda v: _finite(v) and 0 < v < 1)
COUNT: Domain = ("an integer >= 1",
                 lambda v: isinstance(v, numbers.Integral) and _finite(v) and v >= 1)


def check_domains(values: Mapping, domains: dict[str, Domain], prefix: str = "") -> None:
    """Refuse the first value of values, in the order of domains, that lies
    outside the domain of its name, as ``<prefix><name> must be <what>, got
    <value!r>``. A name that values does not hold is not checked."""
    for name, (what, ok) in domains.items():
        if name in values and not ok(values[name]):
            raise ConstraintViolation(f"{prefix}{name} must be {what}, got {values[name]!r}")


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

    DOMAINS = {"mu": POSITIVE, **dict.fromkeys(
        ("l_g1", "l_g2", "l_f0", "Lx0", "Lx1", "Ly0", "Ly1", "sigma_f1", "sigma_g1",
         "sigma_g2"), NONNEGATIVE)}

    def __post_init__(self) -> None:
        check_domains(vars(self), self.DOMAINS)
        if self.l_g1 < self.mu:
            raise ConstraintViolation(f"l_g1 ({self.l_g1!r}) must be >= mu ({self.mu!r})")


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
    check_domains({"Q": Q, "r": r}, {"Q": COUNT, "r": NONNEGATIVE})
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
    check_domains({"mu": mu, "alpha": alpha}, {"mu": POSITIVE, "alpha": POSITIVE})
    s = math.sqrt(mu * alpha)
    return (1.0 - s) / (1.0 + s)


# Each practical-mode override by name, with its domain. Schedule checks its
# fields of the same names against the same domains.
PRACTICAL_OVERRIDES: dict[str, Domain] = {
    "alpha": POSITIVE, "alpha_init": POSITIVE, "eta": POSITIVE,
    "beta": ("a number in [0, 1)", lambda v: _finite(v) and 0 <= v < 1),
    "tau": ("a number in (0, 1]", lambda v: _finite(v) and 0 < v <= 1),
    "sigma_g1_tilde": NONNEGATIVE, "sigma_g1": NONNEGATIVE,
    **dict.fromkeys(("T", "T0", "I", "N", "S", "Q"), COUNT),
}
# The inputs of derive_schedule that both modes read, and those that only
# theorem mode reads.
SCHEDULE_INPUTS: dict[str, Domain] = {"delta": FRACTION, "d0": POSITIVE, "epsilon": POSITIVE}
THEOREM_INPUTS: dict[str, Domain] = {"sigma_g1_tilde": POSITIVE, "y0_gap": POSITIVE}


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
    epsilon: float
    delta: float
    d0: float
    sigma_g1: float
    eps_admissible: bool = True

    # sigma_g1_tilde is an input of the schedule, not one of its fields.
    DOMAINS = {**{name: domain for name, domain in PRACTICAL_OVERRIDES.items()
                  if name != "sigma_g1_tilde"}, **SCHEDULE_INPUTS}

    def __post_init__(self) -> None:
        check_domains(vars(self), self.DOMAINS)


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
    sigma_g1_tilde: float = 1.0,
    y0_gap: float = 1.0,
) -> Schedule:
    check_domains({"sigma_g1_tilde": sigma_g1_tilde, "y0_gap": y0_gap}, THEOREM_INPUTS)
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
        epsilon=epsilon,
        delta=delta,
        d0=d0,
        sigma_g1=sigma_g1,
        eps_admissible=eps_ok,
    )


def _practical_schedule(
    c: ProblemConstants,
    epsilon: float,
    delta: float,
    d0: float,
    overrides: dict[str, Any] | None = None,
) -> Schedule:
    ov = dict(overrides or {})
    unknown = sorted(set(ov) - set(PRACTICAL_OVERRIDES))
    if unknown:
        raise ConstraintViolation(f"unknown schedule overrides: {unknown}")
    check_domains(ov, PRACTICAL_OVERRIDES, "override ")
    if "alpha" not in ov:
        raise ConstraintViolation("practical mode requires an explicit alpha")
    # A count is cast to int, every other override to float.
    ov = {name: int(v) if PRACTICAL_OVERRIDES[name] is COUNT else float(v)
          for name, v in ov.items()}
    alpha = ov["alpha"]
    root = math.sqrt(c.mu * alpha)
    sigma_g1_tilde = ov.pop("sigma_g1_tilde", c.sigma_g1)
    T = ov["T"] if "T" in ov else _ceil_int(4.0 * d0 / (ov.get("eta", alpha) * epsilon))
    # The default of each field that no override sets.
    fields = {"alpha_init": alpha, "beta": 1.0 - c.mu * alpha, "eta": alpha, "tau": root,
              "sigma_g1": root * sigma_g1_tilde, "T": T, "T0": T,
              **dict.fromkeys(("I", "N", "S", "Q"), 1), **ov}
    return Schedule(**fields, gamma=nesterov_momentum(c.mu, alpha),
                    epsilon=epsilon, delta=delta, d0=d0)


def derive_schedule(
    c: ProblemConstants,
    epsilon: float,
    delta: float,
    d0: float,
    mode: str = "theorem",
    **options: Any,
) -> Schedule:
    """Compute a full hyperparameter schedule.

    epsilon, delta and d0 lie in their ``SCHEDULE_INPUTS`` domains.
    ``mode="theorem"`` evaluates every closed form from ``sigma_g1_tilde``
    and ``y0_gap`` (each in its ``THEOREM_INPUTS`` domain, 1.0 by default); an
    epsilon above the admissibility ceiling only clears ``eps_admissible``.
    ``mode="practical"`` takes ``overrides`` (alpha required; each value in
    its ``PRACTICAL_OVERRIDES`` domain) and fills in the momentum gamma and
    defaults consistent with the structural identities. A keyword the mode
    does not read, a derived value outside its domain (such as
    tau = sqrt(mu*alpha) > 1) and a closed form that overflows, or that
    divides by or takes the log of a quantity that underflowed to 0, are
    refused with ConstraintViolation.
    """
    check_domains({"epsilon": epsilon, "delta": delta, "d0": d0}, SCHEDULE_INPUTS)
    # Each mode's function, with the keywords it reads.
    schedules = {"theorem": (_theorem_schedule, THEOREM_INPUTS),
                 "practical": (_practical_schedule, ("overrides",))}
    if mode not in schedules:
        raise ConstraintViolation(f"mode must be 'theorem' or 'practical', got {mode!r}")
    make, keywords = schedules[mode]
    unread = sorted(set(options) - set(keywords))
    if unread:
        raise ConstraintViolation(f"{mode} mode does not read {', '.join(unread)}")
    try:
        return make(c, epsilon, delta, d0, **options)
    except OverflowError as exc:
        raise ConstraintViolation(f"the {mode}-mode schedule overflows: {exc}") from None
    except ConstraintViolation:
        raise
    except (ZeroDivisionError, ValueError) as exc:  # x / 0.0, math.log(0.0)
        raise ConstraintViolation(f"the {mode}-mode schedule underflows: {exc}") from None
