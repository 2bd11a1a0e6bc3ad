"""End-to-end acceptance suite.

Ten criteria covering the full pipeline: the deterministic and stochastic
tracking guarantees of the lower-level Nesterov tracker, correctness of the
Neumann hypergradient estimator (bias, variance, exactness), convergence of
the accelerated bilevel optimizer under its schedule, the oracle-complexity
comparison against the plain-momentum baseline, CLI reproducibility, and the
closed-form constant calculators.

Each test prints one "[criterion N] PASS/FAIL" line with the measured
quantities, then asserts.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import analytic_instances, scaled_ridge

from accbo.baselines import run_plain_momentum_bilevel
from accbo.constants import (
    ProblemConstants,
    averaging_theta,
    derive_schedule,
    derive_sigma_bar,
    derive_smoothness_constants,
)
from accbo.harness import calls_to_target
from accbo.hypergrad import (
    EstimatorConfig,
    bias_bound,
    empirical_bias_and_variance,
    enumerated_estimator_mean,
    estimate_hypergradient,
)
from accbo.optimizer import run_accbo, running_average_grad_norm
from accbo.problems import IsotropicQuadratic
from accbo.rng import RandomStream
from accbo.snag import (
    DriftProcess,
    TrackingBoundParams,
    mc_tracking_violation_rate,
    run_tracking_experiment,
    tracking_bound,
)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Deterministic contraction of the tracking potential


def test_criterion_1_deterministic_contraction():
    # 10-d anisotropic quadratic, eigenvalues 1..10, alpha = 1/250, no noise,
    # no drift: V_{t+1} <= (1 - sqrt(mu*alpha)) * V_t + 1e-12 at every step.
    p = TrackingBoundParams(
        mu=1.0, alpha=1.0 / 250.0, sigma=0.0, T=2000, delta_prob=0.05, V0=0.0,
    )
    logs = run_tracking_experiment(
        np.diag(np.arange(1.0, 11.0)), DriftProcess(), p, RandomStream(0),
        w0=np.ones(10),
    )
    V = logs["V"]
    rho = 1.0 - math.sqrt(p.mu * p.alpha)
    slack = float(np.max(V[1:] - (rho * V[:-1] + 1e-12)))
    ok = bool(np.all(V[1:] <= rho * V[:-1] + 1e-12))
    _report(1, ok, f"per-step contraction over 2000 steps, max slack {slack:.3e}")


# ---------------------------------------------------------------------------
# 2./3. High-probability tracking bounds, Monte Carlo over 1000 seeds


_MC_BASE = dict(mu=1.0, alpha=0.04, sigma=0.5, T=2000, delta_prob=0.05, V0=1.0)


def test_criterion_2_tracking_bound_no_drift():
    p = TrackingBoundParams(**_MC_BASE)
    rate = mc_tracking_violation_rate(p, DriftProcess(), 1000, dim=2, base_seed=0)
    ok = rate <= 0.05
    _report(2, ok, f"no-drift violation rate {rate:.3f} <= 0.05 over 1000 seeds")


def test_criterion_3_tracking_bound_with_drift():
    rates = {}
    p = TrackingBoundParams(**_MC_BASE)
    for delta in (1e-3, 1e-2):
        drift = DriftProcess(kind="random_walk", delta=delta)
        rates[delta] = mc_tracking_violation_rate(p, drift, 1000, dim=2, base_seed=0)
    ok = all(r <= 0.05 for r in rates.values())
    _report(3, ok, f"random-walk drift violation rates {rates} all <= 0.05")


# ---------------------------------------------------------------------------
# 4. Neumann truncation bias against its closed-form bound


def _probe_points(inst, n, gen, scale=0.3):
    """Points where the y-gradient of f at y*(x) is within the l_f0 bound."""
    out = []
    while len(out) < n:
        x = scale * gen.normal(size=inst.dim_x)
        gy = inst.grad_y_f(x, inst.lower_minimizer(x))
        if np.linalg.norm(gy) <= inst.constants.l_f0:
            out.append(x)
    return out


def test_criterion_4_neumann_bias_bound():
    gen = RandomStream(99).generator()
    iso2 = IsotropicQuadratic(1.0, 2.0 * np.eye(2), [0.1, -0.1], [0.3, 0.2],
                              [0.2, -0.3])
    worst = -math.inf
    for inst in analytic_instances(noise=False) + [iso2]:
        c = inst.constants
        for x in _probe_points(inst, 3, gen):
            y = inst.lower_minimizer(x)
            true = inst.true_hypergradient(x)
            for Q in range(1, 13):
                cfg = EstimatorConfig(Q=Q, S=1, l_g1=c.l_g1)
                err = float(np.linalg.norm(
                    enumerated_estimator_mean(inst, x, y, cfg) - true))
                worst = max(worst, err - bias_bound(c, Q))
    ok_bound = worst <= 1e-12

    # Isotropic closed form: with H = mu*I the enumerated error is exactly
    # ||A' grad_y f|| * (1 - mu/l_g1)^Q.
    x = np.array([0.2, -0.4])
    y = iso2.lower_minimizer(x)
    gy = iso2.grad_y_f(x, y)
    c = iso2.constants
    max_dev = 0.0
    for Q in range(1, 13):
        cfg = EstimatorConfig(Q=Q, S=1, l_g1=c.l_g1)
        err = float(np.linalg.norm(
            enumerated_estimator_mean(iso2, x, y, cfg) - iso2.true_hypergradient(x)))
        closed = float(np.linalg.norm(iso2.A.T @ gy)) * (1.0 - c.mu / c.l_g1) ** Q
        max_dev = max(max_dev, abs(err - closed))
    ok_closed = max_dev <= 1e-10
    _report(4, ok_bound and ok_closed,
            f"enumerated bias within bound (max slack {worst:.2e}) and matches "
            f"isotropic closed form (max dev {max_dev:.2e}) for Q in 1..12")


# ---------------------------------------------------------------------------
# 5. Hypergradient correctness: estimator exactness and finite differences


def _fd_hypergradient(inst, x, h=1e-5):
    g = np.zeros(inst.dim_x)
    for i in range(inst.dim_x):
        e = np.zeros(inst.dim_x)
        e[i] = h
        g[i] = (inst.phi_value(x + e) - inst.phi_value(x - e)) / (2.0 * h)
    return g


def test_criterion_5_hypergradient_correctness():
    worst_est, worst_fd = 0.0, 0.0
    for inst in analytic_instances(noise=False):
        c = inst.constants
        Q = 1
        while bias_bound(c, Q) >= 1e-8 and Q < 5000:
            Q += 1
        cfg = EstimatorConfig(Q=Q, S=1, l_g1=c.l_g1)
        gen = RandomStream(7).generator()
        for _ in range(20):
            x = 0.4 * gen.normal(size=inst.dim_x)
            y = inst.lower_minimizer(x)
            est = np.mean(
                [estimate_hypergradient(inst, x, y, cfg, RandomStream(0), q=q)
                 for q in range(Q)],
                axis=0,
            )
            true = inst.true_hypergradient(x)
            denom = max(float(np.linalg.norm(true)), 1e-12)
            worst_est = max(worst_est, float(np.linalg.norm(est - true)) / denom)
        for _ in range(5):
            x = 0.4 * gen.normal(size=inst.dim_x)
            true = inst.true_hypergradient(x)
            denom = max(float(np.linalg.norm(true)), 1e-12)
            worst_fd = max(
                worst_fd,
                float(np.linalg.norm(_fd_hypergradient(inst, x) - true)) / denom,
            )
    ok = worst_est <= 1e-7 and worst_fd <= 1e-4
    _report(5, ok, f"noise-off estimator rel err {worst_est:.2e} <= 1e-7, "
                   f"finite-difference rel err {worst_fd:.2e} <= 1e-4")


# ---------------------------------------------------------------------------
# 6. Single-sample variance against the closed-form bound


def test_criterion_6_variance_bound():
    results = {}
    ok = True
    for inst in analytic_instances(noise=True):
        c = inst.constants
        cfg = EstimatorConfig(Q=3, S=1, l_g1=c.l_g1)
        x = 0.2 * np.ones(inst.dim_x)
        res = empirical_bias_and_variance(inst, x, cfg, 10_000,
                                          RandomStream(5).child("var"))
        limit = 1.05 * derive_sigma_bar(c) ** 2
        results[inst.kind] = (res["var_est"], limit)
        ok = ok and res["var_est"] <= limit
    detail = ", ".join(f"{k}: {v:.3g} <= {lim:.3g}" for k, (v, lim) in results.items())
    _report(6, ok, f"MC variance within 1.05*sigma_bar^2 at 1e4 samples ({detail})")


# ---------------------------------------------------------------------------
# 7. Optimizer convergence under its schedule


def test_criterion_7_accbo_convergence():
    inst = IsotropicQuadratic(
        1.0, 0.5 * np.eye(2), [0.1, -0.1], [0.4, -0.3], [0.2, 0.1],
        sigma_f1=0.01, sigma_g1=0.001,
    )
    eps, delta = 0.05, 0.05
    x0 = inst.argmin_phi() + np.array([0.4, -0.4])
    d0 = inst.phi_value(x0) - inst.phi_min()
    sched = derive_schedule(
        inst.constants, eps, delta, d0, mode="practical",
        overrides={"alpha": 0.04, "eta": 2e-3, "sigma_g1_tilde": 0.005,
                   "T0": 200, "S": 4, "Q": 1},
    )
    # Structural identities of the schedule: the instance noise level is the
    # scaled-down sigma_g1 = sqrt(mu*alpha) * sigma_g1_tilde.
    assert sched.sigma_g1 == inst.constants.sigma_g1
    assert sched.T == math.ceil(4.0 * d0 / (sched.eta * eps))

    L0, _ = derive_smoothness_constants(inst.constants)
    track_lim = 2.0 * eps / L0
    step_lim = averaging_theta(inst.constants.mu, eps, L0, sched.sigma_g1)

    avgs = []
    n_track_ok = n_step_ok = n_total = 0
    for k in range(10):
        logs = run_accbo(inst, sched, "one", RandomStream(0).child("conv", k), x0=x0)
        avgs.append(running_average_grad_norm(logs))
        n_track_ok += sum(1 for r in logs if r.yhat_track_err <= track_lim)
        n_step_ok += sum(1 for r in logs if r.yhat_step <= step_lim)
        n_total += len(logs)
    med = float(np.median(avgs))
    frac_track = n_track_ok / n_total
    frac_step = n_step_ok / n_total
    ok = med <= 20.0 * eps and frac_track >= 0.99 and frac_step >= 0.99
    _report(7, ok, f"median running-average gradient norm {med:.4f} <= {20*eps}, "
                   f"tracking invariant fraction {frac_track:.3f}, "
                   f"averaged-step invariant fraction {frac_step:.3f} (>= 0.99)")


# ---------------------------------------------------------------------------
# 8. Oracle-complexity comparison against the plain-momentum baseline


def _median_calls(runner, eps, n_seeds=10):
    counts = [calls_to_target(runner(RandomStream(0).child("cmp", k)), 20.0 * eps)
              for k in range(n_seeds)]
    return float(np.median(counts))


def test_criterion_8_acceleration_comparison():
    results = []
    ok = True

    # Isotropic instance: both option one and option two must beat the
    # baseline at matched epsilon.
    iso = IsotropicQuadratic(
        1.0, 0.95 * np.eye(2), [0.1, -0.1], [0.4, -0.3], [0.2, 0.1],
        sigma_f1=0.01, sigma_g1=0.01,
    )
    x0 = iso.argmin_phi() + np.array([4.0 / math.sqrt(2.0)] * 2)
    alpha = 2.5e-3
    for eps, T in ((0.1, 8000), (0.05, 16000)):
        sched = derive_schedule(
            iso.constants, eps, 0.05, 1.0, mode="practical",
            overrides={"alpha": alpha, "eta": 0.05 * eps, "T": T, "T0": 500,
                       "S": 1, "Q": 1,
                       "sigma_g1_tilde": 0.01 / math.sqrt(iso.constants.mu * alpha)},
        )
        m_one = _median_calls(lambda st: run_accbo(iso, sched, "one", st, x0=x0), eps)
        m_two = _median_calls(lambda st: run_accbo(iso, sched, "two", st, x0=x0), eps)
        m_base = _median_calls(
            lambda st: run_plain_momentum_bilevel(iso, sched, st, x0=x0), eps)
        ok = ok and m_one < m_base and m_two < m_base
        results.append(f"iso eps={eps}: I={m_one:.0f}, II={m_two:.0f} < "
                       f"baseline={m_base:.0f}")

    # Ridge reweighting toy: option two vs baseline. The scaled validation
    # objective makes the hypergradient sensitive to lower-level tracking
    # error, so the baseline's SGD tracker pays a persistent bias.
    ridge = scaled_ridge()
    x = np.zeros(ridge.dim_x)
    for _ in range(3000):
        g = ridge.true_hypergradient(x)
        if np.linalg.norm(g) < 4.0:
            break
        x = x - 0.02 * g / np.linalg.norm(g)
    x0_r = x
    alpha_r = 0.001
    for eps, T in ((0.1, 3000), (0.05, 12000)):
        sched = derive_schedule(
            ridge.constants, eps, 0.05, 1.0, mode="practical",
            overrides={"alpha": alpha_r, "beta": 0.95, "eta": 0.05 * eps, "T": T,
                       "T0": 4000, "S": 1, "Q": 15, "I": 2, "N": 12,
                       "sigma_g1_tilde":
                           0.05 / math.sqrt(ridge.constants.mu * alpha_r)},
        )
        m_two = _median_calls(
            lambda st: run_accbo(ridge, sched, "two", st, x0=x0_r), eps)
        m_base = _median_calls(
            lambda st: run_plain_momentum_bilevel(ridge, sched, st, x0=x0_r), eps)
        ok = ok and m_two < m_base
        results.append(f"ridge eps={eps}: II={m_two:.0f} < baseline={m_base:.0f}")

    _report(8, ok, "median oracle calls to target (10 seeds): "
                   + "; ".join(results))


# ---------------------------------------------------------------------------
# 9. CLI determinism: byte-identical outputs on re-run


_ISO_DOC = {
    "kind": "isotropic_quadratic",
    "params": {"mu": 1.0, "A": [[0.5, 0.2], [-0.1, 0.8]], "b": [0.1, -0.3],
               "c": [1.0, 0.0], "d": [0.0, 0.5], "l_f0": 1.0},
    "noise": {"sigma_f1": 0.1, "sigma_g1": 0.2, "sigma_g2": 0.1},
}

_CLI_CONFIGS = {
    "snag-track": {
        "mu": 1.0, "alpha": 0.04, "T": 60, "delta_prob": 0.05, "V0": 1.0,
        "dim": 2, "sigma": [0.0, 0.4],
        "drift": {"kind": "random_walk", "delta": [0.0, 0.01]},
    },
    "bias": {"instance": _ISO_DOC, "Q_grid": [1, 3], "n_samples": 200},
    "accbo": {
        "instance": _ISO_DOC,
        "schedule": {"mode": "practical", "epsilon": 0.05, "delta": 0.05,
                     "d0": 1.0, "overrides": {"alpha": 0.04, "eta": 0.01,
                                              "T": 25, "T0": 30}},
        "option": "one",
    },
    "sweep": {
        "instance": _ISO_DOC,
        "epsilons": [0.2, 0.1],
        "option": "one",
        "schedule": {"mode": "practical", "delta": 0.05, "d0": 1.0,
                     "overrides": {"alpha": 0.04, "eta": 0.01, "T": 40,
                                   "T0": 30}},
    },
}


def _run_cli(command, config_path, out_dir):
    return subprocess.run(
        [sys.executable, "-m", "accbo.cli", command,
         "--config", str(config_path), "--out", str(out_dir),
         "--seeds", "2", "--base-seed", "7"],
        capture_output=True, text=True,
    )


def _dir_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_criterion_9_cli_determinism(tmp_path):
    ok = True
    details = []
    for command, doc in _CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        ra = _run_cli(command, cfg, out_a)
        rb = _run_cli(command, cfg, out_b)
        same = (ra.returncode == rb.returncode
                and _dir_bytes(out_a) == _dir_bytes(out_b))
        ok = ok and same
        details.append(f"{command}: rc={ra.returncode}, "
                       f"{len(_dir_bytes(out_a))} files "
                       f"{'identical' if same else 'DIFFER'}")
    _report(9, ok, "re-run outputs byte-identical (" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# 10. Constant calculators against an independent transcription


def _scratch_smoothness(c: ProblemConstants):
    kappa = math.sqrt(1.0 + (c.l_g1 / c.mu) ** 2)
    L0 = kappa * (
        c.Lx0
        + (c.l_g1 / c.mu) * (c.Lx1 * c.l_f0 + c.Ly0 + c.Ly1 * c.l_f0)
        + c.l_f0 * c.l_g2 * (c.l_g1 + c.mu) / c.mu ** 2
    )
    return L0, kappa * c.Lx1


def _scratch_sigma_bar(c: ProblemConstants):
    return math.sqrt(
        c.sigma_f1 ** 2
        + 3.0 / c.mu ** 2 * (
            (c.sigma_f1 ** 2 + c.l_f0 ** 2) * (c.sigma_g2 ** 2 + 2.0 * c.l_g1 ** 2)
            + c.sigma_f1 ** 2 * c.l_g1 ** 2
        )
    )


def _scratch_bias(c: ProblemConstants, Q: int):
    return c.l_g1 * c.l_f0 / c.mu * (1.0 - c.mu / c.l_g1) ** Q


def _scratch_bounds(mu, alpha, sigma, Delta, T, delta_prob, V0, t):
    log_factor = math.log(math.e * T / delta_prob)
    decay = (1.0 - 0.25 * math.sqrt(mu * alpha)) ** t * V0
    noise = 5.0 * math.sqrt(alpha / mu) * sigma ** 2 * log_factor
    with_drift = decay + noise + 80.0 * Delta ** 2 / alpha * log_factor
    return decay + noise, with_drift


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_10_constant_calculators():
    gen = np.random.default_rng(20240823)
    worst = 0.0
    ok = True
    for _ in range(50):
        mu = float(10.0 ** gen.uniform(-1.0, 0.5))
        c = ProblemConstants(
            mu=mu,
            l_g1=mu * (1.0 + float(gen.uniform(0.0, 9.0))),
            l_g2=float(gen.uniform(0.0, 2.0)),
            l_f0=float(gen.uniform(0.0, 3.0)),
            Lx0=float(gen.uniform(0.0, 2.0)),
            Lx1=float(gen.uniform(0.0, 1.0)),
            Ly0=float(gen.uniform(0.0, 2.0)),
            Ly1=float(gen.uniform(0.0, 1.0)),
            sigma_f1=float(gen.uniform(0.0, 1.0)),
            sigma_g1=float(gen.uniform(0.0, 1.0)),
            sigma_g2=float(gen.uniform(0.0, 1.0)),
        )
        L0, L1 = derive_smoothness_constants(c)
        sL0, sL1 = _scratch_smoothness(c)
        sb, ssb = derive_sigma_bar(c), _scratch_sigma_bar(c)
        Q = int(gen.integers(1, 30))
        bb, sbb = bias_bound(c, Q), _scratch_bias(c, Q)

        alpha = float(gen.uniform(1e-4, 1.0 / (25.0 * c.l_g1)))
        sigma = float(gen.uniform(0.0, 1.0))
        Delta = float(gen.uniform(0.0, 0.1))
        T = int(gen.integers(10, 5000))
        t = int(gen.integers(0, T))
        V0 = float(gen.uniform(0.0, 10.0))
        p = TrackingBoundParams(mu=c.mu, alpha=alpha, sigma=sigma, T=T,
                                delta_prob=0.05, V0=V0)
        s_no, s_with = _scratch_bounds(c.mu, alpha, sigma, Delta, T, 0.05, V0, t)
        pairs = [
            (L0, sL0), (L1, sL1), (sb, ssb), (bb, sbb),
            (tracking_bound(p, DriftProcess(), t), s_no),
            (tracking_bound(p, DriftProcess(kind="random_walk", delta=Delta), t), s_with),
        ]
        for a, b in pairs:
            rel = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, rel)
            ok = ok and _close(a, b)
    _report(10, ok, f"50 random constant sets, worst relative deviation "
                    f"{worst:.2e} <= 1e-12 across all six calculators")
