import numpy as np
import pytest

from accbo.baselines import run_plain_momentum_bilevel
from accbo.constants import ConstraintViolation, ProblemConstants, derive_schedule
from accbo.hypergrad import EstimatorConfig, estimate_hypergradient
from accbo.optimizer import (
    CountingOracles,
    average_step,
    momentum_update,
    run_accbo,
    running_average_grad_norm,
    upper_step,
    warm_start,
)
from accbo.problems import IsotropicQuadratic
from accbo.rng import RandomStream
from accbo.snag import NumericalAbort


def practical_schedule(inst, *, alpha=0.04, eta=0.01, T=20, epsilon=0.05,
                       **extra):
    overrides = {"alpha": alpha, "eta": eta, "T": T, "T0": 50}
    overrides.update(extra)
    return derive_schedule(inst.constants, epsilon, 0.05, 1.0,
                           mode="practical", overrides=overrides)


def noisy_iso(**kw):
    base = dict(sigma_f1=0.05, sigma_g1=0.1)
    base.update(kw)
    return IsotropicQuadratic(1.0, 0.5 * np.eye(2), [0.1, 0.0], [0.5, -0.5],
                              [0.2, 0.3], **base)


class TestWarmStart:
    def test_converges_to_lower_minimizer(self):
        inst = noisy_iso(sigma_g1=0.0)
        x0 = np.array([1.0, -1.0])
        y = warm_start(inst, x0, 0.2, 200, RandomStream(0))
        np.testing.assert_allclose(y, inst.lower_minimizer(x0), atol=1e-8)

    def test_minimizer_is_fixed_point(self):
        inst = noisy_iso(sigma_g1=0.0)
        x0 = np.array([0.3, 0.7])
        ystar = inst.lower_minimizer(x0)
        y = warm_start(inst, x0, 0.2, 10, RandomStream(0), y_init=ystar)
        np.testing.assert_allclose(y, ystar, atol=1e-12)

    def test_requires_positive_length(self):
        inst = noisy_iso()
        with pytest.raises(ConstraintViolation):
            warm_start(inst, np.zeros(2), 0.1, 0, RandomStream(0))


class TestAverageStep:
    def test_endpoints(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        np.testing.assert_array_equal(average_step(a, b, 0.0), a)
        np.testing.assert_array_equal(average_step(a, b, 1.0), b)

    def test_midpoint(self):
        out = average_step(np.array([1.0]), np.array([3.0]), 0.5)
        assert out[0] == pytest.approx(2.0, abs=1e-15)

    def test_tau_out_of_range(self):
        with pytest.raises(ConstraintViolation):
            average_step(np.zeros(1), np.ones(1), 1.5)


class TestUpperStep:
    def test_step_length_is_eta(self):
        x, zero = upper_step(np.zeros(3), np.array([3.0, 0.0, 4.0]), 0.1)
        assert not zero
        assert np.linalg.norm(x) == pytest.approx(0.1, abs=1e-15)

    def test_zero_momentum_skips(self):
        x0 = np.array([1.0, 2.0])
        x, zero = upper_step(x0, np.zeros(2), 0.1)
        assert zero
        np.testing.assert_array_equal(x, x0)


class TestMomentumUpdate:
    def test_first_iteration_is_plain_estimate(self):
        inst = noisy_iso()
        cfg = EstimatorConfig(Q=2, S=1, l_g1=inst.constants.l_g1)
        x = np.array([0.2, -0.1])
        y = inst.lower_minimizer(x)
        s = RandomStream(7).child("u")
        m = momentum_update(inst, None, x, None, y, None, cfg, 0.9, s)
        q = s.child("q").integers(0, cfg.Q)
        expected = estimate_hypergradient(inst, x, y, cfg, s, q=q)
        np.testing.assert_array_equal(m, expected)

    def test_correction_vanishes_at_repeated_point(self):
        # x_now == x_prev and yhat_now == yhat_prev: the shared-sample
        # correction cancels exactly, leaving beta*m + (1-beta)*g.
        inst = noisy_iso()
        cfg = EstimatorConfig(Q=3, S=2, l_g1=inst.constants.l_g1)
        x = np.array([0.2, -0.1])
        y = inst.lower_minimizer(x)
        m_prev = np.array([0.4, -0.3])
        beta = 0.9
        s = RandomStream(11).child("u")
        m = momentum_update(inst, m_prev, x, x, y, y, cfg, beta, s)
        q = s.child("q").integers(0, cfg.Q)
        g = estimate_hypergradient(inst, x, y, cfg, s, q=q)
        np.testing.assert_allclose(m, beta * m_prev + (1.0 - beta) * g,
                                   atol=1e-14)

    def test_rearrangement_identity(self):
        # m = beta*m_prev + (1-beta)*g_now + beta*(g_now - g_prev)
        #   = g_now + beta*(m_prev - g_prev) when evaluated on shared samples.
        inst = noisy_iso(sigma_g2=0.1)
        cfg = EstimatorConfig(Q=3, S=1, l_g1=inst.constants.l_g1)
        gen = RandomStream(13).generator()
        for k in range(20):
            x_now = gen.normal(size=2)
            x_prev = gen.normal(size=2)
            y_now = gen.normal(size=2)
            y_prev = gen.normal(size=2)
            m_prev = gen.normal(size=2)
            beta = float(gen.uniform(0.0, 1.0))
            s = RandomStream(13).child("m", k)
            m = momentum_update(inst, m_prev, x_now, x_prev, y_now, y_prev,
                                cfg, beta, s)
            q = s.child("q").integers(0, cfg.Q)
            g_now = estimate_hypergradient(inst, x_now, y_now, cfg, s, q=q)
            g_prev = estimate_hypergradient(inst, x_prev, y_prev, cfg, s, q=q)
            np.testing.assert_allclose(m, g_now + beta * (m_prev - g_prev),
                                       atol=1e-14)


class TestCountingOracles:
    def test_counts_by_kind(self):
        inst = noisy_iso()
        wrapped = CountingOracles(inst)
        s = RandomStream(0)
        x, y = np.zeros(2), np.zeros(2)
        wrapped.stoch_grad_y_g(x, y, s)
        wrapped.stoch_grad_y_g(x, y, s)
        wrapped.stoch_grad_x_f(x, y, s)
        wrapped.stoch_grad_y_f(x, y, s)
        wrapped.stoch_jvp_xy_g(x, y, y, s)
        wrapped.stoch_hvp_yy_g(x, y, y, s)
        assert wrapped.calls == {"g1": 2, "f": 2, "jvp": 1, "hvp": 1}
        assert wrapped.total_calls == 6

    def test_delegates_exact_methods(self):
        inst = noisy_iso()
        wrapped = CountingOracles(inst)
        x = np.array([0.1, 0.2])
        np.testing.assert_array_equal(wrapped.lower_minimizer(x),
                                      inst.lower_minimizer(x))
        assert wrapped.total_calls == 0


class TestRunAccbo:
    def test_option_one_rejects_anisotropic_lower(self, general_quad):
        sched = practical_schedule(general_quad)
        with pytest.raises(ConstraintViolation):
            run_accbo(general_quad, sched, "one", RandomStream(0))

    def test_unknown_option_rejected(self):
        inst = noisy_iso()
        with pytest.raises(ConstraintViolation):
            run_accbo(inst, practical_schedule(inst), "three", RandomStream(0))

    def test_log_schema_and_monotone_call_counts(self):
        inst = noisy_iso()
        logs = run_accbo(inst, practical_schedule(inst, T=15), "one",
                         RandomStream(1))
        assert [rec.t for rec in logs] == list(range(15))
        totals = [rec.total_calls for rec in logs]
        assert all(a < b for a, b in zip(totals, totals[1:]))
        assert all(rec.m_norm >= 0 for rec in logs)

    def test_deterministic_given_stream(self):
        inst = noisy_iso()
        sched = practical_schedule(inst, T=10)
        a = run_accbo(inst, sched, "one", RandomStream(5))
        b = run_accbo(inst, sched, "one", RandomStream(5))
        assert a == b

    def test_seed_changes_trajectory(self):
        inst = noisy_iso()
        sched = practical_schedule(inst, T=10)
        a = run_accbo(inst, sched, "one", RandomStream(5))
        b = run_accbo(inst, sched, "one", RandomStream(6))
        assert a != b

    def test_noiseless_run_decreases_gradient(self):
        inst = IsotropicQuadratic(1.0, 0.5 * np.eye(2), [0.1, 0.0],
                                  [0.5, -0.5], [0.2, 0.3])
        sched = practical_schedule(inst, alpha=0.2, eta=0.02, T=300)
        logs = run_accbo(inst, sched, "one", RandomStream(0),
                         x0=np.array([1.0, 1.0]))
        assert logs[-1].grad_norm_true < 0.1 * logs[0].grad_norm_true

    def test_option_two_inner_round_cadence(self, general_quad):
        # With I=2 and N=3 over 6 outer steps, inner lower-level gradient
        # calls happen only at t in {2, 4} (t=0 excluded), 3 calls per round.
        sched = practical_schedule(general_quad, T=6, I=2, N=3, T0=5)
        wrapped = CountingOracles(general_quad)
        logs = run_accbo(wrapped, sched, "two", RandomStream(2))
        g1 = [rec.calls_g1 for rec in logs]
        # Warm start uses 5 calls before t=0; per-iteration increments:
        increments = [g1[0] - 5] + [b - a for a, b in zip(g1, g1[1:])]
        assert increments == [0, 0, 3, 0, 3, 0]

    def test_option_two_y_frozen_between_rounds(self, general_quad):
        sched = practical_schedule(general_quad, T=6, I=3, N=2, T0=5)
        logs = run_accbo(general_quad, sched, "two", RandomStream(3))
        # y only moves at round iterations, but y*(x) drifts with x, so the
        # tracking error must change by exactly the minimizer motion between
        # rounds. Check y_track_err is finite and recorded at every step.
        assert all(np.isfinite(rec.y_track_err) for rec in logs)

    @pytest.mark.parametrize("run", [
        lambda inst, sched, stream: run_accbo(inst, sched, "one", stream),
        lambda inst, sched, stream: run_plain_momentum_bilevel(inst, sched, stream),
    ], ids=["accbo", "plain_momentum"])
    def test_abort_carries_logs_collected_so_far(self, run):
        class NanAfter(IsotropicQuadratic):
            """Lower-level oracle that returns nan after its first n calls."""

            n = 50 + 5  # warm start, then five outer iterations

            def stoch_grad_y_g(self, x, y, stream):
                self.n -= 1
                g = super().stoch_grad_y_g(x, y, stream)
                return g if self.n >= 0 else np.full_like(g, np.nan)

        inst = NanAfter(1.0, 0.5 * np.eye(2), [0.1, 0.0], [0.5, -0.5],
                        [0.2, 0.3], sigma_f1=0.05, sigma_g1=0.1)
        sched = practical_schedule(inst, T=20)
        with pytest.raises(NumericalAbort) as info:
            run(inst, sched, RandomStream(4))
        logs = info.value.logs
        assert [rec.t for rec in logs] == list(range(5))
        reference = run(noisy_iso(), practical_schedule(noisy_iso(), T=5),
                        RandomStream(4))
        assert logs == reference

    def test_running_average_requires_logs(self):
        with pytest.raises(ConstraintViolation):
            running_average_grad_norm([])
