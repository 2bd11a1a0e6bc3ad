import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo.constants import ConstraintViolation, nesterov_momentum
from accbo.rng import RandomStream
from accbo.snag import (
    DriftProcess,
    NumericalAbort,
    QuadraticFamily,
    SnagState,
    TrackingBoundParams,
    mc_tracking_violation_rate,
    potential,
    run_tracking_experiment,
    snag_step,
    tracking_bound_no_drift,
    tracking_bound_with_drift,
)

NULL = RandomStream(0)


def exact_grad(H, wstar):
    def grad(z, _stream):
        return H @ (z - wstar)
    return grad


def full_certificate_matrix(alpha, mu, dim):
    """2dim x 2dim certificate matrix assembled entry-by-entry (oracle)."""
    s = math.sqrt(mu * alpha)
    v = np.array([1.0, s - 1.0])
    P2 = np.outer(v, v) / (2.0 * alpha)
    return np.kron(P2, np.eye(dim))


class TestStep:
    def test_hand_computed_step(self):
        # mu=1, alpha=0.25: gamma = 1/3. w=2, w_prev=1 -> z = 2 + 1/3 = 7/3.
        # grad(z) = z, so w_next = z - 0.25*z = 0.75*7/3 = 7/4.
        state = SnagState(w=np.array([2.0]), w_prev=np.array([1.0]),
                          alpha=0.25, gamma=nesterov_momentum(1.0, 0.25))
        assert state.z[0] == pytest.approx(7.0 / 3.0, abs=1e-15)
        out = snag_step(state, lambda z, s: z, NULL)
        assert out.w[0] == pytest.approx(7.0 / 4.0, abs=1e-14)
        assert out.w_prev[0] == 2.0
        assert out.t == 1

    def test_initial_state_duplicates_w0(self):
        state = SnagState.initial(np.array([3.0, -1.0]), 0.1, 2.0)
        np.testing.assert_array_equal(state.w, state.w_prev)
        np.testing.assert_array_equal(state.z, state.w)  # no momentum kick

    def test_zero_momentum_degenerates_to_gradient_descent(self):
        # mu*alpha = 1 -> gamma = 0 -> plain gradient step.
        state = SnagState.initial(np.array([4.0]), 1.0, 1.0)
        out = snag_step(state, lambda z, s: 0.5 * z, NULL)
        assert out.w[0] == pytest.approx(4.0 - 1.0 * 2.0, abs=1e-15)

    def test_five_step_transcription(self):
        # Frozen from an independent scalar transcription of the recursion
        # with mu=1, alpha=0.04, grad(z)=z, w0=1.
        alpha, gamma = 0.04, nesterov_momentum(1.0, 0.04)
        w, w_prev = 1.0, 1.0
        expected = []
        for _ in range(5):
            z = w + gamma * (w - w_prev)
            w_prev, w = w, z - alpha * z
            expected.append(w)
        state = SnagState.initial(np.array([1.0]), alpha, 1.0)
        for k in range(5):
            state = snag_step(state, lambda z, s: z, NULL)
            assert state.w[0] == pytest.approx(expected[k], abs=1e-14)

    def test_nonfinite_gradient_aborts(self):
        state = SnagState.initial(np.array([1.0]), 0.1, 1.0)
        with pytest.raises(NumericalAbort):
            snag_step(state, lambda z, s: np.array([np.nan]), NULL)


class TestPotential:
    def test_worked_example(self):
        # alpha=0.25, mu=1: v=(1, -0.5). w-w*=1, w_prev-w*=1 -> u=0.5,
        # quadratic part = 0.25/0.5 = 0.5; plus gap 0.5 -> V = 1.0.
        state = SnagState(w=np.array([1.0]), w_prev=np.array([1.0]),
                          alpha=0.25, gamma=nesterov_momentum(1.0, 0.25))
        V = potential(state, np.array([0.0]), 0.5, 1.0)
        assert V == pytest.approx(1.0, abs=1e-15)

    def test_negative_gap_rejected(self):
        state = SnagState.initial(np.array([1.0]), 0.25, 1.0)
        with pytest.raises(ConstraintViolation):
            potential(state, np.zeros(1), -1e-6, 1.0)

    def test_rank_one_form_matches_full_matrix(self):
        gen = RandomStream(21).generator()
        for _ in range(50):
            dim = int(gen.integers(1, 5))
            alpha = float(gen.uniform(0.01, 0.9))
            mu = float(gen.uniform(0.1, 1.0 / alpha))
            w = gen.normal(size=dim)
            w_prev = gen.normal(size=dim)
            wstar = gen.normal(size=dim)
            gap = float(gen.uniform(0.0, 2.0))
            state = SnagState(w=w, w_prev=w_prev, alpha=alpha,
                              gamma=nesterov_momentum(mu, alpha))
            theta = np.concatenate([w - wstar, w_prev - wstar])
            P = full_certificate_matrix(alpha, mu, dim)
            expected = float(theta @ P @ theta) + gap
            assert potential(state, wstar, gap, mu) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)

    def test_certificate_matrix_is_psd_rank_one(self):
        P = full_certificate_matrix(0.1, 2.0, 1)
        eigs = np.linalg.eigvalsh(P)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)  # singular 2x2 block
        assert eigs[-1] > 0.0


class TestContraction:
    @given(alpha_frac=st.floats(min_value=0.01, max_value=1.0),
           mu=st.floats(min_value=0.1, max_value=10.0),
           w=st.floats(min_value=-5.0, max_value=5.0),
           w_prev=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=200)
    def test_deterministic_step_contracts_potential(self, alpha_frac, mu, w, w_prev):
        # For the fixed quadratic phi(w) = mu/2 w^2 with alpha <= 1/(25 mu):
        # V_{t+1} <= (1 - sqrt(mu alpha)) V_t.
        alpha = alpha_frac / (25.0 * mu)
        state = SnagState(w=np.array([w]), w_prev=np.array([w_prev]),
                          alpha=alpha, gamma=nesterov_momentum(mu, alpha))
        wstar = np.zeros(1)

        def gap(s):
            return 0.5 * mu * float(s.w[0] ** 2)

        V0 = potential(state, wstar, gap(state), mu)
        nxt = snag_step(state, lambda z, s: mu * z, NULL)
        V1 = potential(nxt, wstar, gap(nxt), mu)
        assert V1 <= (1.0 - math.sqrt(mu * alpha)) * V0 + 1e-12

    def test_multistep_contraction_anisotropic(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu = float(np.linalg.eigvalsh(H)[0])
        alpha = 1.0 / (25.0 * float(np.linalg.eigvalsh(H)[-1]))
        state = SnagState.initial(np.array([3.0, -2.0]), alpha, mu)
        wstar = np.zeros(2)

        def V(s):
            gap = 0.5 * float(s.w @ H @ s.w)
            return potential(s, wstar, gap, mu)

        prev = V(state)
        for _ in range(200):
            state = snag_step(state, exact_grad(H, wstar), NULL)
            cur = V(state)
            assert cur <= (1.0 - math.sqrt(mu * alpha)) * prev + 1e-12
            prev = cur


class TestBounds:
    def test_frozen_values(self):
        # Frozen from an independent transcription of both closed forms.
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.1,
                                delta_drift=0.001, T=1000, delta_prob=0.01,
                                V0=1.0)
        assert tracking_bound_with_drift(p, 500) == pytest.approx(
            0.15015510558691725, abs=1e-12)
        assert tracking_bound_no_drift(p, 500) == pytest.approx(
            0.1251292546569768, abs=1e-12)

    def test_no_drift_bound_never_exceeds_drift_bound(self):
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.1,
                                delta_drift=0.01, T=100, delta_prob=0.05, V0=2.0)
        for t in range(0, 101, 10):
            assert tracking_bound_no_drift(p, t) <= tracking_bound_with_drift(p, t)

    def test_bound_decreasing_in_t(self):
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.1,
                                delta_drift=0.0, T=100, delta_prob=0.05, V0=5.0)
        vals = [tracking_bound_with_drift(p, t) for t in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConstraintViolation):
            TrackingBoundParams(mu=0.0, alpha=0.1, sigma=0.1, delta_drift=0.0,
                                T=10, delta_prob=0.05)
        with pytest.raises(ConstraintViolation):
            TrackingBoundParams(mu=1.0, alpha=0.1, sigma=0.1, delta_drift=0.0,
                                T=10, delta_prob=1.5)


class TestDriftProcess:
    def test_random_walk_has_exact_length(self):
        d = DriftProcess(kind="random_walk", delta=0.01)
        steps = d.displacements(10, 3, RandomStream(5))
        assert steps.shape == (10, 3)
        for t in range(10):
            assert np.linalg.norm(steps[t]) == pytest.approx(0.01, abs=1e-14)

    @pytest.mark.parametrize("drift", [
        DriftProcess(),
        DriftProcess(kind="random_walk", delta=0.0),
        DriftProcess(kind="fixed_direction", delta=0.0, direction=(0.0, 0.0)),
    ])
    def test_no_drift_is_zero(self, drift):
        steps = drift.displacements(7, 2, NULL)
        np.testing.assert_array_equal(steps, np.zeros((7, 2)))

    def test_fixed_direction_normalized(self):
        d = DriftProcess(kind="fixed_direction", delta=0.5, direction=(3.0, 4.0))
        steps = d.displacements(4, 2, NULL)
        assert steps.shape == (4, 2)
        for t in range(4):
            np.testing.assert_allclose(steps[t], [0.3, 0.4], atol=1e-15)

    def test_fixed_direction_rejects_zero_direction(self):
        d = DriftProcess(kind="fixed_direction", delta=0.5, direction=(0.0, 0.0))
        with pytest.raises(ConstraintViolation):
            d.displacements(3, 2, NULL)

    def test_external_sequence(self):
        d = DriftProcess(kind="external", sequence=((0.1, 0.0), (0.0, 0.2)))
        steps = d.displacements(2, 2, NULL)
        np.testing.assert_array_equal(steps[0], [0.1, 0.0])
        np.testing.assert_array_equal(steps[1], [0.0, 0.2])
        with pytest.raises(ConstraintViolation):
            d.displacements(3, 2, NULL)

    def test_validation(self):
        with pytest.raises(ConstraintViolation):
            DriftProcess(kind="bogus")
        with pytest.raises(ConstraintViolation):
            DriftProcess(kind="fixed_direction", delta=0.1)


class TestTrackingExperiment:
    def make_params(self, **kw):
        base = dict(mu=1.0, alpha=0.04, sigma=0.1, delta_drift=0.0,
                    T=200, delta_prob=0.05, V0=1.0)
        base.update(kw)
        return TrackingBoundParams(**base)

    def test_initial_record_has_requested_potential(self):
        p = self.make_params()
        logs = run_tracking_experiment(QuadraticFamily(1.0, 2),
                                       DriftProcess(), p, RandomStream(0))
        assert logs[0]["t"] == 0
        assert logs[0]["V"] == pytest.approx(p.V0, rel=1e-12)
        assert len(logs) == p.T + 1

    def test_noiseless_run_stays_below_bound(self):
        p = self.make_params(sigma=0.0)
        logs = run_tracking_experiment(QuadraticFamily(1.0, 2),
                                       DriftProcess(), p, RandomStream(0))
        assert all(rec["V"] <= rec["bound"] + 1e-12 for rec in logs)
        assert logs[-1]["V"] < 1e-6  # converged

    def test_drift_rejected_for_anisotropic_family(self):
        fam = QuadraticFamily(1.0, 2, hessian=((2.0, 0.0), (0.0, 1.0)))
        p = self.make_params(delta_drift=0.01)
        with pytest.raises(ConstraintViolation):
            run_tracking_experiment(fam, DriftProcess(kind="random_walk",
                                                      delta=0.01),
                                    p, RandomStream(0))
        # An external sequence moves the minimizer although its delta is 0.
        fam = QuadraticFamily(1.0, 2, hessian=((1.0, 0.0), (0.0, 4.0)))
        drift = DriftProcess(kind="external", sequence=((0.5, 0.0),) * 20)
        with pytest.raises(ConstraintViolation):
            run_tracking_experiment(fam, drift, self.make_params(T=20), RandomStream(0))

    def test_run_is_deterministic(self):
        p = self.make_params()
        a = run_tracking_experiment(QuadraticFamily(1.0, 2), DriftProcess(), p,
                                    RandomStream(3))
        b = run_tracking_experiment(QuadraticFamily(1.0, 2), DriftProcess(), p,
                                    RandomStream(3))
        assert a == b

    def test_noise_floor_monotone_in_sigma_paired_seeds(self):
        # With shared seeds, the late-run average potential grows with sigma.
        def tail_avg(sigma, seed):
            p = self.make_params(sigma=sigma, T=400)
            logs = run_tracking_experiment(QuadraticFamily(1.0, 2),
                                           DriftProcess(), p, RandomStream(seed))
            return np.mean([rec["V"] for rec in logs[-100:]])

        lows = [tail_avg(0.05, s) for s in range(5)]
        highs = [tail_avg(0.5, s) for s in range(5)]
        assert np.mean(highs) > np.mean(lows)

    def test_violation_rate_zero_for_noiseless(self):
        p = self.make_params(sigma=0.0, T=50)
        rate = mc_tracking_violation_rate(p, DriftProcess(), n_seeds=5)
        assert rate == 0.0

    def test_batched_rate_matches_scalar_runs(self):
        # Seed k of the batched kernel is the scalar run on stream
        # (base_seed, "mc", k); this cell's rate lies strictly inside (0, 1).
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.5, delta_drift=0.0,
                                T=300, delta_prob=0.05, V0=1.0)
        drift = DriftProcess(kind="fixed_direction", delta=0.2,
                             direction=(1.0, 0.0))
        n_seeds = 40
        rate = mc_tracking_violation_rate(p, drift, n_seeds, dim=2, base_seed=5)
        exceeded = 0
        for k in range(n_seeds):
            logs = run_tracking_experiment(QuadraticFamily(1.0, 2), drift, p,
                                           RandomStream(5).child("mc", k))
            exceeded += any(rec["V"] > rec["bound"] for rec in logs)
        assert 0.0 < rate < 1.0
        assert rate == exceeded / n_seeds
