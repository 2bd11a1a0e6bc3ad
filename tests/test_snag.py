import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accbo import cli, snag
from accbo.constants import ConstraintViolation, nesterov_momentum
from accbo.harness import ExperimentConfig, cmd_snag_track, write_csv
from accbo.hypergrad import EstimatorConfig
from accbo.rng import RandomStream
from accbo.snag import (
    DRIFT_KINDS,
    DriftProcess,
    NumericalAbort,
    TrackingBoundParams,
    mc_tracking_grid,
    mc_tracking_violation_rate,
    potential,
    run_tracking_experiment,
    snag_step,
    tracking_bound,
)
from accbo.snag import (
    _cell_inputs,
    _record_terms,
    _row_sum,
    _tape_planes,
    _unit_tape,
    _walk_rows,
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
        queried = []

        def grad(z, s):
            queried.append(z.copy())
            return z

        out = snag_step(np.array([2.0]), np.array([1.0]), 0.25,
                        nesterov_momentum(1.0, 0.25), grad, NULL)
        assert queried[0][0] == pytest.approx(7.0 / 3.0, abs=1e-15)
        assert out[0] == pytest.approx(7.0 / 4.0, abs=1e-14)

    def test_start_at_w0_w0_has_no_momentum_kick(self):
        w0 = np.array([3.0, -1.0])
        queried = []

        def grad(z, s):
            queried.append(z.copy())
            return np.zeros_like(z)

        out = snag_step(w0, w0, 0.1, nesterov_momentum(2.0, 0.1), grad, NULL)
        np.testing.assert_array_equal(queried[0], w0)  # z = w0
        np.testing.assert_array_equal(out, w0)

    def test_zero_momentum_degenerates_to_gradient_descent(self):
        # mu*alpha = 1 -> gamma = 0 -> plain gradient step.
        w0 = np.array([4.0])
        out = snag_step(w0, w0, 1.0, nesterov_momentum(1.0, 1.0), lambda z, s: 0.5 * z, NULL)
        assert out[0] == pytest.approx(4.0 - 1.0 * 2.0, abs=1e-15)

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
        w = w_prev = np.array([1.0])
        for k in range(5):
            w, w_prev = snag_step(w, w_prev, alpha, gamma, lambda z, s: z, NULL), w
            assert w[0] == pytest.approx(expected[k], abs=1e-14)

    def test_nonfinite_gradient_aborts(self):
        w0 = np.array([1.0])
        with pytest.raises(NumericalAbort, match=r"^non-finite gradient at iteration 7$"):
            snag_step(w0, w0, 0.1, nesterov_momentum(1.0, 0.1),
                      lambda z, s: np.array([np.nan]), NULL, 7)


class TestAbortStep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reference_and_grid_name_the_step(self):
        """A step size far above 1/mu diverges silently until a gradient is not
        finite; the reference and the grid both name that step t."""
        mu, alpha = 1.0, 30.0
        gamma = nesterov_momentum(mu, alpha)
        # The first step whose gradient mu * z is not finite, on Python floats,
        # from the default start of V0 = 1 and a still minimizer at 0.
        w = w_prev = 1.0
        t = 0
        while math.isfinite(mu * (w + gamma * (w - w_prev))):
            z = w + gamma * (w - w_prev)
            w, w_prev = z - alpha * (mu * z), w
            t += 1
        assert t == 469
        p = TrackingBoundParams(mu=mu, alpha=alpha, sigma=0.0, T=600, delta_prob=0.05,
                                V0=1.0)
        message = f"^non-finite gradient at iteration {t}$"
        with pytest.raises(NumericalAbort, match=message):
            run_tracking_experiment(mu * np.eye(2), DriftProcess(), p, RandomStream(0))
        with pytest.raises(NumericalAbort, match=message):
            mc_tracking_violation_rate(p, DriftProcess(), 3)


class TestPotential:
    def test_worked_example(self):
        # alpha=0.25, mu=1: v=(1, -0.5). w-w*=1, w_prev-w*=1 -> u=0.5,
        # quadratic part = 0.25/0.5 = 0.5; plus gap 0.5 -> V = 1.0.
        V = potential(np.array([1.0]), np.array([1.0]), 0.25, np.array([0.0]), 0.5, 1.0)
        assert V == pytest.approx(1.0, abs=1e-15)

    def test_negative_gap_rejected(self):
        w0 = np.array([1.0])
        with pytest.raises(ConstraintViolation):
            potential(w0, w0, 0.25, np.zeros(1), -1e-6, 1.0)

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
            theta = np.concatenate([w - wstar, w_prev - wstar])
            P = full_certificate_matrix(alpha, mu, dim)
            expected = float(theta @ P @ theta) + gap
            assert potential(w, w_prev, alpha, wstar, gap, mu) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)

    def test_certificate_matrix_is_psd_rank_one(self):
        P = full_certificate_matrix(0.1, 2.0, 1)
        eigs = np.linalg.eigvalsh(P)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)  # singular 2x2 block
        assert eigs[-1] > 0.0


class TestRecordTerms:
    """_record_terms, which builds every tracking record, equals the scalar
    formulas row by row: potential(), 0.5 * e'He and ||e||, e = w - w*."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 10), n=st.integers(1, 6),
           isotropic=st.booleans(), log_scale=st.floats(-3.0, 3.0),
           mu=st.floats(0.05, 20.0), alpha_frac=st.floats(0.01, 1.0))
    @settings(max_examples=300)
    def test_rows_equal_scalar_formulas(self, seed, dim, n, isotropic, log_scale, mu,
                                        alpha_frac):
        gen = np.random.default_rng(seed)
        if isotropic:
            H = mu * np.eye(dim)
        else:
            A = gen.normal(size=(dim, dim))
            H = A @ A.T + mu * np.eye(dim)  # SPD, eigenvalues >= mu
        alpha = alpha_frac / mu
        w, w_prev, wstar = 10.0**log_scale * gen.normal(size=(3, n, dim))
        s = math.sqrt(mu * alpha)
        V, gap, dist = _record_terms(w, w_prev, wstar, H, s, alpha)
        for i in range(n):
            e = w[i] - wstar[i]
            gap_i = 0.5 * float(e @ H @ e)
            expected = [potential(w[i], w_prev[i], alpha, wstar[i], gap_i, mu), gap_i,
                        float(np.linalg.norm(e))]
            assert _bits([V[i], gap[i], dist[i]]) == _bits(expected)
            # One row alone, as a cell's start row is, gives the same bits.
            assert _bits(_record_terms(w[i], w_prev[i], wstar[i], H, s, alpha)) \
                == _bits(expected)


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
        w, w_prev = np.array([w]), np.array([w_prev])
        wstar = np.zeros(1)

        def V(w, w_prev):
            return potential(w, w_prev, alpha, wstar, 0.5 * mu * float(w[0] ** 2), mu)

        V0 = V(w, w_prev)
        nxt = snag_step(w, w_prev, alpha, nesterov_momentum(mu, alpha),
                        lambda z, s: mu * z, NULL)
        V1 = V(nxt, w)
        assert V1 <= (1.0 - math.sqrt(mu * alpha)) * V0 + 1e-12

    def test_multistep_contraction_anisotropic(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu = float(np.linalg.eigvalsh(H)[0])
        alpha = 1.0 / (25.0 * float(np.linalg.eigvalsh(H)[-1]))
        gamma = nesterov_momentum(mu, alpha)
        w = w_prev = np.array([3.0, -2.0])
        wstar = np.zeros(2)

        def V(w, w_prev):
            gap = 0.5 * float(w @ H @ w)
            return potential(w, w_prev, alpha, wstar, gap, mu)

        prev = V(w, w_prev)
        for _ in range(200):
            w, w_prev = snag_step(w, w_prev, alpha, gamma, exact_grad(H, wstar), NULL), w
            cur = V(w, w_prev)
            assert cur <= (1.0 - math.sqrt(mu * alpha)) * prev + 1e-12
            prev = cur


_FROZEN = dict(mu=1.0, alpha=0.04, sigma=0.1, T=1000, delta_prob=0.01, V0=1.0)


class TestBounds:
    def test_frozen_values(self):
        # Frozen from an independent transcription of both closed forms.
        p = TrackingBoundParams(**_FROZEN)
        assert tracking_bound(p, DriftProcess(kind="random_walk", delta=0.001), 500) \
            == pytest.approx(0.15015510558691725, abs=1e-12)
        assert tracking_bound(p, DriftProcess(), 500) == pytest.approx(
            0.1251292546569768, abs=1e-12)

    # Bits of the with-drift (delta 0.001) and no-drift bounds on _FROZEN at
    # t = 0, 1, 500 and 1000, as the two bound functions this one replaces
    # computed them: the first from the bound parameters' own delta, the
    # second with delta forced to 0.
    WITH_DRIFT = [1.1501551055796428, 1.1001551055796428, 0.15015510558691725,
                  0.15015510557964276]
    NO_DRIFT = [1.1251292546497023, 1.0751292546497022, 0.1251292546569768,
                0.12512925464970232]

    @pytest.mark.parametrize("drift, expected", [
        (DriftProcess(kind="random_walk", delta=0.001), WITH_DRIFT),
        (DriftProcess(kind="fixed_direction", delta=0.001), WITH_DRIFT),
        (DriftProcess(), NO_DRIFT),
        (DriftProcess(kind="random_walk", delta=0.0), NO_DRIFT),
        (DriftProcess(kind="fixed_direction", delta=0.0), NO_DRIFT),
    ], ids=["random_walk", "fixed_direction", "none", "random_walk_0", "fixed_direction_0"])
    def test_one_bound_is_the_old_pair(self, drift, expected):
        p = TrackingBoundParams(**_FROZEN)
        assert _bits([tracking_bound(p, drift, t) for t in (0, 1, 500, 1000)]) \
            == _bits(expected)

    def test_no_drift_bound_never_exceeds_drift_bound(self):
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.1, T=100, delta_prob=0.05,
                                V0=2.0)
        drift = DriftProcess(kind="random_walk", delta=0.01)
        for t in range(0, 101, 10):
            assert tracking_bound(p, DriftProcess(), t) <= tracking_bound(p, drift, t)

    def test_bound_decreasing_in_t(self):
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.1, T=100, delta_prob=0.05,
                                V0=5.0)
        vals = [tracking_bound(p, DriftProcess(), t) for t in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConstraintViolation):
            TrackingBoundParams(mu=0.0, alpha=0.1, sigma=0.1, T=10, delta_prob=0.05)
        with pytest.raises(ConstraintViolation):
            TrackingBoundParams(mu=1.0, alpha=0.1, sigma=0.1, T=10, delta_prob=1.5)

    # V0 = 0, moderate, and near the largest double (where the start row or
    # its recomputed potential may overflow, and the cell is refused); mu *
    # alpha up to 400, so the rate ranges over [-4, 1) and its powers may
    # overflow the products.
    @given(mu=st.floats(0.05, 20.0), mu_alpha=st.floats(1e-4, 400.0),
           sigma=st.floats(0.0, 10.0), delta=st.floats(0.0, 1.0),
           delta_prob=st.floats(1e-6, 0.999), T=st.integers(1, 300),
           V0=st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e307, 1.79e308)),
           dim=st.integers(1, 4), kind=st.sampled_from(DRIFT_KINDS))
    @settings(max_examples=300)
    @example(mu=1.0, mu_alpha=0.04, sigma=0.1, delta=0.001, delta_prob=0.01,
             T=1000, V0=1.0, dim=2, kind="random_walk")
    @example(mu=1.0, mu_alpha=1.0, sigma=0.0, delta=0.0, delta_prob=0.05,
             T=5, V0=1.7e308, dim=1, kind="none")
    # Refused: an infinite start row, and a finite one whose potential overflows.
    @example(mu=0.5, mu_alpha=0.02, sigma=0.0, delta=0.0, delta_prob=0.05,
             T=5, V0=1.7e308, dim=2, kind="none")
    @example(mu=20.0, mu_alpha=400.0, sigma=0.0, delta=0.0, delta_prob=0.05,
             T=5, V0=1.79e308, dim=1, kind="random_walk")
    def test_cell_table_is_the_scalar_bound(self, mu, mu_alpha, sigma, delta,
                                            delta_prob, T, V0, dim, kind):
        alpha = mu_alpha / mu
        p = TrackingBoundParams(mu=mu, alpha=alpha, sigma=sigma, T=T,
                                delta_prob=delta_prob, V0=V0)
        drift = DriftProcess(kind=kind, delta=0.0 if kind == "none" else delta)
        H = mu * np.eye(dim)
        w0 = np.zeros(dim)
        w0[0] = math.sqrt(V0 / mu)
        with np.errstate(over="ignore", invalid="ignore"):
            # The table's V0 is the start row's potential as its record computes it.
            V0_row = float(_record_terms(w0, w0, np.zeros(dim), H,
                                         math.sqrt(mu * alpha), alpha)[0])
        if not math.isfinite(V0_row):  # V0 / mu or the potential overflows
            with pytest.raises(ConstraintViolation, match="V0 = "):
                _cell_inputs(H, p, drift)
            return
        table, H_cell, w0_cell, _ = _cell_inputs(H, p, drift)
        assert H_cell.tobytes() == H.tobytes()
        assert w0_cell.tobytes() == w0.tobytes()
        q = replace(p, V0=V0_row)
        assert table.dtype == np.float64 and table.shape == (T + 1,)
        assert _bits(table) == _bits([tracking_bound(q, drift, t) for t in range(T + 1)])

    @pytest.mark.parametrize("drift", [DriftProcess(),
                                       DriftProcess(kind="random_walk", delta=0.01)],
                             ids=["none", "random_walk"])
    def test_cell_table_overflow_is_the_scalar_overflow(self, drift):
        # mu * alpha = 100: the rate -1.5's powers overflow first at t = 1751.
        p = TrackingBoundParams(mu=1.0, alpha=100.0, sigma=0.1, T=2000, delta_prob=0.05,
                                V0=1.0)
        tracking_bound(p, drift, 1750)
        with pytest.raises(NumericalAbort) as scalar:
            tracking_bound(p, drift, 1751)
        with pytest.raises(NumericalAbort) as table:
            _cell_inputs(np.eye(2), p, drift)
        assert str(scalar.value) == "tracking bound overflows at t=1751: " \
            "1 - sqrt(mu*alpha)/4 = -1.5"
        assert str(table.value) == str(scalar.value)


# The fields of TrackingBoundParams and DriftProcess that a config sets are
# checked against NaN, with other values, in tests/test_harness.py's
# test_field_accepted_iff_the_library_accepts.
@pytest.mark.parametrize("make", [
    pytest.param(lambda: EstimatorConfig(Q=3, S=1, l_g1=math.nan), id="EstimatorConfig.l_g1"),
    pytest.param(lambda: nesterov_momentum(math.nan, 0.04), id="nesterov_momentum.mu"),
    pytest.param(lambda: nesterov_momentum(1.0, math.nan), id="nesterov_momentum.alpha"),
])
def test_nan_refused(make):
    with pytest.raises(ConstraintViolation):
        make()


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
        DriftProcess(kind="fixed_direction", delta=0.0),
    ])
    def test_no_drift_is_zero(self, drift):
        assert not drift.moves
        steps = drift.displacements(7, 2, NULL)
        np.testing.assert_array_equal(steps, np.zeros((7, 2)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_fixed_direction_steps_along_the_first_coordinate(self, dim):
        steps = DriftProcess(kind="fixed_direction", delta=0.3).displacements(5, dim, NULL)
        assert steps.shape == (5, dim)
        assert _bits(steps) == _bits([[0.3] + [0.0] * (dim - 1)] * 5)

    def test_validation(self):
        with pytest.raises(ConstraintViolation):
            DriftProcess(kind="bogus")

    def test_none_with_a_delta_is_refused(self):
        with pytest.raises(ConstraintViolation, match="a none drift takes no delta, got 0.1"):
            DriftProcess(kind="none", delta=0.1)


class TestTrackingExperiment:
    def make_params(self, **kw):
        base = dict(mu=1.0, alpha=0.04, sigma=0.1, T=200, delta_prob=0.05, V0=1.0)
        base.update(kw)
        return TrackingBoundParams(**base)

    def test_initial_record_has_requested_potential(self):
        p = self.make_params()
        logs = run_tracking_experiment(np.eye(2),
                                       DriftProcess(), p, RandomStream(0))
        assert logs["t"][0] == 0
        assert logs["V"][0] == pytest.approx(p.V0, rel=1e-12)
        assert len(logs["t"]) == p.T + 1

    def test_noiseless_run_stays_below_bound(self):
        p = self.make_params(sigma=0.0)
        logs = run_tracking_experiment(np.eye(2),
                                       DriftProcess(), p, RandomStream(0))
        assert np.all(logs["V"] <= logs["bound"] + 1e-12)
        assert logs["V"][-1] < 1e-6  # converged

    @pytest.mark.parametrize("H", [np.diag([2.0, 1.0]), 2.0 * np.eye(2)],
                             ids=["anisotropic", "not_mu_I"])
    def test_drift_needs_mu_times_identity(self, H):
        # The with-drift bound is stated for H = mu*I, with the bound's mu.
        for kind in ("fixed_direction", "random_walk"):
            with pytest.raises(ConstraintViolation, match="stated for H = mu\\*I only"):
                run_tracking_experiment(H, DriftProcess(kind=kind, delta=0.01),
                                        self.make_params(), RandomStream(0))
        # A drift that does not move takes any H whose eigenvalues are >= mu.
        run_tracking_experiment(H, DriftProcess(kind="random_walk", delta=0.0),
                                self.make_params(T=5), RandomStream(0))

    @pytest.mark.parametrize("H, w0, match", [
        ([[2.0, 1.0], [0.0, 1.0]], None, "H must be symmetric"),
        (np.ones((3, 2)), None, "H must be square, got shape \\(3, 2\\)"),
        (np.ones((2, 2, 2)), None, "H must be square"),
        ([[1.0, math.nan], [math.nan, 1.0]], None, "H must be finite"),
        ([[math.inf, 0.0], [0.0, 1.0]], None, "H must be finite"),
        (np.diag([2.0, 0.5]), None, "H has an eigenvalue below mu = 1.0"),
        (np.eye(3), np.ones(2), "w0 must have shape \\(3,\\), got \\(2,\\)"),
        (np.eye(2), np.ones((2, 1)), "w0 must have shape \\(2,\\)"),
    ], ids=["nonsymmetric", "3x2", "3d", "nan", "inf", "eigenvalue_below_mu",
            "w0_length", "w0_2d"])
    def test_malformed_hessian_or_start_refused(self, H, w0, match):
        for drift in (DriftProcess(), DriftProcess(kind="random_walk", delta=0.01)):
            with pytest.raises(ConstraintViolation, match=match):
                run_tracking_experiment(H, drift, self.make_params(), RandomStream(0),
                                        w0=w0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_huge_mu_times_identity_accepted(self, dim):
        # eigvalsh rounds an eigenvalue of 1e300 * I below 1e300 in dim 2.
        p = self.make_params(mu=1e300, alpha=1e-302, T=3)
        walk = DriftProcess(kind="random_walk", delta=0.01)
        logs = run_tracking_experiment(1e300 * np.eye(dim), walk, p, RandomStream(0))
        assert len(logs["t"]) == 4

    def test_run_is_deterministic(self):
        p = self.make_params()
        a = run_tracking_experiment(np.eye(2), DriftProcess(), p,
                                    RandomStream(3))
        b = run_tracking_experiment(np.eye(2), DriftProcess(), p,
                                    RandomStream(3))
        _assert_same_columns(a, b)

    def test_noise_floor_monotone_in_sigma_paired_seeds(self):
        # With shared seeds, the late-run average potential grows with sigma.
        def tail_avg(sigma, seed):
            p = self.make_params(sigma=sigma, T=400)
            logs = run_tracking_experiment(np.eye(2),
                                           DriftProcess(), p, RandomStream(seed))
            return np.mean(logs["V"][-100:])

        lows = [tail_avg(0.05, s) for s in range(5)]
        highs = [tail_avg(0.5, s) for s in range(5)]
        assert np.mean(highs) > np.mean(lows)

    def test_violation_rate_zero_for_noiseless(self):
        p = self.make_params(sigma=0.0, T=50)
        rate = mc_tracking_violation_rate(p, DriftProcess(), n_seeds=5)
        assert rate == 0.0


# mu * alpha = 3.25, above the step sizes (alpha <= 1/mu) for which the bound
# holds: the potential contracts more slowly than the bound, so runs violate
# it at rates strictly between 0 and 1, and a grid's count is checked on runs
# that violate and on runs that do not.
def _grid_params(**kw):
    base = dict(mu=1.0, alpha=3.25, sigma=0.5, T=300, delta_prob=0.05, V0=1.0)
    base.update(kw)
    return TrackingBoundParams(**base)


class TestMonteCarloGrid:
    # Four cells with one shared mu, alpha and T.
    CELLS = [
        (_grid_params(), DriftProcess()),
        (_grid_params(), DriftProcess(kind="fixed_direction", delta=0.2)),
        (_grid_params(), DriftProcess(kind="random_walk", delta=0.4)),
        (_grid_params(sigma=1.0), DriftProcess(kind="random_walk", delta=0.2)),
    ]
    RATES = [0.8, 0.4, 0.55, 0.875]

    def test_rates_match_scalar_runs_and_one_cell_calls(self):
        # Seed k of every cell is the scalar run on stream (base_seed, "mc", k).
        n_seeds = 40
        rates, _ = mc_tracking_grid(self.CELLS, n_seeds, dim=2, base_seed=5)
        assert rates == self.RATES
        for (p, drift), rate in zip(self.CELLS, rates):
            exceeded = 0
            for k in range(n_seeds):
                logs = run_tracking_experiment(np.eye(2), drift, p,
                                               RandomStream(5).child("mc", k))
                exceeded += bool(_violates(logs).any())
            assert rate == exceeded / n_seeds
            assert rate == mc_tracking_violation_rate(p, drift, n_seeds, dim=2,
                                                      base_seed=5)

    def test_each_cell_keeps_its_own_inputs(self):
        # Reordered, and with cells that differ from cell 1 in V0 or delta_prob
        # alone, every cell still reads what its one-cell call reads.
        drift = self.CELLS[1][1]
        cells = self.CELLS[::-1] + [(_grid_params(V0=0.0), drift),
                                    (_grid_params(delta_prob=0.2), drift)]
        rates, _ = mc_tracking_grid(cells, 40, dim=2, base_seed=5)
        assert rates == self.RATES[::-1] + [0.4, 0.6]
        assert rates == [mc_tracking_violation_rate(p, drift, 40, dim=2, base_seed=5)
                         for p, drift in cells]

    def test_each_unit_tape_drawn_once_per_seed(self, monkeypatch):
        generator = RandomStream.generator
        drawn = []

        def counted(stream):
            drawn.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RandomStream, "generator", counted)
        mc_tracking_grid(self.CELLS, 3, dim=2, base_seed=5)
        assert sorted(drawn) == sorted(
            (("mc", k), (label, 0)) for k in range(3) for label in ("noise", "drift"))
        # A block no cell needs is not drawn.
        drawn.clear()
        mc_tracking_grid([(_grid_params(sigma=0.0),
                           DriftProcess(kind="fixed_direction", delta=0.2))], 3)
        assert drawn == []

    # dim 8: the coordinate sums take np.sum's pairwise branch. The noise per
    # coordinate is smaller than in dim 2, so a larger mu * alpha gives rates
    # strictly between 0 and 1.
    CELLS_8 = [
        (_grid_params(alpha=3.35), DriftProcess()),
        (_grid_params(alpha=3.35), DriftProcess(kind="fixed_direction", delta=0.2)),
        (_grid_params(alpha=3.35), DriftProcess(kind="random_walk", delta=0.5)),
        (_grid_params(alpha=3.35, sigma=1.0), DriftProcess(kind="random_walk", delta=1.0)),
    ]
    RATES_8 = [0.85, 0.1, 0.375, 0.375]

    def test_dim_8_rates_match_scalar_runs(self):
        n_seeds = 40
        rates, _ = mc_tracking_grid(self.CELLS_8, n_seeds, dim=8, base_seed=5)
        assert rates == self.RATES_8
        for (p, drift), rate in zip(self.CELLS_8, rates):
            exceeded = sum(
                _violates(run_tracking_experiment(
                    np.eye(8), drift, p, RandomStream(5).child("mc", k))).any()
                for k in range(n_seeds))
            assert rate == exceeded / n_seeds

    @pytest.mark.parametrize("other", [
        _grid_params(mu=2.0), _grid_params(alpha=0.05), _grid_params(T=200)])
    def test_cells_must_share_mu_alpha_and_T(self, other):
        with pytest.raises(ConstraintViolation):
            mc_tracking_grid([self.CELLS[0], (other, DriftProcess())], 2)

    @pytest.mark.parametrize("name, value", [
        ("n_seeds", 0), ("n_seeds", 2.5), ("n_seeds", True), ("dim", 0), ("dim", 2.0),
        ("dim", -1)])
    def test_seeds_and_dim_are_counts(self, name, value):
        args = {"n_seeds": 2, "dim": 2, name: value}
        with pytest.raises(ConstraintViolation,
                           match=f"^{name} must be an integer >= 1, got {value!r}$"):
            mc_tracking_grid(self.CELLS, **args)

    def test_random_walk_on_explicit_mu_identity_is_the_reference(self):
        # The reference given H = mu*I itself, with a drift that walks: the
        # grid's rates and records are its runs', bit for bit.
        mu, dim, n_seeds = 0.7, 3, 6
        p = _grid_params(mu=mu, alpha=3.25 / mu, T=120)
        drift = DriftProcess(kind="random_walk", delta=0.4)
        rates, trajectories = mc_tracking_grid([(p, drift)], n_seeds, dim=dim, base_seed=5)
        runs = [run_tracking_experiment(np.diag([mu] * dim), drift, p,
                                        RandomStream(5).child("mc", k))
                for k in range(n_seeds)]
        _assert_same_columns(trajectories[0](), runs[0])
        assert rates == [sum(_violates(logs).any() for logs in runs) / n_seeds]
        assert 0.0 < rates[0] < 1.0


class TestTapeBlocks:
    """The grid draws its unit tapes _BLOCK steps at a time, seed-major. Runs
    that end before, on and after a block's last step are the one-block
    runs."""

    B = 4
    TS = [1, B - 1, B, B + 1, 2 * B + 1]

    @pytest.mark.parametrize("T", [*TS, "unpatched"])
    def test_planes_are_the_unit_tapes(self, monkeypatch, T):
        if T == "unpatched":
            T = 2 * snag._BLOCK + 5  # the shipped block size, a run that ends mid-block
        else:
            monkeypatch.setattr(snag, "_BLOCK", self.B)
        seeds = RandomStream(5).children("mc", 3)
        for label in ("noise", "drift"):
            # Copied: a plane need only be valid until the next one is taken.
            planes = np.stack([plane.copy() for plane in _tape_planes(seeds, label, T, 2)])
            assert planes.shape == (T, 2, 1, 3)
            for k, stream in enumerate(seeds):
                assert _bits(planes[:, :, 0, k]) == _bits(_unit_tape(stream, label, T, 2))

    @pytest.mark.parametrize("T", TS)
    def test_blocked_grid_is_the_one_block_grid_and_the_reference(self, monkeypatch, T):
        assert T < snag._BLOCK  # unpatched, the grid draws one block
        cells = [(replace(p, T=T), drift) for p, drift in TestMonteCarloGrid.CELLS]
        n_seeds = 6
        rates, trajectories = mc_tracking_grid(cells, n_seeds, dim=2, base_seed=5)
        one_block = [trajectory() for trajectory in trajectories]
        monkeypatch.setattr(snag, "_BLOCK", self.B)
        blocked_rates, trajectories = mc_tracking_grid(cells, n_seeds, dim=2, base_seed=5)
        assert _bits(blocked_rates) == _bits(rates)
        for (p, drift), rate, trajectory, expected in zip(cells, blocked_rates,
                                                          trajectories, one_block):
            runs = [run_tracking_experiment(np.eye(2), drift, p,
                                            RandomStream(5).child("mc", k))
                    for k in range(n_seeds)]
            records = trajectory()
            for reference in (expected, runs[0]):
                _assert_same_columns(records, reference)
            assert rate == sum(_violates(logs).any() for logs in runs) / n_seeds

    def test_memory_per_seed(self):
        # Two noisy random-walk cells, so both tapes are drawn. What a seed
        # adds to the grid's peak is mostly its two blocks of tape,
        # 2 * _BLOCK * dim doubles; its state, plane and generator rows come
        # to about 1.3 KiB more.
        T, dim = 2000, 2
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.5, T=T, delta_prob=0.05,
                                V0=1.0)
        walk = DriftProcess(kind="random_walk", delta=0.01)
        cells = [(p, walk), (replace(p, sigma=0.1), walk)]
        peaks = []
        for n_seeds in (200, 400):
            tracemalloc.start()
            try:
                mc_tracking_grid(cells, n_seeds, dim=dim, base_seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 200 <= 6 * 1024

    def test_tape_memory_does_not_grow_with_T(self):
        # Two noisy random-walk cells, so both tapes are drawn, and seed 0's
        # rows of the two cells interleave unless they are kept cell-major.
        # Whole tapes would take 2 * T * dim * n_seeds doubles, 122 MiB here.
        T, dim, n_seeds = 20_000, 2, 200
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.5, T=T, delta_prob=0.05,
                                V0=1.0)
        walk = DriftProcess(kind="random_walk", delta=0.01)
        cells = [(p, walk), (replace(p, sigma=0.1), walk)]
        tracemalloc.start()
        try:
            mc_tracking_grid(cells, n_seeds, dim=dim, base_seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        double, n_cells = 8, len(cells)
        # Seed 0's w and w* rows, held once. A second, transposed copy of
        # them (1.3 MiB) would exceed the allowance.
        rows = 2 * n_cells * (T + 1) * dim * double
        # The bound tables, one float64 row per cell.
        table = n_cells * (T + 1) * double
        # One block per tape source.
        block = 2 * snag._BLOCK * dim * n_seeds * double
        # The SNAG state, its temporaries and the 2 * n_seeds generators.
        rest = 2**20
        assert peak < rows + table + block + rest


class TestOverflow:
    """Runs whose iterates overflow end where run_tracking_experiment's do."""

    # mu * alpha = 100, far above 4: SNAG diverges, and the iterate overflows
    # after about 320 steps, whatever the noise and the drift.
    @pytest.mark.parametrize("drift", [DriftProcess(),
                                       DriftProcess(kind="random_walk", delta=0.4)])
    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_grid_aborts_at_the_reference_iteration(self, dim, drift):
        p = _grid_params(alpha=100.0, T=400)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort) as reference:
                run_tracking_experiment(np.eye(dim), drift, p,
                                        RandomStream(5).child("mc", 0))
            with pytest.raises(NumericalAbort) as grid:
                mc_tracking_grid([(p, drift)], 1, dim=dim, base_seed=5)
        assert "iteration" in str(reference.value)
        assert str(grid.value) == str(reference.value)

    def test_overflow_on_the_last_step_keeps_the_reference_rate(self):
        # mu * alpha = 100: the last step (t = 320) overflows w, and no gradient
        # follows to abort the run. There the reference's e @ H @ e has
        # 0 * inf = NaN, so its V is NaN, which is not within the bound: the
        # run is a violation.
        p = TrackingBoundParams(mu=1.0, alpha=100.0, sigma=0.0, T=320, delta_prob=0.05,
                                V0=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            logs = run_tracking_experiment(np.eye(2), DriftProcess(), p,
                                           RandomStream(0).child("mc", 0))
            rates, trajectories = mc_tracking_grid([(p, DriftProcess())], 2, dim=2)
            records = trajectories[0]()
        assert math.isnan(logs["V"][-1]) and math.isfinite(logs["bound"][-1])
        assert rates == [float(_violates(logs).any())] == [1.0]
        assert _bits(records["V"]) == _bits(logs["V"])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_infinite_potential_is_a_violation_under_an_infinite_bound(self, dim):
        # The rate is 1 - 10/4 = -1.5, so rate**t * V0 overflows to +inf at
        # t = 14 from V0 = 1e306. The iterates grow faster, so V is inf from
        # t = 1: at t = 14, inf <= inf, yet an infinite V is a violation, in
        # the grid as in the reference. (A floor that is not finite, the other
        # way to an infinite bound, is refused.)
        p = TrackingBoundParams(mu=1.0, alpha=100.0, sigma=0.0, T=14, delta_prob=0.05,
                                V0=1e306)
        with np.errstate(over="ignore", invalid="ignore"):
            logs = run_tracking_experiment(np.eye(dim), DriftProcess(), p,
                                           RandomStream(0).child("mc", 0))
            rates, _ = mc_tracking_grid([(p, DriftProcess())], 1, dim=dim)
        assert math.isfinite(logs["V"][0])
        assert logs["bound"][-1] == math.inf and _violates(logs)[-1]
        assert np.all(logs["V"][1:] == math.inf)
        assert rates == [float(_violates(logs).any())] == [1.0]

    @pytest.mark.parametrize("sigma, delta", [(1e160, 0.0), (1.3e154, 0.0), (1e154, 0.0),
                                              (0.0, 1e160), (1e153, 1e153)])
    def test_floor_that_is_not_finite_is_refused(self, sigma, delta):
        # sigma**2 or delta**2 overflows (OverflowError), or the floor does.
        p = TrackingBoundParams(mu=1.0, alpha=100.0, sigma=sigma, T=5, delta_prob=0.05,
                                V0=1.0)
        drift = DriftProcess(kind="random_walk", delta=delta) if delta else DriftProcess()
        for run in (lambda: tracking_bound(p, drift, 0),
                    lambda: run_tracking_experiment(np.eye(2), drift, p,
                                                    RandomStream(0).child("mc", 0)),
                    lambda: mc_tracking_grid([(p, drift)], 1)):
            with pytest.raises(ConstraintViolation, match="floor of sigma"):
                run()

    @pytest.mark.parametrize("T", [319, 320])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_diverged_run_fails_snag_track(self, tmp_path, dim, T):
        # mu * alpha = 100: the records end with V = inf at T = 319 and with
        # V = NaN at T = 320, where w overflows: both are violations.
        doc = {"mu": 1.0, "alpha": 100.0, "T": T, "delta_prob": 0.05, "V0": 1.0,
               "dim": dim, "sigma": [0.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["snag-track", "--config", str(path),
                           "--out", str(tmp_path / "out"), "--seeds", "2"])
        summary = json.loads((tmp_path / "out" / "snag_track_summary.json").read_text())
        assert rc == 3
        assert [c["violation_rate"] for c in summary["cells"]] == [1.0]

    # mu * alpha = 100: 1 - sqrt(mu*alpha)/4 = -1.5, whose powers overflow
    # before T = 2000, so the bound table aborts the run before its first step.
    @pytest.mark.parametrize("drift", [DriftProcess(),
                                       DriftProcess(kind="random_walk", delta=0.4)])
    def test_bound_overflow_aborts_grid_and_reference_alike(self, drift):
        p = _grid_params(alpha=100.0, T=2000)
        with pytest.raises(NumericalAbort) as reference:
            run_tracking_experiment(np.eye(2), drift, p,
                                    RandomStream(5).child("mc", 0))
        with pytest.raises(NumericalAbort) as grid:
            mc_tracking_grid([(p, drift)], 1, dim=2, base_seed=5)
        assert str(reference.value) == "tracking bound overflows at t=1751: " \
            "1 - sqrt(mu*alpha)/4 = -1.5"
        assert str(grid.value) == str(reference.value)

    def test_bound_overflow_exits_4(self, tmp_path, capsys):
        doc = {"mu": 1.0, "alpha": 10000.0, "T": 300, "delta_prob": 0.05, "V0": 1.0,
               "dim": 2, "sigma": [0.0, 0.1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["snag-track", "--config", str(path),
                       "--out", str(tmp_path / "out"), "--seeds", "2"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "tracking bound overflows at t=224: 1 - sqrt(mu*alpha)/4 = -24.0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _violates(run: dict) -> np.ndarray:
    """The grid's rule on each t of a run's columns: V is not finite, or
    above the bound."""
    return ~(np.isfinite(run["V"]) & (run["V"] <= run["bound"]))


def _assert_same_columns(got: dict, expected: dict) -> None:
    """The same column names in the same order, and each column equal to
    expected's in dtype and bit for bit (signed zeros too)."""
    assert list(got) == list(expected)
    for name, column in expected.items():
        assert got[name].dtype == column.dtype
        assert got[name].tobytes() == column.tobytes()


class TestSeedZeroTrajectories:
    """The grid's seed-0 trajectories are run_tracking_experiment's records,
    bit for bit, and snag-track writes them as that function's CSVs."""

    @staticmethod
    def cells(mu, dim, T):
        drifts = [DriftProcess(),
                  DriftProcess(kind="fixed_direction", delta=0.01),
                  DriftProcess(kind="random_walk", delta=0.01)]
        return [(TrackingBoundParams(mu=mu, alpha=0.04, sigma=sigma, T=T, delta_prob=0.05,
                                     V0=V0), drift)
                for sigma in (0.0, 0.3) for drift in drifts for V0 in (0.0, 1.0)]

    # T on both sides of a stream family's block of rows.
    # dim >= 8 takes np.sum's pairwise branch of the coordinate sums.
    @pytest.mark.parametrize("dim, mu, T", [
        (1, 1.0, 30), (2, 0.7, 1030), (3, 0.7, 30), (5, 1.0, 1030), (8, 0.7, 1030),
        (9, 1.0, 30)])
    def test_records_equal_scalar_reference(self, dim, mu, T):
        cells = self.cells(mu, dim, T)
        _, trajectories = mc_tracking_grid(cells, 3, dim=dim, base_seed=4)
        for (p, drift), trajectory in zip(cells, trajectories):
            expected = run_tracking_experiment(mu * np.eye(dim), drift, p,
                                               RandomStream(4).child("mc", 0))
            _assert_same_columns(trajectory(), expected)

    @pytest.mark.parametrize("drift", [
        {"kind": "none"},
        {"kind": "fixed_direction", "delta": [0.0, 0.002]},
        {"kind": "random_walk", "delta": [0.0, 0.002]},
    ], ids=["none", "fixed_direction", "random_walk"])
    def test_snag_track_csvs_are_the_reference_records(self, tmp_path, drift):
        doc = {"mu": 0.7, "alpha": 0.04, "T": 40, "delta_prob": 0.05, "V0": 1.0,
               "dim": 3, "sigma": [0.0, 0.3], "drift": drift}
        cmd_snag_track(ExperimentConfig("snag-track", doc, tmp_path / "out", 3, 9))
        for sigma in doc["sigma"]:
            # "none" runs the cells of delta 0.
            for delta in drift.get("delta", [0.0]):
                p = TrackingBoundParams(mu=0.7, alpha=0.04, sigma=sigma, T=40,
                                        delta_prob=0.05, V0=1.0)
                reference = DriftProcess(kind=drift["kind"], delta=delta)
                records = run_tracking_experiment(0.7 * np.eye(3), reference, p,
                                                  RandomStream(9).child("mc", 0))
                name = f"track_sigma{float(sigma):.17g}_delta{float(delta):.17g}.csv"
                write_csv(records, tmp_path / name)
                assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()


# Drawn one by one (no fill value): any float64; values of like magnitude,
# whose sums round differently in another order; and the special values,
# often enough that rows made of them alone (an all -0.0 row sums to +0.0)
# turn up.
floats64 = st.one_of(st.floats(width=64), st.floats(min_value=-10.0, max_value=10.0),
                     st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]))


def _laid_out(rows: np.ndarray, axis: int) -> np.ndarray:
    """The row-major rows stored with their coordinate axis at `axis`,
    contiguously: axis 0 is the grid's coordinate-major layout."""
    return np.ascontiguousarray(np.moveaxis(rows, -1, axis))


def _assert_bits_or_nan(got, expected) -> None:
    """got equals expected bit for bit where expected is not NaN, and is NaN
    where it is: which NaN (sign and payload) a sum passes on is no contract."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert _bits(got[~nan]) == _bits(expected[~nan])


class TestOrderedRowSums:
    # Each helper sums along the axis it is given; the references are numpy's
    # on the row-major rows.
    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 10)),
                       elements=floats64, fill=st.nothing()),
           axis=st.sampled_from([0, -1]))
    @example(rows=np.array([[-0.0], [0.0]]), axis=-1)
    @example(rows=np.full((2, 3), -0.0), axis=-1)
    @example(rows=np.full((2, 3), -0.0), axis=0)
    @settings(max_examples=300)
    def test_row_sum_is_np_sum(self, rows, axis):
        with np.errstate(all="ignore"):
            _assert_bits_or_nan(_row_sum(_laid_out(rows, axis), axis), np.sum(rows, axis=-1))

    @given(v=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 10)),
                    elements=floats64, fill=st.nothing()),
           delta=st.floats(min_value=0.0, max_value=10.0),
           axis=st.sampled_from([0, -1]))
    @settings(max_examples=300)
    def test_walk_norms_are_np_linalg_norm(self, v, delta, axis):
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(v, axis=-1, keepdims=True)
            norms[norms == 0.0] = 1.0
            walked = np.moveaxis(_walk_rows(delta, _laid_out(v, axis), axis), axis, -1)
            _assert_bits_or_nan(walked, delta * v / norms)
