import gc
import tracemalloc

import numpy as np
import pytest

from accbo.baselines import SAMPLING, run_plain_momentum_bilevel
from accbo.constants import ConstraintViolation, ProblemConstants, derive_schedule
from accbo.hypergrad import EstimatorConfig, estimate_hypergradient
from accbo import optimizer
from accbo.optimizer import (
    IterationLog,
    accbo_sampling,
    average_step,
    check_budget,
    momentum_update,
    run_accbo,
    running_average_grad_norm,
    upper_step,
    warm_start,
)
from accbo.problems import IsotropicQuadratic, instance_from_dict, make_fixture_ridge
from accbo.rng import RandomStream
from accbo.snag import NumericalAbort

from conftest import CountingOracles, analytic_instances, run_log_of, scaled_ridge


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
        x, zero = upper_step(np.zeros(3), np.array([3.0, 0.0, 4.0]), 0.1, 0)
        assert not zero
        assert np.linalg.norm(x) == pytest.approx(0.1, abs=1e-15)

    def test_zero_momentum_skips(self):
        x0 = np.array([1.0, 2.0])
        x, zero = upper_step(x0, np.zeros(2), 0.1, 0)
        assert zero
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("m", [[1e160, 0.0], [np.nan, 0.0], [np.inf, 1.0]],
                             ids=["norm_overflows", "nan", "inf"])
    def test_non_finite_norm_aborts(self, m):
        # Entries of 1e160 are finite, but their squares overflow the norm:
        # the step would be m / inf = 0 at every later iteration.
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalAbort, match="non-finite momentum at t=7"):
            upper_step(np.zeros(2), np.array(m), 0.1, 7)


class TestMomentumUpdate:
    def test_first_iteration_is_plain_estimate(self):
        inst = noisy_iso()
        cfg = EstimatorConfig(Q=2, S=1, l_g1=inst.constants.l_g1)
        x = np.array([0.2, -0.1])
        y = inst.lower_minimizer(x)
        s = RandomStream(7).child("u")
        q = s.child("q").integers(0, cfg.Q)
        m = momentum_update(inst, None, x, None, y, None, cfg, 0.9, s, q)
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
        q = s.child("q").integers(0, cfg.Q)
        m = momentum_update(inst, m_prev, x, x, y, y, cfg, beta, s, q)
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
            q = s.child("q").integers(0, cfg.Q)
            m = momentum_update(inst, m_prev, x_now, x_prev, y_now, y_prev,
                                cfg, beta, s, q)
            g_now = estimate_hypergradient(inst, x_now, y_now, cfg, s, q=q)
            g_prev = estimate_hypergradient(inst, x_prev, y_prev, cfg, s, q=q)
            np.testing.assert_allclose(m, g_now + beta * (m_prev - g_prev),
                                       atol=1e-14)


class FreshEachCall:
    """Forwards every method call to a newly built copy of the instance."""

    def __init__(self, inst):
        self._inst = inst

    def __getattr__(self, name):
        value = getattr(self._inst, name)
        if not callable(value):
            return value
        doc = self._inst.to_dict()
        return lambda *args: getattr(instance_from_dict(doc), name)(*args)


class TestRunAccbo:
    def test_instance_cache_changes_no_log(self):
        # Criterion 8's ridge toy, option two, with a shorter run from zero.
        ridge = scaled_ridge()
        x = np.zeros(ridge.dim_x)
        sched = practical_schedule(
            ridge, alpha=1e-3, beta=0.95, eta=0.005, T=200, T0=400, S=1, Q=15, I=2,
            N=12, sigma_g1_tilde=0.05 / np.sqrt(ridge.constants.mu * 1e-3))
        cached = run_accbo(ridge, sched, "two", RandomStream(3), x0=x)
        uncached = run_accbo(FreshEachCall(ridge), sched, "two", RandomStream(3), x0=x)
        assert [vars(r) for r in cached] == [vars(r) for r in uncached]

    def test_option_one_rejects_anisotropic_lower(self, general_quad, ridge_toy):
        for inst in (general_quad, ridge_toy):
            with pytest.raises(ConstraintViolation, match="option one"):
                run_accbo(inst, practical_schedule(inst), "one", RandomStream(0))

    def test_option_one_runs_on_exp_toy(self, exp_toy):
        logs = run_accbo(exp_toy, practical_schedule(exp_toy), "one", RandomStream(0),
                         x0=np.array([0.5, -0.5]))
        assert len(logs) == 20
        assert all(np.isfinite(rec.grad_norm_true) for rec in logs)

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
        logs = run_accbo(general_quad, sched, "two", RandomStream(2))
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

    def test_overflowing_momentum_abort_carries_completed_logs(self, monkeypatch):
        inst = noisy_iso()
        sched = practical_schedule(inst, T=20)
        reference = run_accbo(inst, sched, "one", RandomStream(4))
        update, calls = optimizer.momentum_update, []

        def huge_from_t5(*args):
            calls.append(None)
            m = update(*args)
            return m if len(calls) <= 5 else np.full_like(m, 1e160)

        monkeypatch.setattr(optimizer, "momentum_update", huge_from_t5)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalAbort, match="non-finite momentum at t=5") as info:
            run_accbo(inst, sched, "one", RandomStream(4))
        assert info.value.logs == reference[:5]

    def test_running_average_requires_logs(self):
        with pytest.raises(ConstraintViolation):
            running_average_grad_norm([])


def per_iteration_logs(inst, t0, x, y, yhat, yhat_next, m, calls, zero):
    """The diagnostics as the loop once computed them, one iteration at a time."""
    logs = []
    for i in range(len(x)):
        ystar = inst.lower_minimizer(x[i])
        logs.append(IterationLog(
            t=t0 + i,
            grad_norm_true=float(np.linalg.norm(inst.true_hypergradient(x[i]))),
            m_norm=float(np.linalg.norm(m[i])),
            y_track_err=float(np.linalg.norm(y[i] - ystar)),
            yhat_track_err=float(np.linalg.norm(yhat[i] - ystar)),
            yhat_step=float(np.linalg.norm(yhat_next[i] - yhat[i])),
            calls_g1=int(calls[i, 0]),
            calls_jvp=int(calls[i, 1]),
            calls_hvp=int(calls[i, 2]),
            calls_f=int(calls[i, 3]),
            zero_momentum=bool(zero[i]),
        ))
    return logs


def same_logs(got, want):
    """Equal field by field, with equal Python types (the CSVs format by type)."""
    assert [vars(r) for r in got] == [vars(r) for r in want]
    assert ([[type(v) for v in vars(r).values()] for r in got]
            == [[type(v) for v in vars(r).values()] for r in want])


class TestDiagnosticsPostPass:
    T = optimizer._BLOCK + 3  # crosses a block boundary

    @pytest.mark.parametrize("inst", analytic_instances(noise=True), ids=lambda i: i.kind)
    def test_block_equals_per_iteration_formulas(self, inst):
        gen = RandomStream(1).child("rows").generator()
        n = 300
        x = gen.normal(0.0, 1.0, size=(n, inst.dim_x)) * 10.0 ** gen.integers(-4, 3, (n, 1))
        y, yhat, yhat_next = (gen.normal(0.0, 1.0, size=(n, inst.dim_y)) for _ in range(3))
        m = gen.normal(0.0, 1.0, size=(n, inst.dim_x))
        calls = np.cumsum(gen.integers(0, 5, size=(n, 4)), axis=0)
        zero = gen.random(n) < 0.1
        rows = (x, y, yhat, yhat_next, m, calls, zero)
        same_logs(optimizer.RunLog(optimizer._diagnose(inst, 17, *rows)),
                  per_iteration_logs(inst, 17, *rows))

    @pytest.mark.parametrize("inst, run", [
        (noisy_iso(sigma_g2=0.1), lambda i, s, st: run_accbo(i, s, "one", st)),
        (noisy_iso(sigma_g2=0.1), lambda i, s, st: run_accbo(i, s, "two", st)),
        (scaled_ridge(), lambda i, s, st: run_accbo(i, s, "two", st)),
        (scaled_ridge(), lambda i, s, st: run_plain_momentum_bilevel(i, s, st)),
        (noisy_iso(sigma_g2=0.1), lambda i, s, st: run_plain_momentum_bilevel(i, s, st)),
    ], ids=["accbo_one", "accbo_two", "accbo_two_ridge", "plain_ridge", "plain"])
    def test_full_run_equals_per_iteration_formulas(self, monkeypatch, inst, run):
        sched = practical_schedule(inst, alpha=0.01, eta=0.002, T=self.T, Q=3, S=1,
                                   I=2, N=2)
        blocks, diagnose = [], optimizer._diagnose

        def spy(inst, t0, x, *rows):
            blocks.append((t0, len(x)))
            return diagnose(inst, t0, x, *rows)

        monkeypatch.setattr(optimizer, "_diagnose", spy)
        logs = run(inst, sched, RandomStream(5))
        assert blocks == [(0, optimizer._BLOCK), (optimizer._BLOCK, 3)]
        monkeypatch.setattr(optimizer, "_diagnose",
                            lambda *rows: run_log_of(per_iteration_logs(*rows)).columns)
        same_logs(logs, run(inst, sched, RandomStream(5)))
        assert [r.t for r in logs] == list(range(self.T))

    @pytest.mark.parametrize("fail_at", [optimizer._BLOCK, optimizer._BLOCK + 2])
    @pytest.mark.parametrize("run", [
        lambda inst, sched, stream: run_accbo(inst, sched, "one", stream),
        lambda inst, sched, stream: run_plain_momentum_bilevel(inst, sched, stream),
    ], ids=["accbo", "plain_momentum"])
    def test_abort_in_second_block_keeps_the_completed_prefix(self, run, fail_at):
        class NanAfter(IsotropicQuadratic):
            """Lower-level oracle that returns nan from iteration fail_at on."""

            n = 50 + fail_at  # warm start, then fail_at outer iterations

            def stoch_grad_y_g(self, x, y, stream):
                self.n -= 1
                g = super().stoch_grad_y_g(x, y, stream)
                return g if self.n >= 0 else np.full_like(g, np.nan)

        inst = NanAfter(1.0, 0.5 * np.eye(2), [0.1, 0.0], [0.5, -0.5],
                        [0.2, 0.3], sigma_f1=0.05, sigma_g1=0.1)
        sched = practical_schedule(inst, T=self.T, Q=2, S=1)
        with pytest.raises(NumericalAbort) as info:
            run(inst, sched, RandomStream(4))
        reference = run(noisy_iso(), sched, RandomStream(4))
        assert len(info.value.logs) == fail_at
        same_logs(info.value.logs, reference[:fail_at])
        columns = info.value.logs.columns
        assert list(columns) == list(reference.columns)
        for name, col in columns.items():
            want = reference.columns[name][:fail_at]
            assert col.dtype == want.dtype and col.shape == (fail_at,)
            assert np.array_equal(col, want)

    def test_log_retains_at_most_100_bytes_per_iteration(self):
        inst, T = noisy_iso(), 5000
        sched = practical_schedule(inst, T=T, Q=1, S=1)
        run_accbo(inst, sched, "two", RandomStream(1))  # lazy set-up outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logs = run_accbo(inst, sched, "two", RandomStream(1))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(logs) == T
        assert retained / T <= 100  # one IterationLog per row retained 420


def counted_run(monkeypatch, inst, run, sched):
    """Run on a counting mock of inst; return the logs (or the aborted run's
    logs) and the mock's counters after each completed iteration."""
    mock, seen, step = CountingOracles(inst), [], optimizer.upper_step

    def counted_step(*args):
        out = step(*args)  # an iteration that aborts here is not completed
        seen.append((mock.calls["g1"], mock.calls["jvp"], mock.calls["hvp"],
                     mock.calls["f"]))
        return out

    monkeypatch.setattr(optimizer, "upper_step", counted_step)
    monkeypatch.setattr(optimizer, "_BLOCK", 7)  # the q sums cross blocks
    try:
        logs = run(mock, sched, RandomStream(9))
    except NumericalAbort as exc:
        logs = exc.logs
    return [(r.calls_g1, r.calls_jvp, r.calls_hvp, r.calls_f) for r in logs], seen


class TestOracleCounts:
    """The closed-form count columns equal a counting mock's at every iteration."""

    RUNS = {
        "accbo_one": lambda inst, s, st: run_accbo(inst, s, "one", st),
        "accbo_two": lambda inst, s, st: run_accbo(inst, s, "two", st),
        "plain": lambda inst, s, st: run_plain_momentum_bilevel(inst, s, st),
    }

    @pytest.mark.parametrize("inst, run", [
        (noisy_iso(sigma_g2=0.1), "accbo_one"),
        (noisy_iso(sigma_g2=0.1), "accbo_two"),
        (analytic_instances(noise=True)[1], "accbo_two"),
        (make_fixture_ridge(sigma_f1=0.1, sigma_g1=0.05, sigma_g2=0.05), "accbo_two"),
        (noisy_iso(sigma_g2=0.1), "plain"),
        (make_fixture_ridge(sigma_f1=0.1, sigma_g1=0.05, sigma_g2=0.05), "plain"),
    ], ids=["iso_one", "iso_two", "general_two", "ridge_two", "iso_plain", "ridge_plain"])
    def test_counts_equal_the_counting_mock(self, monkeypatch, inst, run):
        sched = practical_schedule(inst, alpha=0.01, eta=0.002, T=23, T0=5, S=2, Q=4,
                                   I=3, N=4)
        counts, seen = counted_run(monkeypatch, inst, self.RUNS[run], sched)
        assert len(counts) == sched.T
        assert counts == seen

    @pytest.mark.parametrize("run", ["accbo_one", "accbo_two"])
    def test_aborted_run_counts_equal_the_counting_mock(self, monkeypatch, run):
        update, calls = optimizer.momentum_update, []

        def huge_from_t5(*args):
            calls.append(None)
            m = update(*args)
            return m if len(calls) <= 5 else np.full_like(m, 1e160)

        monkeypatch.setattr(optimizer, "momentum_update", huge_from_t5)
        inst = noisy_iso(sigma_g2=0.1)
        sched = practical_schedule(inst, T=20, T0=5, S=2, Q=4, I=2, N=3)
        counts, seen = counted_run(monkeypatch, inst, self.RUNS[run], sched)
        assert len(counts) == 5
        assert counts == seen

    def test_schedule_whose_counts_overflow_is_refused_before_any_oracle_call(self):
        class NoOracles:
            def __init__(self, inst):
                self.inst = inst

            def __getattr__(self, name):
                if name.startswith("stoch_"):
                    raise AssertionError(f"{name} called")
                return getattr(self.inst, name)

        # The practical schedule derives T = T0 = 4*d0/(eta*epsilon), about 8e163.
        inst = NoOracles(noisy_iso())
        sched = derive_schedule(inst.constants, 0.05, 0.05, 1e160, mode="practical",
                                overrides={"alpha": 0.04, "eta": 0.01})
        assert sched.T > 1e163
        for run in self.RUNS.values():
            with pytest.raises(ConstraintViolation,
                               match=r"T = 8e\+163 and T0 = 8e\+163 may need 2\*\*63 or more"):
                run(inst, sched, RandomStream(0))

    def test_budget_is_the_closed_form_at_the_deepest_q(self):
        # Option one, T = 1, S = Q = 1: T0 + 1 lower-level calls, one jvp, two f.
        inst, limit = noisy_iso(), 2**63 - 1
        fits = practical_schedule(inst, T=1, T0=limit - 4, S=1, Q=1)
        check_budget(accbo_sampling(inst, fits, "one"), fits)
        over = practical_schedule(inst, T=1, T0=limit - 3, S=1, Q=1)
        with pytest.raises(ConstraintViolation, match=r"may need 2\*\*63 or more oracle calls"):
            check_budget(accbo_sampling(inst, over, "one"), over)

    def test_theorem_schedule_of_1e8_iterations_fits(self):
        # convergence.json's instance at epsilon 0.5: T = 6.0e7, T0 = 6.6e8, S = 5871.
        inst = IsotropicQuadratic(1.0, 0.5 * np.eye(2), [0.1, -0.1], [0.4, -0.3],
                                  [0.2, 0.1], sigma_f1=0.01, sigma_g1=0.001)
        sched = derive_schedule(inst.constants, 0.5, 0.05, 0.2, mode="theorem")
        assert sched.T > 1e7
        for option in ("one", "two"):
            check_budget(accbo_sampling(inst, sched, option), sched)
        check_budget(SAMPLING, sched)
