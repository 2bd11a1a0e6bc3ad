import numpy as np
import pytest

from accbo.baselines import (
    run_plain_momentum_bilevel,
    sgd_tracking_step,
)
from accbo.problems import IsotropicQuadratic
from accbo.rng import RandomStream
from accbo.snag import NumericalAbort

from test_optimizer import noisy_iso, practical_schedule


class TestSgdStep:
    def test_plain_step(self):
        out = sgd_tracking_step(np.array([2.0]), lambda w, s: w, 0.25,
                                RandomStream(0))
        assert out[0] == pytest.approx(1.5, abs=1e-15)

    def test_nonfinite_aborts(self):
        with pytest.raises(NumericalAbort):
            sgd_tracking_step(np.zeros(1), lambda w, s: np.array([np.inf]),
                              0.1, RandomStream(0))

    def test_contraction_slower_than_nesterov_rate(self):
        # On phi(w) = mu/2 w^2 with alpha = 1/(25 mu), the SGD error contracts
        # by (1 - mu*alpha) per step vs (1 - sqrt(mu*alpha)) for Nesterov.
        mu, alpha = 1.0, 0.04
        w = np.array([1.0])
        for _ in range(10):
            w = sgd_tracking_step(w, lambda v, s: mu * v, alpha, RandomStream(0))
        assert abs(w[0]) == pytest.approx((1.0 - mu * alpha) ** 10, abs=1e-14)


class TestPlainMomentumBilevel:
    def test_log_schema_matches_accbo(self):
        inst = noisy_iso()
        logs = run_plain_momentum_bilevel(inst, practical_schedule(inst, T=10),
                                          RandomStream(1))
        assert [rec.t for rec in logs] == list(range(10))
        # No averaging: the yhat diagnostics mirror y.
        assert all(rec.yhat_track_err == rec.y_track_err for rec in logs)

    def test_deterministic(self):
        inst = noisy_iso()
        sched = practical_schedule(inst, T=8)
        a = run_plain_momentum_bilevel(inst, sched, RandomStream(4))
        b = run_plain_momentum_bilevel(inst, sched, RandomStream(4))
        assert a == b

    def test_noiseless_convergence(self):
        inst = IsotropicQuadratic(1.0, 0.5 * np.eye(2), [0.1, 0.0],
                                  [0.5, -0.5], [0.2, 0.3])
        sched = practical_schedule(inst, alpha=0.2, eta=0.02, T=400)
        logs = run_plain_momentum_bilevel(inst, sched, RandomStream(0),
                                          x0=np.array([1.0, 1.0]))
        assert logs[-1].grad_norm_true < 0.2 * logs[0].grad_norm_true

    def test_uses_same_oracle_budget_shape(self):
        # Per outer iteration: 1 lower-level gradient, and S*(2 f-gradients +
        # 1 jvp + q hvps) estimator calls, same as the accelerated method's
        # first iteration.
        inst = noisy_iso()
        sched = practical_schedule(inst, T=5, S=2)
        logs = run_plain_momentum_bilevel(inst, sched, RandomStream(2))
        assert logs[0].calls_f == 2 * sched.S
        assert logs[0].calls_jvp == sched.S
