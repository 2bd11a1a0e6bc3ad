import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo.constants import (
    ConstraintViolation,
    ProblemConstants,
    derive_bias_lipschitz,
    derive_estimator_lipschitz,
    derive_schedule,
    derive_sigma_bar,
    derive_smoothness_constants,
    nesterov_momentum,
)

finite_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
finite_nonneg = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def make_constants(mu, lg1_extra, **kw):
    return ProblemConstants(mu=mu, l_g1=mu + lg1_extra, **kw)


class TestProblemConstants:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ConstraintViolation):
            ProblemConstants(mu=0.0, l_g1=1.0)

    def test_rejects_l_g1_below_mu(self):
        with pytest.raises(ConstraintViolation):
            ProblemConstants(mu=2.0, l_g1=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConstraintViolation):
            ProblemConstants(mu=1.0, l_g1=1.0, sigma_f1=-0.1)


class TestSmoothnessConstants:
    def test_cross_terms_vanish(self):
        # mu = l_g1 = 1, only Lx0 = 1 nonzero: L0 = sqrt(2), L1 = 0
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        L0, L1 = derive_smoothness_constants(c)
        assert L0 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert L1 == 0.0

    def test_l1_direct_substitution(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx1=2.0)
        _, L1 = derive_smoothness_constants(c)
        assert L1 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)

    def test_matches_independent_transcription(self):
        # Frozen from a scratch re-implementation of the closed form.
        c = ProblemConstants(mu=2.0, l_g1=4.0, l_g2=1.0, l_f0=3.0,
                             Lx0=1.0, Lx1=0.5, Ly0=1.0, Ly1=0.2)
        L0, L1 = derive_smoothness_constants(c)
        assert L0 == pytest.approx(26.161995336747538, abs=1e-12)
        assert L1 == pytest.approx(1.118033988749895, abs=1e-12)

    def test_bias_constant_below_l0(self):
        c = ProblemConstants(mu=2.0, l_g1=4.0, l_g2=1.0, l_f0=3.0,
                             Lx0=1.0, Lx1=0.5, Ly0=1.0, Ly1=0.2)
        L0, _ = derive_smoothness_constants(c)
        assert derive_bias_lipschitz(c) <= L0

    @given(mu=finite_pos, extra=finite_nonneg, lx1=finite_nonneg,
           bump=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100)
    def test_l1_monotone_in_lx1(self, mu, extra, lx1, bump):
        base = make_constants(mu, extra, Lx1=lx1)
        bumped = make_constants(mu, extra, Lx1=lx1 + bump)
        assert derive_smoothness_constants(bumped)[1] >= \
            derive_smoothness_constants(base)[1]


class TestSigmaBar:
    def test_zero_case(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0)
        assert derive_sigma_bar(c) == 0.0

    def test_matches_independent_transcription(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, l_f0=1.0, sigma_f1=0.1,
                             sigma_g2=0.2)
        assert derive_sigma_bar(c) == pytest.approx(2.494233349147589, abs=1e-12)

    @given(mu=finite_pos, extra=finite_nonneg, sf=finite_nonneg,
           sg2=finite_nonneg, bump=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_in_noise(self, mu, extra, sf, sg2, bump):
        base = make_constants(mu, extra, sigma_f1=sf, sigma_g2=sg2, l_f0=1.0)
        for name in ("sigma_f1", "sigma_g2"):
            kw = dict(sigma_f1=sf, sigma_g2=sg2, l_f0=1.0)
            kw[name] += bump
            assert derive_sigma_bar(make_constants(mu, extra, **kw)) >= \
                derive_sigma_bar(base)


class TestEstimatorLipschitz:
    def test_requires_positive_q(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0)
        with pytest.raises(ConstraintViolation):
            derive_estimator_lipschitz(c, 0, 0.1)

    def test_lbar1_formula(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0, Lx1=0.5)
        _, lbar1 = derive_estimator_lipschitz(c, 3, 2.0)
        assert lbar1 == pytest.approx(2.0 * 0.5 * (1.0 + 0.5 * 2.0), abs=1e-15)

    def test_degenerate_spectrum_is_finite_without_curvature_noise(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0, Ly0=1.0, l_f0=1.0)
        lbar0, _ = derive_estimator_lipschitz(c, 5, 0.1)
        assert math.isfinite(lbar0)


class TestSchedule:
    def test_gamma_example(self):
        # mu=1, alpha=0.25 -> gamma = (1-0.5)/(1+0.5) = 1/3
        assert nesterov_momentum(1.0, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @given(alpha=st.floats(min_value=1e-6, max_value=1.0), mu=finite_pos)
    @settings(max_examples=200)
    def test_gamma_alpha_identity(self, alpha, mu):
        alpha = min(alpha, 1.0 / mu)
        gamma = nesterov_momentum(mu, alpha)
        s = math.sqrt(mu * alpha)
        assert abs(gamma * (1.0 + s) - (1.0 - s)) <= 1e-14

    def test_practical_mode_tau_and_T(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        s = derive_schedule(c, 0.05, 0.05, 1.0, mode="practical",
                            overrides={"alpha": 0.25, "eta": 0.01})
        assert s.tau == pytest.approx(0.5, abs=1e-15)  # tau = sqrt(mu*alpha)
        assert s.T == 8000  # T = 4*d0/(eta*eps)

    def test_practical_mode_rejects_unknown_override(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        with pytest.raises(ConstraintViolation):
            derive_schedule(c, 0.05, 0.05, 1.0, mode="practical",
                            overrides={"alpha": 0.25, "bogus": 1})

    @pytest.mark.parametrize("name", ["alpha", "alpha_init", "eta"])
    def test_nan_step_size_refused(self, name):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        s = derive_schedule(c, 0.05, 0.05, 1.0, mode="practical",
                            overrides={"alpha": 0.04, "T": 10})
        with pytest.raises(ConstraintViolation):
            dataclasses.replace(s, **{name: math.nan})

    @pytest.mark.parametrize("name, value", [
        ("alpha_init", math.nan), ("T", 2.5), ("Q", 1.9), ("eta", 0),
    ])
    def test_practical_mode_refuses_bad_override(self, name, value):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        with pytest.raises(ConstraintViolation, match=f"override {name} "):
            derive_schedule(c, 0.05, 0.05, 1.0, mode="practical",
                            overrides={"alpha": 0.04, "T": 10, name: value})

    def test_theorem_mode_alpha_beta_identity(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0, l_f0=1.0, Lx0=1.0, Ly0=1.0,
                             sigma_f1=0.1)
        s = derive_schedule(c, 0.01, 0.05, 1.0, mode="theorem",
                            sigma_g1_tilde=0.5)
        assert s.alpha == pytest.approx((1.0 - s.beta) / c.mu, rel=1e-6)
        assert s.alpha <= 1.0 / (25.0 * c.l_g1)
        assert 0.0 < s.tau <= 1.0
        assert s.gamma == nesterov_momentum(c.mu, s.alpha)

    def test_theorem_mode_is_deterministic(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0, l_f0=1.0, Lx0=1.0, Ly0=1.0,
                             sigma_f1=0.1)
        a = derive_schedule(c, 0.01, 0.05, 1.0, mode="theorem", sigma_g1_tilde=0.5)
        b = derive_schedule(c, 0.01, 0.05, 1.0, mode="theorem", sigma_g1_tilde=0.5)
        assert a == b

    def test_theorem_mode_epsilon_ceiling_is_warning_not_error(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0, l_f0=1.0, Lx0=1.0, Ly0=1.0,
                             Lx1=0.5, sigma_f1=0.1)
        s = derive_schedule(c, 1e-4, 0.05, 1.0, mode="theorem", sigma_g1_tilde=0.5)
        assert isinstance(s.eps_admissible, bool)

    def test_wrong_mode_keyword_refused(self):
        # Each mode gets only its own keywords; none is dropped unread.
        c = ProblemConstants(mu=1.0, l_g1=2.0, l_f0=1.0, Lx0=1.0, Ly0=1.0)
        with pytest.raises(ConstraintViolation, match="theorem mode does not read overrides"):
            derive_schedule(c, 0.01, 0.05, 1.0, mode="theorem",
                            overrides={"alpha": 0.04, "T": 5})
        with pytest.raises(ConstraintViolation,
                           match="practical mode does not read sigma_g1_tilde"):
            derive_schedule(c, 0.01, 0.05, 1.0, mode="practical", sigma_g1_tilde=0.5,
                            overrides={"alpha": 0.04})

    @pytest.mark.parametrize("name, value", [
        ("beta", 1.0), ("tau", 1.5), ("sigma_g1", -1.0), ("S", 2.0), ("T0", 0),
    ])
    def test_schedule_fields_in_override_domains(self, name, value):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        s = derive_schedule(c, 0.05, 0.05, 1.0, mode="practical",
                            overrides={"alpha": 0.04, "T": 10})
        with pytest.raises(ConstraintViolation, match=f"^{name} must be "):
            dataclasses.replace(s, **{name: value})

    def test_theorem_overflow_refused(self):
        c = ProblemConstants(mu=1.0, l_g1=2.0, l_f0=1.0, Lx0=1.0, Ly0=1.0)
        with pytest.raises(ConstraintViolation, match="theorem-mode schedule overflows"):
            derive_schedule(c, 0.01, 0.05, 1.0, mode="theorem", sigma_g1_tilde=1e160)

    def test_practical_T_override_skips_the_derived_T(self):
        # eta * epsilon underflows to 0: the derived T would divide by it, but
        # a T override means it is never derived.
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        s = derive_schedule(c, 1e-200, 0.05, 0.2, mode="practical",
                            overrides={"alpha": 0.04, "eta": 1e-200, "T": 5, "T0": 5})
        assert (s.T, s.T0) == (5, 5)
        with pytest.raises(ConstraintViolation, match="^the practical-mode schedule "
                                                      "underflows: float division by zero$"):
            derive_schedule(c, 1e-200, 0.05, 0.2, mode="practical",
                            overrides={"alpha": 0.04, "eta": 1e-200})

    @pytest.mark.parametrize("epsilon, error", [
        (1e-110, "float division by zero"),  # epsilon**3 in P
        (1e-40, "math domain error"),  # the log in T0 of mu**3 * alpha**3 * epsilon**2
    ])
    def test_theorem_underflow_refused(self, epsilon, error):
        c = ProblemConstants(mu=1.0, l_g1=1.0, l_f0=1.0, Lx0=1.0, Ly0=1.0,
                             sigma_f1=0.01, sigma_g1=0.001)
        with pytest.raises(ConstraintViolation,
                           match=f"^the theorem-mode schedule underflows: {error}$"):
            derive_schedule(c, epsilon, 0.05, 0.2)

    def test_invalid_inputs(self):
        c = ProblemConstants(mu=1.0, l_g1=1.0, Lx0=1.0)
        with pytest.raises(ConstraintViolation):
            derive_schedule(c, -0.1, 0.05, 1.0)
        with pytest.raises(ConstraintViolation):
            derive_schedule(c, 0.1, 1.5, 1.0)
        with pytest.raises(ConstraintViolation):
            derive_schedule(c, 0.1, 0.05, 0.0)
        with pytest.raises(ConstraintViolation):
            derive_schedule(c, 0.1, 0.05, 1.0, mode="bogus")
