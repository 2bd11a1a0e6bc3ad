import numpy as np
import pytest

from accbo.problems import (
    ExpUpperToy,
    GeneralQuadratic,
    IsotropicQuadratic,
    RidgeWeighting,
    make_fixture_ridge,
)


@pytest.fixture
def iso_simple():
    """g = 0.5*||y - x||^2, f = 0.5*||x||^2 + 0.5*||y||^2 (mu = 1, A = I)."""
    return IsotropicQuadratic(1.0, np.eye(2), np.zeros(2), np.zeros(2), np.zeros(2))


@pytest.fixture
def iso_1d():
    return IsotropicQuadratic(1.0, np.eye(1), np.zeros(1), np.zeros(1), np.zeros(1))


@pytest.fixture
def general_quad():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    C = np.array([[1.0, 0.0, -0.5], [0.0, 0.5, 1.0]])
    return GeneralQuadratic(H, C, b=[0.1, -0.2], c=[0.0, 0.0, 0.0], d=[0.5, 0.5])


@pytest.fixture
def ridge_toy():
    return make_fixture_ridge()


def scaled_ridge():
    """Criterion 8's ridge toy: the fixture with its validation data scaled by
    40, so the hypergradient is sensitive to lower-level tracking error."""
    base = make_fixture_ridge()
    return RidgeWeighting(
        base.Z, base.y_tr, 40.0 * base.V, 40.0 * base.y_val, 0.05,
        sigma_f1=0.1, sigma_g1=0.05,
    )


@pytest.fixture
def exp_toy():
    A = 0.5 * np.eye(2)
    return ExpUpperToy(u=[0.3, -0.2], A=A, b=[0.1, 0.0], mu=1.0, l_f0=2.0)


def analytic_instances(noise=False):
    """All four kinds with exact second derivatives, optionally with noise."""
    kw = dict(sigma_f1=0.1, sigma_g1=0.2, sigma_g2=0.1) if noise else {}
    iso = IsotropicQuadratic(
        1.0, np.array([[0.5, 0.2], [-0.1, 0.8]]), [0.1, -0.3], [1.0, 0.0],
        [0.0, 0.5], **kw,
    )
    gen = GeneralQuadratic(
        np.array([[2.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.0], [0.3, 0.5]]),
        b=[0.1, -0.2], c=[0.2, -0.1], d=[0.5, 0.5], **kw,
    )
    ridge = make_fixture_ridge(**kw)
    exp = ExpUpperToy(u=[0.3, -0.2], A=0.5 * np.eye(2), b=[0.1, 0.0], mu=1.0,
                      l_f0=2.0, **kw)
    return [iso, gen, ridge, exp]


class CountingOracles:
    """Wraps an instance, counting stochastic oracle calls by kind: the
    reference that the logs' closed-form counts are checked against."""

    def __init__(self, inst):
        self.inst = inst
        self.calls = {"g1": 0, "f": 0, "jvp": 0, "hvp": 0}

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def stoch_grad_y_g(self, x, y, stream):
        self.calls["g1"] += 1
        return self.inst.stoch_grad_y_g(x, y, stream)

    def stoch_grad_x_f(self, x, y, stream):
        self.calls["f"] += 1
        return self.inst.stoch_grad_x_f(x, y, stream)

    def stoch_grad_y_f(self, x, y, stream):
        self.calls["f"] += 1
        return self.inst.stoch_grad_y_f(x, y, stream)

    def stoch_jvp_xy_g(self, x, y, v, stream):
        self.calls["jvp"] += 1
        return self.inst.stoch_jvp_xy_g(x, y, v, stream)

    def stoch_hvp_yy_g(self, x, y, v, stream):
        self.calls["hvp"] += 1
        return self.inst.stoch_hvp_yy_g(x, y, v, stream)
