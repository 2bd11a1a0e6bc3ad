import inspect
import json
import math

import numpy as np
import pytest

from accbo.constants import ConstraintViolation
from accbo.harness import _load_instance
from accbo.optimizer import CountingOracles
from accbo.problems import (
    GeneralQuadratic,
    IsotropicQuadratic,
    instance_from_dict,
    instance_from_json,
    instance_to_json,
    make_fixture_ridge,
)
from accbo.rng import RandomStream

from conftest import analytic_instances


def fd_grad(fn, v, h=1e-5):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = h
        out[i] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return out


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def random_points(inst, n, seed=0):
    gen = RandomStream(seed).child("pts").generator()
    for _ in range(n):
        yield (gen.normal(0.0, 1.0, size=inst.dim_x),
               gen.normal(0.0, 1.0, size=inst.dim_y))


class TestExactDerivatives:
    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_gradients_match_finite_differences(self, inst):
        for x, y in random_points(inst, 5):
            assert rel_err(inst.grad_x_f(x, y),
                           fd_grad(lambda v: inst.f_value(v, y), x)) < 1e-4
            assert rel_err(inst.grad_y_f(x, y),
                           fd_grad(lambda v: inst.f_value(x, v), y)) < 1e-4
            assert rel_err(inst.grad_y_g(x, y),
                           fd_grad(lambda v: inst.g_value(x, v), y)) < 1e-4

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_second_derivatives_match_finite_differences(self, inst):
        for x, y in random_points(inst, 3, seed=1):
            H_fd = np.column_stack([
                fd_grad(lambda v: inst.grad_y_g(x, v)[j], y)
                for j in range(inst.dim_y)
            ]).T
            assert rel_err(inst.hess_yy_g(x, y), H_fd) < 1e-4
            J_fd = np.vstack([
                fd_grad(lambda v: inst.grad_y_g(v, y)[j], x)
                for j in range(inst.dim_y)
            ]).T  # (dim_x, dim_y)
            assert rel_err(inst.jac_xy_g(x, y), J_fd) < 1e-4

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_minimizer_is_stationary(self, inst):
        for x, _ in random_points(inst, 5, seed=2):
            ystar = inst.lower_minimizer(x)
            assert np.linalg.norm(inst.grad_y_g(x, ystar)) < 1e-8

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_hypergradient_matches_composed_finite_difference(self, inst):
        for x, _ in random_points(inst, 5, seed=3):
            assert rel_err(inst.true_hypergradient(x),
                           fd_grad(inst.phi_value, x)) < 1e-4

    def test_simple_instance_hypergradient_closed_form(self, iso_simple):
        # y*(x) = x, f = 0.5||x||^2 + 0.5||y||^2, so grad Phi = 2x.
        x = np.array([0.7, -1.2])
        np.testing.assert_allclose(iso_simple.true_hypergradient(x), 2.0 * x,
                                   atol=1e-14)
        assert iso_simple.phi_value(np.array([1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_constants_bound_lower_hessian_spectrum(self, inst):
        c = inst.constants
        for x, y in random_points(inst, 5, seed=4):
            eigs = np.linalg.eigvalsh(inst.hess_yy_g(x, y))
            assert eigs[0] >= c.mu - 1e-10
            assert eigs[-1] <= c.l_g1 + 1e-10

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_minimizer_lipschitz_in_x(self, inst):
        # ||y*(x1) - y*(x2)|| <= (l_g1/mu) ||x1 - x2||
        c = inst.constants
        gen = RandomStream(5).child("lip").generator()
        for _ in range(100):
            x1 = gen.normal(0.0, 1.0, size=inst.dim_x)
            x2 = gen.normal(0.0, 1.0, size=inst.dim_x)
            lhs = np.linalg.norm(inst.lower_minimizer(x1) - inst.lower_minimizer(x2))
            assert lhs <= (c.l_g1 / c.mu) * np.linalg.norm(x1 - x2) + 1e-12

    def test_quadratic_phi_min_is_global(self, general_quad):
        xstar = general_quad.argmin_phi()
        assert np.linalg.norm(general_quad.true_hypergradient(xstar)) < 1e-10
        gen = RandomStream(6).generator()
        for _ in range(20):
            x = xstar + gen.normal(0.0, 1.0, size=general_quad.dim_x)
            assert general_quad.phi_value(x) >= general_quad.phi_min() - 1e-12


class TestRidgeInstance:
    def test_lower_minimizer_matches_gradient_descent(self, ridge_toy):
        # Independent oracle: plain GD on g(x, .) to high precision.
        x = np.array([0.5, -1.0, 0.2, 0.0, 1.5, -0.3, 0.8, -0.6])
        w = np.zeros(ridge_toy.dim_y)
        lr = 1.0 / ridge_toy.constants.l_g1
        for _ in range(20_000):
            w = w - lr * ridge_toy.grad_y_g(x, w)
        np.testing.assert_allclose(w, ridge_toy.lower_minimizer(x), atol=1e-8)

    def test_fixture_is_pinned(self):
        a = make_fixture_ridge()
        b = make_fixture_ridge()
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.y_val, b.y_val)

    def test_downweighting_corrupted_samples_helps(self, ridge_toy):
        # Large negative weights on the corrupted half beat uniform weights.
        lam_good = np.array([-6.0] * 4 + [6.0] * 4)
        assert ridge_toy.phi_value(lam_good) < ridge_toy.phi_value(np.zeros(8))


class TestStochasticOracles:
    @pytest.mark.parametrize("inst", analytic_instances(noise=True),
                             ids=lambda i: i.kind)
    def test_oracles_are_unbiased(self, inst):
        x = np.full(inst.dim_x, 0.3)
        y = np.full(inst.dim_y, -0.2)
        n = 4000
        root = RandomStream(12)
        g1 = np.mean([inst.stoch_grad_y_g(x, y, root.child("a", k))
                      for k in range(n)], axis=0)
        se1 = inst.constants.sigma_g1 / math.sqrt(8.0 * inst.dim_y * n)
        np.testing.assert_allclose(g1, inst.grad_y_g(x, y),
                                   atol=4.0 * se1 * math.sqrt(inst.dim_y) + 1e-12)
        gx = np.mean([inst.stoch_grad_x_f(x, y, root.child("b", k))
                      for k in range(n)], axis=0)
        sex = inst.constants.sigma_f1 / math.sqrt(inst.dim_x * n)
        np.testing.assert_allclose(gx, inst.grad_x_f(x, y),
                                   atol=4.0 * sex * math.sqrt(inst.dim_x) + 1e-12)

    def test_lower_gradient_noise_norm_moment(self, iso_simple):
        # E||noise||^2 = sigma_g1^2 / 8 under the chosen per-entry scaling.
        inst = IsotropicQuadratic(1.0, np.eye(2), np.zeros(2), np.zeros(2),
                                  np.zeros(2), sigma_g1=0.4)
        x = np.zeros(2)
        y = np.zeros(2)
        exact = inst.grad_y_g(x, y)
        sq = [np.sum((inst.stoch_grad_y_g(x, y, RandomStream(13).child("n", k))
                      - exact) ** 2) for k in range(200_000)]
        assert np.mean(sq) == pytest.approx(0.4**2 / 8.0, rel=0.02)

    def test_lower_gradient_noise_tail(self, iso_simple):
        # P(||noise|| >= rho) <= 2 exp(-2 rho^2 / sigma^2), checked empirically.
        sigma = 0.4
        inst = IsotropicQuadratic(1.0, np.eye(2), np.zeros(2), np.zeros(2),
                                  np.zeros(2), sigma_g1=sigma)
        x = np.zeros(2)
        y = np.zeros(2)
        n = 200_000
        norms = np.array([
            np.linalg.norm(inst.stoch_grad_y_g(x, y, RandomStream(14).child("n", k)))
            for k in range(n)
        ])
        for rho in (0.1, 0.2, 0.3):
            bound = 2.0 * math.exp(-2.0 * rho**2 / sigma**2)
            emp = np.mean(norms >= rho)
            assert emp <= min(1.0, bound) + 4.0 * math.sqrt(bound / n) + 1e-12

    def test_noise_is_point_independent(self):
        # Same stream at two different points gives the same additive noise.
        inst = IsotropicQuadratic(1.0, np.eye(2), np.zeros(2), np.zeros(2),
                                  np.zeros(2), sigma_g1=0.5)
        s = RandomStream(7).child("shared")
        y1, y2 = np.array([1.0, 0.0]), np.array([-2.0, 3.0])
        x = np.zeros(2)
        n1 = inst.stoch_grad_y_g(x, y1, s) - inst.grad_y_g(x, y1)
        n2 = inst.stoch_grad_y_g(x, y2, s) - inst.grad_y_g(x, y2)
        np.testing.assert_allclose(n1, n2, atol=1e-15)

    def test_second_order_noise_vanishes_at_zero_vector(self):
        inst = IsotropicQuadratic(1.0, np.eye(2), np.zeros(2), np.zeros(2),
                                  np.zeros(2), sigma_g2=1.0)
        out = inst.stoch_hvp_yy_g(np.zeros(2), np.zeros(2), np.zeros(2),
                                  RandomStream(1))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_zero_noise_oracles_are_exact(self, general_quad):
        x = np.full(general_quad.dim_x, 0.1)
        y = np.full(general_quad.dim_y, 0.3)
        s = RandomStream(99).child("z")
        np.testing.assert_array_equal(general_quad.stoch_grad_y_g(x, y, s),
                                      general_quad.grad_y_g(x, y))
        np.testing.assert_array_equal(
            general_quad.stoch_hvp_yy_g(x, y, y, s),
            general_quad.hess_yy_g(x, y) @ y,
        )


# The oracles as each was written out before they shared one noise rule: the
# reference the shared rule is held to, bit for bit.
def _formula_grad_y_g(inst, x, y, stream):
    s = inst.constants.sigma_g1
    g = inst.grad_y_g(x, y)
    if s == 0.0:
        return g
    return g + stream.normal(inst.dim_y, s / math.sqrt(8.0 * inst.dim_y))


def _formula_grad_x_f(inst, x, y, stream):
    s = inst.constants.sigma_f1
    g = inst.grad_x_f(x, y)
    if s == 0.0:
        return g
    return g + stream.normal(inst.dim_x, s / math.sqrt(inst.dim_x))


def _formula_grad_y_f(inst, x, y, stream):
    s = inst.constants.sigma_f1
    g = inst.grad_y_f(x, y)
    if s == 0.0:
        return g
    return g + stream.normal(inst.dim_y, s / math.sqrt(inst.dim_y))


def _formula_jvp_xy_g(inst, x, y, v, stream):
    out = inst.jac_xy_g(x, y) @ v
    s = inst.constants.sigma_g2
    if s == 0.0:
        return out
    nv = float(np.linalg.norm(v))
    return out + stream.normal(inst.dim_x, s / math.sqrt(inst.dim_x)) * nv


def _formula_hvp_yy_g(inst, x, y, v, stream):
    out = inst.hess_yy_g(x, y) @ v
    s = inst.constants.sigma_g2
    if s == 0.0:
        return out
    nv = float(np.linalg.norm(v))
    return out + stream.normal(inst.dim_y, s / math.sqrt(inst.dim_y)) * nv


FORMULAS = {
    "stoch_grad_y_g": _formula_grad_y_g,
    "stoch_grad_x_f": _formula_grad_x_f,
    "stoch_grad_y_f": _formula_grad_y_f,
    "stoch_jvp_xy_g": _formula_jvp_xy_g,
    "stoch_hvp_yy_g": _formula_hvp_yy_g,
}


def all_instances():
    return analytic_instances() + analytic_instances(noise=True)


class TestOraclesMatchFormulas:
    @pytest.mark.parametrize("vector", ["zero", "nonzero"])
    @pytest.mark.parametrize("wrap", [lambda i: i, CountingOracles],
                             ids=["plain", "counting"])
    @pytest.mark.parametrize(
        "inst", all_instances(),
        ids=lambda i: f"{i.kind}-sigma{int(i.constants.sigma_g1 > 0)}")
    def test_oracles_are_bit_equal_to_their_formulas(self, inst, wrap, vector):
        oracles = wrap(inst)
        root = RandomStream(21).child("formula")
        for k, (x, y) in enumerate(random_points(inst, 3, seed=8)):
            for name, formula in FORMULAS.items():
                args = (x, y)
                if name == "stoch_jvp_xy_g":
                    args += (np.zeros(inst.dim_y) if vector == "zero" else y,)
                elif name == "stoch_hvp_yy_g":
                    args += (np.zeros(inst.dim_y) if vector == "zero" else 2.0 * y,)
                stream = root.child(name, k)
                got = getattr(oracles, name)(*args, stream)
                want = formula(inst, *args, stream)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_zero_noise_builds_no_generator(self, inst, monkeypatch):
        def refuse(self):
            raise AssertionError("a noiseless oracle built a generator")

        x, y = next(random_points(inst, 1))
        monkeypatch.setattr(RandomStream, "generator", refuse)
        for name in FORMULAS:
            args = (x, y, y) if name in ("stoch_jvp_xy_g", "stoch_hvp_yy_g") else (x, y)
            getattr(inst, name)(*args, RandomStream(0))

    @pytest.mark.parametrize("wrap", [lambda i: i, CountingOracles],
                             ids=["plain", "counting"])
    def test_isotropic_lower_exactly_where_hessian_is_mu_identity(self, wrap):
        isotropic = set()
        for inst in analytic_instances():
            mu_eye = inst.constants.mu * np.eye(inst.dim_y)
            is_mu_eye = all(np.array_equal(inst.hess_yy_g(x, y), mu_eye)
                            for x, y in random_points(inst, 3, seed=9))
            assert wrap(inst).isotropic_lower is is_mu_eye, inst.kind
            if is_mu_eye:
                isotropic.add(inst.kind)
        assert isotropic == {"isotropic_quadratic", "exp_upper_toy"}


class TestSerialization:
    @pytest.mark.parametrize("inst", analytic_instances(noise=True),
                             ids=lambda i: i.kind)
    def test_json_round_trip(self, inst):
        clone = instance_from_json(instance_to_json(inst))
        assert clone.kind == inst.kind
        assert clone.constants == inst.constants
        x = np.full(inst.dim_x, 0.25)
        np.testing.assert_allclose(clone.true_hypergradient(x),
                                   inst.true_hypergradient(x), atol=1e-14)
        s = RandomStream(3).child("rt")
        y = np.full(inst.dim_y, -0.5)
        np.testing.assert_allclose(clone.stoch_grad_y_g(x, y, s),
                                   inst.stoch_grad_y_g(x, y, s), atol=1e-15)

    @pytest.mark.parametrize("inst", analytic_instances(noise=True),
                             ids=lambda i: i.kind)
    def test_params_are_the_declared_table(self, inst):
        cls = type(inst)
        doc = inst.to_dict()
        assert list(doc["params"]) == list(cls.PARAMS)
        # The table names the constructor's parameters, noise aside, in order,
        # and which of them have a default.
        signature = inspect.signature(cls).parameters
        assert list(signature) == [*cls.PARAMS, "sigma_f1", "sigma_g1", "sigma_g2"]
        assert {name: has_default for name, (_, has_default) in cls.PARAMS.items()} \
            == {name: signature[name].default is not inspect.Parameter.empty
                for name in cls.PARAMS}
        # The document rebuilds the instance, directly and through the
        # config check, and serializes to itself.
        assert instance_from_dict(doc).to_dict() == doc
        assert _load_instance(json.loads(json.dumps(doc)), "instance").to_dict() == doc

    def test_json_is_valid_and_tagged(self, iso_simple):
        doc = json.loads(instance_to_json(iso_simple))
        assert doc["kind"] == "isotropic_quadratic"
        assert set(doc) == {"kind", "params", "noise"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintViolation):
            instance_from_dict({"kind": "bogus", "params": {}})

    def test_missing_field_rejected(self):
        with pytest.raises(ConstraintViolation):
            instance_from_dict({"params": {}})


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConstraintViolation):
            IsotropicQuadratic(1.0, np.eye(2), np.zeros(3), np.zeros(2), np.zeros(2))

    def test_nonsymmetric_hessian_rejected(self):
        with pytest.raises(ConstraintViolation):
            GeneralQuadratic([[1.0, 0.5], [0.0, 1.0]], np.eye(2),
                             b=[0, 0], c=[0, 0], d=[0, 0])

    @pytest.mark.parametrize("H, match", [
        ([[1.0, math.nan], [math.nan, 1.0]], "H must be finite"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "H must be square, got shape \\(2, 3\\)"),
    ])
    def test_malformed_hessian_named(self, H, match):
        # The rule run_tracking_experiment applies to its H too.
        with pytest.raises(ConstraintViolation, match=match):
            GeneralQuadratic(H, np.eye(2), b=[0, 0], c=[0, 0], d=[0, 0])

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(ConstraintViolation):
            GeneralQuadratic([[1.0, 0.0], [0.0, -1.0]], np.eye(2),
                             b=[0, 0], c=[0, 0], d=[0, 0])


def fresh(inst):
    """A newly built copy of inst, with nothing cached."""
    return instance_from_dict(inst.to_dict())


class TestXCache:
    XY_METHODS = ("grad_y_g", "hess_yy_g", "jac_xy_g", "g_value")
    X_METHODS = ("lower_minimizer", "true_hypergradient")

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_alternating_points_match_a_fresh_instance(self, inst):
        (xa, y), (xb, _) = random_points(inst, 2, seed=2)
        xc = xa.copy()
        xc[-1] += 0.5  # differs from xa in its last entry only
        for x in (xa, xb, xa, xc, xb):
            for name in self.XY_METHODS:
                np.testing.assert_array_equal(getattr(inst, name)(x, y),
                                              getattr(fresh(inst), name)(x, y))
            for name in self.X_METHODS:
                got = getattr(inst, name)(x)
                np.testing.assert_array_equal(got, getattr(fresh(inst), name)(x))
                # Returned arrays belong to the caller; scribbling on them
                # must not reach a later cache hit.
                got[...] = np.nan

    @pytest.mark.parametrize("inst", analytic_instances(), ids=lambda i: i.kind)
    def test_returned_curvature_is_read_only(self, inst):
        x, y = next(random_points(inst, 1))
        with pytest.raises(ValueError):
            inst.hess_yy_g(x, y)[0, 0] = 0.0


def subclassed(inst):
    """A copy of inst built as an instance of a subclass of its class, the
    way tests patch an oracle (tests/test_optimizer.py's NanAfter)."""
    cls = type("Sub" + type(inst).__name__, (type(inst),), {})
    doc = inst.to_dict()
    return cls(**doc["params"], **doc["noise"])


def stacked_points(inst, K, seed=0):
    """K points (x, y) whose rows span magnitudes 1e-6 .. 1e3; the first rows
    saturate the ridge's sigmoid (exp overflows) and the exp toy's exp (to
    inf and to 0)."""
    gen = RandomStream(seed).child("stack").generator()
    scale = 10.0 ** gen.integers(-6, 4, size=(K, 1))
    X = gen.normal(0.0, 1.0, size=(K, inst.dim_x)) * scale
    Y = gen.normal(0.0, 1.0, size=(K, inst.dim_y)) * scale
    for i, v in enumerate((800.0, -800.0, 3000.0, -3000.0)[:K]):
        X[i] = 0.0
        X[i, 0] = v
    return X, Y


class TestStackedMethodsMatchScalarCalls:
    """A stack of K points gives, row by row, the bytes of the 1-D calls."""

    X_METHODS = ("lower_minimizer", "true_hypergradient")
    XY_METHODS = ("grad_x_f", "grad_y_f", "hess_yy_g", "jac_xy_g")

    @pytest.mark.parametrize("K", [1, 2, 1025])
    @pytest.mark.parametrize("wrap", [lambda i: i, CountingOracles, subclassed],
                             ids=["plain", "counting", "subclass"])
    @pytest.mark.parametrize("inst", analytic_instances(noise=True), ids=lambda i: i.kind)
    def test_rows_are_bit_equal(self, inst, wrap, K):
        X, Y = stacked_points(inst, K)
        stacked, scalar = wrap(inst), fresh(inst)
        with np.errstate(over="ignore"):
            for name in self.X_METHODS + self.XY_METHODS:
                args = (X,) if name in self.X_METHODS else (X, Y)
                got = getattr(stacked, name)(*args)
                want = np.stack([getattr(scalar, name)(*row) for row in zip(*args)])
                assert got.shape == want.shape, name
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name

    def test_saturated_rows_are_reached(self):
        _, _, ridge, exp = analytic_instances()
        with np.errstate(over="ignore"):
            s, _ = ridge._at(stacked_points(ridge, 2)[0])
            g = exp.grad_x_f(stacked_points(exp, 4)[0], None)
        assert (s[0, 0], s[1, 0]) == (1.0, 0.0)
        assert np.isinf(g[2]).all() and not g[3].any()

    def test_a_stack_leaves_the_ridge_cache_alone(self, ridge_toy):
        x = np.linspace(-1.0, 1.0, ridge_toy.dim_x)
        ridge_toy.hess_yy_g(x, None)
        before = dict(ridge_toy._x_cache)
        # A one-row stack has the bytes of x, but it is not a cache entry.
        ridge_toy.lower_minimizer(x[None, :])
        ridge_toy.hess_yy_g(2.0 * x[None, :], None)
        assert ridge_toy._x_cache == before
