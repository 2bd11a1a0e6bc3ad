"""Synthetic bilevel instances with exact ground truth and noisy oracles.

Every instance exposes both the analytic quantities (lower-level minimizer,
composed objective value, hypergradient) and stochastic first/second order
oracles. Noise is additive and drawn from a :class:`~accbo.rng.RandomStream`
independently of the evaluation point, so two oracle calls on the same
stream path share the same sample realization — exactly the shared-sample
contract the recursive-momentum update needs.

Conventions: x has dim_x entries, y has dim_y entries; the mixed second
derivative of g is stored as a (dim_x, dim_y) matrix so the hypergradient is
grad_x f - J_xy @ H_yy^{-1} @ grad_y f.

The ridge toy computes the quantities that depend on x alone (its sigmoid
weights, H_yy(x) and y*(x)) once per upper-level point. It keeps them in a
cache of two entries keyed on the bytes of ``np.asarray(x, float)``: two,
because each outer iteration alternates between x_t and x_{t-1}. A cached
entry is bit-equal to recomputing it, its arrays are read-only, and
``lower_minimizer`` returns a copy the caller owns. The cache draws no noise,
so oracle outputs, draws and call counts are what they would be without it.
Curvature that does not depend on x (mu*I, 2*c_reg*I, the general quadratic's
H) is built once, read-only, when the instance is made.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .constants import ConstraintViolation, ProblemConstants
from .rng import RandomStream

__all__ = [
    "BilevelInstance",
    "IsotropicQuadratic",
    "GeneralQuadratic",
    "RidgeWeighting",
    "ExpUpperToy",
    "INSTANCE_KINDS",
    "instance_to_json",
    "instance_from_json",
    "make_fixture_ridge",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_vec(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ConstraintViolation(f"{name} must have shape ({dim},), got {arr.shape}")
    return arr


class BilevelInstance:
    """Base class: shared noise machinery and the generic hypergradient formula."""

    kind: str
    dim_x: int
    dim_y: int
    constants: ProblemConstants

    # -- exact quantities (subclasses implement the analytic pieces) --------

    def grad_x_f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_y_f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_y_g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_yy_g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_xy_g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mixed second derivative of g as a (dim_x, dim_y) matrix."""
        raise NotImplementedError

    def f_value(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def g_value(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def lower_minimizer(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def phi_value(self, x: np.ndarray) -> float:
        return self.f_value(x, self.lower_minimizer(x))

    def phi_min(self) -> float:
        """Minimum of the composed objective; only quadratic kinds have it."""
        raise NotImplementedError(f"{self.kind} has no closed-form minimum")

    def true_hypergradient(self, x: np.ndarray) -> np.ndarray:
        y = self.lower_minimizer(x)
        H = self.hess_yy_g(x, y)
        correction = self.jac_xy_g(x, y) @ np.linalg.solve(H, self.grad_y_f(x, y))
        return self.grad_x_f(x, y) - correction

    # -- stochastic oracles --------------------------------------------------

    def stoch_grad_y_g(self, x, y, stream: RandomStream) -> np.ndarray:
        s = self.constants.sigma_g1
        g = self.grad_y_g(x, y)
        if s == 0.0:
            return g
        # per-entry std sigma_g1/sqrt(8*dim): E||eps||^2 = sigma_g1^2/8, and the
        # norm tail satisfies the sub-Gaussian bound 2*exp(-2*rho^2/sigma_g1^2).
        return g + stream.normal(self.dim_y, s / math.sqrt(8.0 * self.dim_y))

    def stoch_grad_x_f(self, x, y, stream: RandomStream) -> np.ndarray:
        s = self.constants.sigma_f1
        g = self.grad_x_f(x, y)
        if s == 0.0:
            return g
        return g + stream.normal(self.dim_x, s / math.sqrt(self.dim_x))

    def stoch_grad_y_f(self, x, y, stream: RandomStream) -> np.ndarray:
        s = self.constants.sigma_f1
        g = self.grad_y_f(x, y)
        if s == 0.0:
            return g
        return g + stream.normal(self.dim_y, s / math.sqrt(self.dim_y))

    def stoch_jvp_xy_g(self, x, y, v, stream: RandomStream) -> np.ndarray:
        out = self.jac_xy_g(x, y) @ v
        s = self.constants.sigma_g2
        if s == 0.0:
            return out
        # Noise scales with ||v|| so the perturbation acts as an operator with
        # mean-square norm sigma_g2^2, and v = 0 maps to 0 exactly.
        nv = float(np.linalg.norm(v))
        return out + stream.normal(self.dim_x, s / math.sqrt(self.dim_x)) * nv

    def stoch_hvp_yy_g(self, x, y, v, stream: RandomStream) -> np.ndarray:
        out = self.hess_yy_g(x, y) @ v
        s = self.constants.sigma_g2
        if s == 0.0:
            return out
        nv = float(np.linalg.norm(v))
        return out + stream.normal(self.dim_y, s / math.sqrt(self.dim_y)) * nv

    # -- serialization ---------------------------------------------------------

    def _params(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        noise = {
            "sigma_f1": self.constants.sigma_f1,
            "sigma_g1": self.constants.sigma_g1,
            "sigma_g2": self.constants.sigma_g2,
        }
        return {"kind": self.kind, "params": self._params(), "noise": noise}


class IsotropicQuadratic(BilevelInstance):
    """Lower level (mu/2)*||y - A x - b||^2; quadratic upper level.

    f(x, y) = 0.5*||x - c||^2 + 0.5*||y - d||^2, so y*(x) = A x + b and every
    derivative is closed form. The lower-level Hessian is exactly mu*I, which
    Option I requires.
    """

    kind = "isotropic_quadratic"

    def __init__(self, mu, A, b, c, d, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        if mu <= 0:
            raise ConstraintViolation(f"mu must be positive, got {mu!r}")
        self.mu = float(mu)
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.dim_y, self.dim_x = self.A.shape
        self.b = _as_vec(b, self.dim_y, "b")
        self.c = _as_vec(c, self.dim_x, "c")
        self.d = _as_vec(d, self.dim_y, "d")
        self._hess = _read_only(self.mu * np.eye(self.dim_y))
        op_A = float(np.linalg.norm(self.A, 2)) if self.A.size else 0.0
        self.constants = ProblemConstants(
            mu=self.mu,
            l_g1=self.mu * max(1.0, op_A),
            l_g2=0.0,
            l_f0=float(l_f0),
            Lx0=1.0,
            Ly0=1.0,
            sigma_f1=float(sigma_f1),
            sigma_g1=float(sigma_g1),
            sigma_g2=float(sigma_g2),
        )

    def _residual(self, x, y):
        return y - self.A @ x - self.b

    def f_value(self, x, y):
        return 0.5 * float(np.sum((x - self.c) ** 2) + np.sum((y - self.d) ** 2))

    def g_value(self, x, y):
        return 0.5 * self.mu * float(np.sum(self._residual(x, y) ** 2))

    def grad_x_f(self, x, y):
        return x - self.c

    def grad_y_f(self, x, y):
        return y - self.d

    def grad_y_g(self, x, y):
        return self.mu * self._residual(x, y)

    def hess_yy_g(self, x, y):
        return self._hess

    def jac_xy_g(self, x, y):
        return -self.mu * self.A.T

    def lower_minimizer(self, x):
        return self.A @ x + self.b

    def true_hypergradient(self, x):
        ystar = self.lower_minimizer(x)
        return (x - self.c) + self.A.T @ (ystar - self.d)

    def argmin_phi(self) -> np.ndarray:
        lhs = np.eye(self.dim_x) + self.A.T @ self.A
        rhs = self.c + self.A.T @ (self.d - self.b)
        return np.linalg.solve(lhs, rhs)

    def phi_min(self) -> float:
        return self.phi_value(self.argmin_phi())

    def _params(self):
        return {
            "mu": self.mu,
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
            "d": self.d.tolist(),
            "l_f0": self.constants.l_f0,
        }


class GeneralQuadratic(BilevelInstance):
    """Anisotropic strongly convex lower level g = 0.5*y'Hy - y'(Cx + b)."""

    kind = "general_quadratic"

    def __init__(self, H, C, b, c, d, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        # A read-only copy: hess_yy_g hands it out, and the constants rest on it.
        self.H = _read_only(np.array(H, dtype=float, ndmin=2))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.dim_y = self.H.shape[0]
        self.dim_x = self.C.shape[1]
        if self.H.shape != (self.dim_y, self.dim_y):
            raise ConstraintViolation("H must be square")
        if self.C.shape[0] != self.dim_y:
            raise ConstraintViolation("C row count must match H")
        if not np.allclose(self.H, self.H.T):
            raise ConstraintViolation("H must be symmetric")
        eigs = np.linalg.eigvalsh(self.H)
        if eigs[0] <= 0:
            raise ConstraintViolation("H must be positive definite")
        self.b = _as_vec(b, self.dim_y, "b")
        self.c = _as_vec(c, self.dim_x, "c")
        self.d = _as_vec(d, self.dim_y, "d")
        # Joint lower-level Hessian is [[0, C'], [C, H]]; its operator norm
        # upper-bounds the smoothness constant of g in (x, y).
        joint = np.block([
            [np.zeros((self.dim_x, self.dim_x)), -self.C.T],
            [-self.C, self.H],
        ])
        l_g1 = max(float(eigs[-1]), float(np.linalg.norm(joint, 2)))
        self.constants = ProblemConstants(
            mu=float(eigs[0]),
            l_g1=l_g1,
            l_g2=0.0,
            l_f0=float(l_f0),
            Lx0=1.0,
            Ly0=1.0,
            sigma_f1=float(sigma_f1),
            sigma_g1=float(sigma_g1),
            sigma_g2=float(sigma_g2),
        )

    def f_value(self, x, y):
        return 0.5 * float(np.sum((x - self.c) ** 2) + np.sum((y - self.d) ** 2))

    def g_value(self, x, y):
        return float(0.5 * y @ self.H @ y - y @ (self.C @ x + self.b))

    def grad_x_f(self, x, y):
        return x - self.c

    def grad_y_f(self, x, y):
        return y - self.d

    def grad_y_g(self, x, y):
        return self.H @ y - self.C @ x - self.b

    def hess_yy_g(self, x, y):
        return self.H

    def jac_xy_g(self, x, y):
        return -self.C.T

    def lower_minimizer(self, x):
        return np.linalg.solve(self.H, self.C @ x + self.b)

    def argmin_phi(self) -> np.ndarray:
        M = np.linalg.solve(self.H, self.C)
        hb = np.linalg.solve(self.H, self.b)
        lhs = np.eye(self.dim_x) + M.T @ M
        rhs = self.c + M.T @ (self.d - hb)
        return np.linalg.solve(lhs, rhs)

    def phi_min(self) -> float:
        return self.phi_value(self.argmin_phi())

    def _params(self):
        return {
            "H": self.H.tolist(),
            "C": self.C.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
            "d": self.d.tolist(),
            "l_f0": self.constants.l_f0,
        }


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-t))


class RidgeWeighting(BilevelInstance):
    """Data-reweighting toy: upper variable weighs training samples via a sigmoid.

    Lower level: (1/n_tr) sum_i sigmoid(lam_i) * 0.5*(w . z_i - y_i)^2 + c_reg*||w||^2,
    quadratic in w with Hessian bounded below by 2*c_reg*I, so y*(lam) is a
    linear solve. Upper level: mean squared validation loss at w, independent
    of lam directly.
    """

    kind = "ridge_weighting"

    def __init__(self, Z, y_tr, V, y_val, c_reg, *, w_radius=2.0, sigma_f1=0.0,
                 sigma_g1=0.0, sigma_g2=0.0):
        self.Z = np.atleast_2d(np.asarray(Z, dtype=float))
        self.V = np.atleast_2d(np.asarray(V, dtype=float))
        self.n_tr, dim_w = self.Z.shape
        self.n_val = self.V.shape[0]
        if self.V.shape[1] != dim_w:
            raise ConstraintViolation("train/validation feature dims differ")
        self.y_tr = _as_vec(y_tr, self.n_tr, "y_tr")
        self.y_val = _as_vec(y_val, self.n_val, "y_val")
        if c_reg <= 0:
            raise ConstraintViolation(f"c_reg must be positive, got {c_reg!r}")
        self.c_reg = float(c_reg)
        self.dim_x = self.n_tr
        self.dim_y = dim_w
        self._reg = _read_only(2.0 * self.c_reg * np.eye(self.dim_y))
        self._x_cache = {}

        zz_max = float(np.linalg.eigvalsh(self.Z.T @ self.Z / self.n_tr)[-1])
        vv_max = float(np.linalg.eigvalsh(self.V.T @ self.V / self.n_val)[-1])
        row_norms = np.linalg.norm(self.Z, axis=1)
        # Conservative curvature-Lipschitz and gradient bounds on the ball
        # ||w|| <= w_radius; recorded once, used only by constant calculators.
        res_bound = row_norms * w_radius + np.abs(self.y_tr)
        l_g2 = float(np.max(
            0.25 * row_norms**2 / self.n_tr
            + row_norms * (row_norms + res_bound) / (4.0 * self.n_tr)
        ))
        l_f0 = float(
            np.linalg.norm(self.V, 2)
            * (np.linalg.norm(self.V, 2) * w_radius + np.linalg.norm(self.y_val))
            / self.n_val
        )
        self.constants = ProblemConstants(
            mu=2.0 * self.c_reg,
            l_g1=max(zz_max + 2.0 * self.c_reg, 2.0 * self.c_reg),
            l_g2=l_g2,
            l_f0=l_f0,
            Lx0=0.0,
            Ly0=vv_max,
            sigma_f1=float(sigma_f1),
            sigma_g1=float(sigma_g1),
            sigma_g2=float(sigma_g2),
        )
        self._w_radius = float(w_radius)

    def f_value(self, x, y):
        return 0.5 * float(np.mean((self.V @ y - self.y_val) ** 2))

    def g_value(self, x, y):
        s = self._at(x)["s"]
        r = self.Z @ y - self.y_tr
        return float(np.mean(s * 0.5 * r**2) + self.c_reg * np.sum(y**2))

    def grad_x_f(self, x, y):
        return np.zeros(self.dim_x)

    def grad_y_f(self, x, y):
        return self.V.T @ (self.V @ y - self.y_val) / self.n_val

    def grad_y_g(self, x, y):
        s = self._at(x)["s"]
        r = self.Z @ y - self.y_tr
        return self.Z.T @ (s * r) / self.n_tr + 2.0 * self.c_reg * y

    def hess_yy_g(self, x, y):
        return self._at(x)["H"]

    def jac_xy_g(self, x, y):
        s = self._at(x)["s"]
        r = self.Z @ y - self.y_tr
        # Row i is d(grad_w g)/d lam_i = sigmoid'(lam_i) * r_i * z_i / n_tr.
        return (s * (1.0 - s) * r)[:, None] * self.Z / self.n_tr

    def _at(self, x) -> dict:
        """Read-only sigmoid weights, H_yy(x) and y*(x), cached on x's bytes."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        terms = self._x_cache.get(key)
        if terms is None:
            if len(self._x_cache) == 2:
                del self._x_cache[next(iter(self._x_cache))]  # the older point
            s = _sigmoid(x)
            H = (self.Z.T * s) @ self.Z / self.n_tr + self._reg
            rhs = self.Z.T @ (s * self.y_tr) / self.n_tr
            terms = self._x_cache[key] = {
                "s": _read_only(s),
                "H": _read_only(H),
                "ystar": _read_only(np.linalg.solve(H, rhs)),
            }
        return terms

    def lower_minimizer(self, x):
        return self._at(x)["ystar"].copy()

    def _params(self):
        return {
            "Z": self.Z.tolist(),
            "y_tr": self.y_tr.tolist(),
            "V": self.V.tolist(),
            "y_val": self.y_val.tolist(),
            "c_reg": self.c_reg,
            "w_radius": self._w_radius,
        }


class ExpUpperToy(BilevelInstance):
    """Exercises the unbounded-smoothness path: f(x,y) = exp(x.u) + 0.5*||y||^2."""

    kind = "exp_upper_toy"

    def __init__(self, u, A, b, mu=1.0, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        self.u = np.asarray(u, dtype=float)
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.dim_y, self.dim_x = self.A.shape
        if self.u.shape != (self.dim_x,):
            raise ConstraintViolation("u must have dim_x entries")
        self.b = _as_vec(b, self.dim_y, "b")
        if mu <= 0:
            raise ConstraintViolation(f"mu must be positive, got {mu!r}")
        self.mu = float(mu)
        self._hess = _read_only(self.mu * np.eye(self.dim_y))
        op_A = float(np.linalg.norm(self.A, 2)) if self.A.size else 0.0
        self.constants = ProblemConstants(
            mu=self.mu,
            l_g1=self.mu * max(1.0, op_A),
            l_g2=0.0,
            l_f0=float(l_f0),
            Lx0=0.0,
            Lx1=float(np.linalg.norm(self.u)),
            Ly0=1.0,
            sigma_f1=float(sigma_f1),
            sigma_g1=float(sigma_g1),
            sigma_g2=float(sigma_g2),
        )

    def f_value(self, x, y):
        return float(np.exp(x @ self.u) + 0.5 * np.sum(y**2))

    def g_value(self, x, y):
        r = y - self.A @ x - self.b
        return 0.5 * self.mu * float(np.sum(r**2))

    def grad_x_f(self, x, y):
        return float(np.exp(x @ self.u)) * self.u

    def grad_y_f(self, x, y):
        return np.asarray(y, dtype=float)

    def grad_y_g(self, x, y):
        return self.mu * (y - self.A @ x - self.b)

    def hess_yy_g(self, x, y):
        return self._hess

    def jac_xy_g(self, x, y):
        return -self.mu * self.A.T

    def lower_minimizer(self, x):
        return self.A @ x + self.b

    def true_hypergradient(self, x):
        return self.grad_x_f(x, None) + self.A.T @ (self.A @ x + self.b)

    def _params(self):
        return {
            "u": self.u.tolist(),
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "mu": self.mu,
            "l_f0": self.constants.l_f0,
        }


INSTANCE_KINDS = {
    cls.kind: cls
    for cls in (IsotropicQuadratic, GeneralQuadratic, RidgeWeighting, ExpUpperToy)
}


def instance_from_dict(doc: dict) -> BilevelInstance:
    try:
        kind = doc["kind"]
        params = dict(doc["params"])
    except KeyError as exc:
        raise ConstraintViolation(f"instance document missing field {exc}") from exc
    if kind not in INSTANCE_KINDS:
        raise ConstraintViolation(f"unknown instance kind {kind!r}")
    params.update(doc.get("noise", {}))
    return INSTANCE_KINDS[kind](**params)


def instance_to_json(inst: BilevelInstance, indent: int = 2) -> str:
    return json.dumps(inst.to_dict(), indent=indent)


def instance_from_json(text: str) -> BilevelInstance:
    return instance_from_dict(json.loads(text))


def make_fixture_ridge(seed: int = 20240817, *, c_reg=0.25, sigma_f1=0.0,
                       sigma_g1=0.0, sigma_g2=0.0) -> RidgeWeighting:
    """Fixed 8-train / 4-validation synthetic regression set.

    Regenerated from a pinned seed instead of shipping a data file; the
    weights of half the training points are corrupted so reweighting helps.
    """
    rng = RandomStream(seed).child("ridge-data").generator()
    dim_w = 3
    w_true = np.array([1.0, -0.5, 0.25])
    Z = rng.normal(0.0, 1.0, size=(8, dim_w))
    y_tr = Z @ w_true
    y_tr[:4] += rng.normal(0.0, 2.0, size=4)  # corrupted half
    V = rng.normal(0.0, 1.0, size=(4, dim_w))
    y_val = V @ w_true
    return RidgeWeighting(
        Z, y_tr, V, y_val, c_reg,
        sigma_f1=sigma_f1, sigma_g1=sigma_g1, sigma_g2=sigma_g2,
    )
