"""Synthetic bilevel instances with exact ground truth and noisy oracles.

Every instance exposes both the analytic quantities (lower-level minimizer,
composed objective value, hypergradient) and stochastic first/second order
oracles. Noise is additive and drawn from a :class:`~accbo.rng.RandomStream`
independently of the evaluation point, so two oracle calls on the same
stream path share the same sample realization — exactly the shared-sample
contract the recursive-momentum update needs.

Every stochastic oracle adds its noise by one rule, ``BilevelInstance._noisy``.
``IsotropicQuadratic`` and ``ExpUpperToy`` share one lower level (the private
``_IsotropicLower``) whose Hessian is exactly mu*I; they declare
``isotropic_lower = True``, and option one of the optimizer runs only on them.
``IsotropicQuadratic`` and ``GeneralQuadratic`` share one upper level (the
private ``_QuadraticUpper``).

Each kind declares its constructor parameters, noise aside, once, in its
``PARAMS`` table, a scalar with its domain (the noise scales have theirs in
``NOISE``): each constructor checks its scalars against them before any cast,
``to_dict`` reads them back, and ``accbo.harness`` checks an instance
document against them. Array shapes are the constructors' check.

Conventions: x has dim_x entries, y has dim_y entries; the mixed second
derivative of g is stored as a (dim_x, dim_y) matrix so the hypergradient is
grad_x f - J_xy @ H_yy^{-1} @ grad_y f.

``lower_minimizer``, ``true_hypergradient`` and the exact pieces they call
(``grad_x_f``, ``grad_y_f``, ``hess_yy_g``, ``jac_xy_g``) also take a stack
of points, x of shape (K, dim_x) (and y of shape (K, dim_y)), and return one
row per point, each bit-equal to the call on that row alone: products are
stacked so that every row is the same BLAS gemv, dot or LAPACK solve as the
1-D call. The optimizer's diagnostics use this to evaluate a block of
iterations at once, after the iterations have run. A 1-D x takes the 1-D
code path.

The ridge toy computes the quantities that depend on x alone (its sigmoid
weights s and H_yy(x)) once per upper-level point. It keeps them in a cache
of two entries keyed on the bytes of a 1-D ``np.asarray(x, float)``: two,
because each outer iteration alternates between x_t and x_{t-1}. y*(x) is
not cached: only the diagnostics read it, and they run outside the loop. A
cached entry is bit-equal to recomputing it and its arrays are read-only.
The cache draws no noise, so oracle outputs, draws and call counts are what
they would be without it. Curvature that does not depend on x (mu*I,
2*c_reg*I, the general quadratic's H) is built once, read-only, when the
instance is made.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import NONNEGATIVE, POSITIVE, ConstraintViolation, ProblemConstants, check_domains
from .rng import RandomStream

__all__ = [
    "BilevelInstance",
    "IsotropicQuadratic",
    "GeneralQuadratic",
    "RidgeWeighting",
    "ExpUpperToy",
    "INSTANCE_KINDS",
    "ARRAY",
    "NOISE",
    "make_fixture_ridge",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _is_stack(v) -> bool:
    """True for a stack of points (batch axes first), False for one point."""
    return getattr(v, "ndim", 1) > 1


def _stacked(M: np.ndarray, x) -> np.ndarray:
    """M for one point; M broadcast (read-only) over the batch axes of a stack."""
    return np.broadcast_to(M, x.shape[:-1] + M.shape) if _is_stack(x) else M


def _mv(M, v):
    """M @ v for one vector or row by row for a stack: each row is one gemv,
    as in the 1-D product, so rows are bit-equal to it."""
    if not _is_stack(v):
        return M @ v
    return (M @ v[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each one BLAS dot as in the 1-D
    ``np.dot``; ``a @ b`` over a stack is a gemv and rounds differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _solve(H, rhs):
    """np.linalg.solve(H, rhs) for one vector or row by row for a stack
    (numpy 2 reads a 2-D rhs as a matrix, not as a stack of vectors)."""
    if not _is_stack(rhs):
        return np.linalg.solve(H, rhs)
    return np.linalg.solve(H, rhs[..., None])[..., 0]


def _as_vec(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ConstraintViolation(f"{name} must have shape ({dim},), got {arr.shape}")
    return arr


def _symmetric_matrix(M, name: str) -> np.ndarray:
    """M as a new float64 array, refused unless square, finite and symmetric."""
    arr = np.array(M, dtype=float, ndmin=2)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConstraintViolation(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConstraintViolation(f"{name} must be finite")
    if not np.allclose(arr, arr.T):
        raise ConstraintViolation(f"{name} must be symmetric")
    return arr


# The PARAMS entry of an array parameter, in place of a scalar domain: a
# finite number or a nested list of them, whose shape the constructor checks.
ARRAY = "array"
# Each noise keyword of a constructor, with its domain.
NOISE = dict.fromkeys(("sigma_f1", "sigma_g1", "sigma_g2"), NONNEGATIVE)


class BilevelInstance:
    """Base class: shared noise machinery and the generic hypergradient formula."""

    kind: str
    # Each constructor parameter, noise aside, in order: name -> (its domain,
    # or ARRAY; whether the constructor has a default). l_f0 is read back
    # from the constants, every other parameter from the attribute of its name.
    PARAMS: dict
    dim_x: int
    dim_y: int
    constants: ProblemConstants
    # True when hess_yy_g is exactly mu*I, the lower level that option one's
    # single Nesterov step per outer iteration can track.
    isotropic_lower = False

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

    def argmin_phi(self) -> np.ndarray:
        """Minimizer of the composed objective; only quadratic kinds have it."""
        raise NotImplementedError(f"{self.kind} has no closed-form minimum")

    def phi_min(self) -> float:
        """Minimum of the composed objective; only quadratic kinds have it."""
        return self.phi_value(self.argmin_phi())

    def true_hypergradient(self, x: np.ndarray) -> np.ndarray:
        y = self.lower_minimizer(x)
        H = self.hess_yy_g(x, y)
        correction = _mv(self.jac_xy_g(x, y), _solve(H, self.grad_y_f(x, y)))
        return self.grad_x_f(x, y) - correction

    # -- stochastic oracles --------------------------------------------------

    def _noisy(self, exact, sigma: float, dim: int, stream: RandomStream,
               spread: float = 1.0, v=None) -> np.ndarray:
        """exact plus dim entries of N(0, sigma^2/(spread*dim)) noise drawn
        from stream, scaled by ||v|| when v is given; exact as it is, with
        nothing drawn, when sigma is 0."""
        if sigma == 0.0:
            return exact
        noise = stream.normal(dim, sigma / math.sqrt(spread * dim))
        if v is not None:
            # Noise scales with ||v|| so the perturbation acts as an operator
            # with mean-square norm sigma_g2^2, and v = 0 maps to 0 exactly.
            noise = noise * float(np.linalg.norm(v))
        return exact + noise

    def stoch_grad_y_g(self, x, y, stream: RandomStream) -> np.ndarray:
        # per-entry std sigma_g1/sqrt(8*dim): E||eps||^2 = sigma_g1^2/8, and the
        # norm tail satisfies the sub-Gaussian bound 2*exp(-2*rho^2/sigma_g1^2).
        return self._noisy(self.grad_y_g(x, y), self.constants.sigma_g1, self.dim_y,
                           stream, spread=8.0)

    def stoch_grad_x_f(self, x, y, stream: RandomStream) -> np.ndarray:
        return self._noisy(self.grad_x_f(x, y), self.constants.sigma_f1, self.dim_x,
                           stream)

    def stoch_grad_y_f(self, x, y, stream: RandomStream) -> np.ndarray:
        return self._noisy(self.grad_y_f(x, y), self.constants.sigma_f1, self.dim_y,
                           stream)

    def stoch_jvp_xy_g(self, x, y, v, stream: RandomStream) -> np.ndarray:
        return self._noisy(self.jac_xy_g(x, y) @ v, self.constants.sigma_g2,
                           self.dim_x, stream, v=v)

    def stoch_hvp_yy_g(self, x, y, v, stream: RandomStream) -> np.ndarray:
        return self._noisy(self.hess_yy_g(x, y) @ v, self.constants.sigma_g2,
                           self.dim_y, stream, v=v)

    # -- construction and serialization -----------------------------------------

    def _checked_noise(self, args: dict) -> dict:
        """The noise scales among a constructor's arguments, as floats, once
        every scalar argument of PARAMS or NOISE is found in its domain."""
        check_domains(args, {**{name: domain for name, (domain, _) in self.PARAMS.items()
                                if domain is not ARRAY}, **NOISE})
        return {name: float(args[name]) for name in NOISE}

    def to_dict(self) -> dict:
        params = {}
        for name, (domain, _) in self.PARAMS.items():
            v = getattr(self.constants if name == "l_f0" else self, name)
            params[name] = v.tolist() if domain is ARRAY else v
        noise = {name: getattr(self.constants, name) for name in NOISE}
        return {"kind": self.kind, "params": params, "noise": noise}


class _IsotropicLower(BilevelInstance):
    """Lower level g(x, y) = (mu/2)*||y - A x - b||^2, so y*(x) = A x + b and
    the lower-level Hessian is exactly mu*I, which option one requires.

    Subclasses add the upper level and pass its constants (l_f0, Lx0, Lx1,
    Ly0) and their checked noise scales through to ProblemConstants.
    """

    isotropic_lower = True

    def __init__(self, mu, A, b, noise: dict, **upper):
        self.mu = float(mu)
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.dim_y, self.dim_x = self.A.shape
        self.b = _as_vec(b, self.dim_y, "b")
        self._hess = _read_only(self.mu * np.eye(self.dim_y))
        op_A = float(np.linalg.norm(self.A, 2)) if self.A.size else 0.0
        self.constants = ProblemConstants(
            mu=self.mu,
            l_g1=self.mu * max(1.0, op_A),
            l_g2=0.0,
            **noise,
            **upper,
        )

    def g_value(self, x, y):
        return 0.5 * self.mu * float(np.sum((y - self.A @ x - self.b) ** 2))

    def grad_y_g(self, x, y):
        return self.mu * (y - self.A @ x - self.b)

    def hess_yy_g(self, x, y):
        return _stacked(self._hess, x)

    def jac_xy_g(self, x, y):
        return _stacked(-self.mu * self.A.T, x)

    def lower_minimizer(self, x):
        return _mv(self.A, x) + self.b


class _QuadraticUpper(BilevelInstance):
    """Upper level f(x, y) = 0.5*||x - c||^2 + 0.5*||y - d||^2, so every
    derivative is closed form."""

    def _targets(self, c, d) -> None:
        self.c = _as_vec(c, self.dim_x, "c")
        self.d = _as_vec(d, self.dim_y, "d")

    def f_value(self, x, y):
        return 0.5 * float(np.sum((x - self.c) ** 2) + np.sum((y - self.d) ** 2))

    def grad_x_f(self, x, y):
        return x - self.c

    def grad_y_f(self, x, y):
        return y - self.d

    def _argmin_phi(self, M: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The minimizer of the composed objective when y*(x) = M x + h: the
        solution of (I + M'M) x = c + M'(d - h)."""
        lhs = np.eye(self.dim_x) + M.T @ M
        rhs = self.c + M.T @ (self.d - h)
        return np.linalg.solve(lhs, rhs)


class IsotropicQuadratic(_IsotropicLower, _QuadraticUpper):
    """Isotropic lower level with the quadratic upper level."""

    kind = "isotropic_quadratic"
    PARAMS = {"mu": (POSITIVE, False), "A": (ARRAY, False), "b": (ARRAY, False),
              "c": (ARRAY, False), "d": (ARRAY, False), "l_f0": (NONNEGATIVE, True)}

    def __init__(self, mu, A, b, c, d, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        noise = self._checked_noise(locals())
        super().__init__(mu, A, b, noise, l_f0=float(l_f0), Lx0=1.0, Ly0=1.0)
        self._targets(c, d)

    def true_hypergradient(self, x):
        ystar = self.lower_minimizer(x)
        return (x - self.c) + _mv(self.A.T, ystar - self.d)

    def argmin_phi(self) -> np.ndarray:
        return self._argmin_phi(self.A, self.b)


class GeneralQuadratic(_QuadraticUpper):
    """Anisotropic strongly convex lower level g = 0.5*y'Hy - y'(Cx + b) with
    the quadratic upper level."""

    kind = "general_quadratic"
    PARAMS = {"H": (ARRAY, False), "C": (ARRAY, False), "b": (ARRAY, False),
              "c": (ARRAY, False), "d": (ARRAY, False), "l_f0": (NONNEGATIVE, True)}

    def __init__(self, H, C, b, c, d, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        noise = self._checked_noise(locals())
        # A read-only copy: hess_yy_g hands it out, and the constants rest on it.
        self.H = _read_only(_symmetric_matrix(H, "H"))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.dim_y = self.H.shape[0]
        self.dim_x = self.C.shape[1]
        if self.C.shape[0] != self.dim_y:
            raise ConstraintViolation("C row count must match H")
        eigs = np.linalg.eigvalsh(self.H)
        if eigs[0] <= 0:
            raise ConstraintViolation("H must be positive definite")
        self.b = _as_vec(b, self.dim_y, "b")
        self._targets(c, d)
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
            **noise,
        )

    def g_value(self, x, y):
        return float(0.5 * y @ self.H @ y - y @ (self.C @ x + self.b))

    def grad_y_g(self, x, y):
        return self.H @ y - self.C @ x - self.b

    def hess_yy_g(self, x, y):
        return _stacked(self.H, x)

    def jac_xy_g(self, x, y):
        return _stacked(-self.C.T, x)

    def lower_minimizer(self, x):
        return _solve(self.H, _mv(self.C, x) + self.b)

    def argmin_phi(self) -> np.ndarray:
        return self._argmin_phi(np.linalg.solve(self.H, self.C),
                                np.linalg.solve(self.H, self.b))


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
    PARAMS = {"Z": (ARRAY, False), "y_tr": (ARRAY, False), "V": (ARRAY, False),
              "y_val": (ARRAY, False), "c_reg": (POSITIVE, False),
              "w_radius": (POSITIVE, True)}

    def __init__(self, Z, y_tr, V, y_val, c_reg, *, w_radius=2.0, sigma_f1=0.0,
                 sigma_g1=0.0, sigma_g2=0.0):
        noise = self._checked_noise(locals())
        self.Z = np.atleast_2d(np.asarray(Z, dtype=float))
        self.V = np.atleast_2d(np.asarray(V, dtype=float))
        self.n_tr, dim_w = self.Z.shape
        self.n_val = self.V.shape[0]
        if self.V.shape[1] != dim_w:
            raise ConstraintViolation("train/validation feature dims differ")
        self.y_tr = _as_vec(y_tr, self.n_tr, "y_tr")
        self.y_val = _as_vec(y_val, self.n_val, "y_val")
        self.c_reg = float(c_reg)
        self.dim_x = self.n_tr
        self.dim_y = dim_w
        self._reg = _read_only(2.0 * self.c_reg * np.eye(self.dim_y))
        self._x_cache = {}

        # The curvature-Lipschitz and gradient bounds are conservative, on the
        # ball ||w|| <= w_radius; recorded once, used only by constant
        # calculators. A constant that overflows is refused by ProblemConstants.
        with np.errstate(over="ignore", invalid="ignore"):
            zz_max = float(np.linalg.eigvalsh(self.Z.T @ self.Z / self.n_tr)[-1])
            vv_max = float(np.linalg.eigvalsh(self.V.T @ self.V / self.n_val)[-1])
            row_norms = np.linalg.norm(self.Z, axis=1)
            res_bound = row_norms * w_radius + np.abs(self.y_tr)
            l_g2 = float(np.max(0.25 * row_norms**2 / self.n_tr
                                + row_norms * (row_norms + res_bound) / (4.0 * self.n_tr)))
            l_f0 = float(np.linalg.norm(self.V, 2)
                         * (np.linalg.norm(self.V, 2) * w_radius + np.linalg.norm(self.y_val))
                         / self.n_val)
        self.constants = ProblemConstants(
            mu=2.0 * self.c_reg,
            l_g1=max(zz_max + 2.0 * self.c_reg, 2.0 * self.c_reg),
            l_g2=l_g2,
            l_f0=l_f0,
            Lx0=0.0,
            Ly0=vv_max,
            **noise,
        )
        self.w_radius = float(w_radius)

    def f_value(self, x, y):
        return 0.5 * float(np.mean((self.V @ y - self.y_val) ** 2))

    def g_value(self, x, y):
        s, _ = self._at(x)
        r = self.Z @ y - self.y_tr
        return float(np.mean(s * 0.5 * r**2) + self.c_reg * np.sum(y**2))

    def grad_x_f(self, x, y):
        return np.zeros(x.shape) if _is_stack(x) else np.zeros(self.dim_x)

    def grad_y_f(self, x, y):
        return _mv(self.V.T, _mv(self.V, y) - self.y_val) / self.n_val

    def grad_y_g(self, x, y):
        s, _ = self._at(x)
        r = self.Z @ y - self.y_tr
        return self.Z.T @ (s * r) / self.n_tr + 2.0 * self.c_reg * y

    def hess_yy_g(self, x, y):
        return self._at(x)[1]

    def jac_xy_g(self, x, y):
        s, _ = self._at(x)
        r = _mv(self.Z, y) - self.y_tr
        # Row i is d(grad_w g)/d lam_i = sigmoid'(lam_i) * r_i * z_i / n_tr.
        return (s * (1.0 - s) * r)[..., :, None] * self.Z / self.n_tr

    def _at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Sigmoid weights s and H_yy(x): for one point read-only and cached
        on x's bytes, for a stack computed afresh, one row per point."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return self._weights(x)
        key = x.tobytes()
        terms = self._x_cache.get(key)
        if terms is None:
            if len(self._x_cache) == 2:
                del self._x_cache[next(iter(self._x_cache))]  # the older point
            s, H = self._weights(x)
            terms = self._x_cache[key] = (_read_only(s), _read_only(H))
        return terms

    def _weights(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = _sigmoid(x)
        return s, (self.Z.T * s[..., None, :]) @ self.Z / self.n_tr + self._reg

    def lower_minimizer(self, x):
        s, H = self._at(x)
        return _solve(H, _mv(self.Z.T, s * self.y_tr) / self.n_tr)


class ExpUpperToy(_IsotropicLower):
    """Exercises the unbounded-smoothness path: f(x,y) = exp(x.u) + 0.5*||y||^2
    over the isotropic lower level."""

    kind = "exp_upper_toy"
    PARAMS = {"u": (ARRAY, False), "A": (ARRAY, False), "b": (ARRAY, False),
              "mu": (POSITIVE, True), "l_f0": (NONNEGATIVE, True)}

    def __init__(self, u, A, b, mu=1.0, *, l_f0=1.0, sigma_f1=0.0, sigma_g1=0.0,
                 sigma_g2=0.0):
        noise = self._checked_noise(locals())
        self.u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Lx1 is refused
            Lx1 = float(np.linalg.norm(self.u))
        super().__init__(mu, A, b, noise, l_f0=float(l_f0), Lx0=0.0, Lx1=Lx1, Ly0=1.0)
        if self.u.shape != (self.dim_x,):
            raise ConstraintViolation("u must have dim_x entries")

    def f_value(self, x, y):
        return float(np.exp(x @ self.u) + 0.5 * np.sum(y**2))

    def grad_x_f(self, x, y):
        if _is_stack(x):
            return np.exp(_dot(x, self.u))[..., None] * self.u
        return float(np.exp(x @ self.u)) * self.u

    def grad_y_f(self, x, y):
        return np.asarray(y, dtype=float)

    def true_hypergradient(self, x):
        return self.grad_x_f(x, None) + _mv(self.A.T, _mv(self.A, x) + self.b)


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
