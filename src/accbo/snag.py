"""Stochastic Nesterov accelerated gradient under drifting minimizers.

Implements the two-line recursion (extrapolate, then gradient step at the
extrapolated point), the rank-1 potential that certifies tracking, the
high-probability tracking bounds with and without drift, and Monte-Carlo
verification over seeded runs.

The Monte-Carlo kernel ``mc_tracking_grid`` carries every (cell, seed) row
of a grid of cells in one SNAG state. Seed k of every cell reads the same
two unit tapes, drawn once from the sub-streams "noise" and "drift" of
(base_seed, "mc", k); each cell scales them to its own sigma and drift
size step by step, so memory holds one unit tape per source, not one tape
per cell. ``run_tracking_experiment`` is the scalar reference: seed k of a
cell is that run on stream (base_seed, "mc", k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .constants import ConstraintViolation, nesterov_momentum
from .rng import RandomStream

__all__ = [
    "NumericalAbort",
    "SnagState",
    "DriftProcess",
    "TrackingBoundParams",
    "snag_step",
    "potential",
    "tracking_bound_with_drift",
    "tracking_bound_no_drift",
    "QuadraticFamily",
    "run_tracking_experiment",
    "mc_tracking_grid",
    "mc_tracking_violation_rate",
]


class NumericalAbort(RuntimeError):
    """A run produced a non-finite quantity and was stopped."""


@dataclass(frozen=True)
class SnagState:
    """Current and previous iterate plus the step constants."""

    w: np.ndarray
    w_prev: np.ndarray
    alpha: float
    gamma: float
    t: int = 0

    @classmethod
    def initial(cls, w0: np.ndarray, alpha: float, mu: float) -> "SnagState":
        # Convention: w_{-1} = w_0.
        w0 = np.asarray(w0, dtype=float)
        return cls(w=w0, w_prev=w0.copy(), alpha=alpha,
                   gamma=nesterov_momentum(mu, alpha))

    @property
    def z(self) -> np.ndarray:
        """Extrapolated query point."""
        return self.w + self.gamma * (self.w - self.w_prev)


def snag_step(
    state: SnagState,
    grad: Callable[[np.ndarray, RandomStream], np.ndarray],
    stream: RandomStream,
) -> SnagState:
    z = state.z
    g = grad(z, stream)
    if not np.all(np.isfinite(g)):
        raise NumericalAbort(f"non-finite gradient at iteration {state.t}")
    w_next = z - state.alpha * g
    return SnagState(w=w_next, w_prev=state.w, alpha=state.alpha,
                     gamma=state.gamma, t=state.t + 1)


def potential(state: SnagState, minimizer: np.ndarray, phi_gap: float, mu: float) -> float:
    """Tracking potential: rank-1 quadratic form of (w, w_prev) plus the value gap.

    The 2x2 block of the certificate matrix factors as v v^T / (2*alpha) with
    v = (1, sqrt(mu*alpha) - 1), so the quadratic part is a single norm.
    """
    if phi_gap < -1e-12:
        raise ConstraintViolation(f"phi_gap must be >= 0, got {phi_gap!r}")
    s = math.sqrt(mu * state.alpha)
    u = (state.w - minimizer) + (s - 1.0) * (state.w_prev - minimizer)
    return float(np.dot(u, u)) / (2.0 * state.alpha) + max(phi_gap, 0.0)


@dataclass(frozen=True)
class TrackingBoundParams:
    """Inputs of the high-probability tracking bounds."""

    mu: float
    alpha: float
    sigma: float
    delta_drift: float
    T: int
    delta_prob: float
    V0: float = 0.0

    def __post_init__(self) -> None:
        if self.mu <= 0 or self.alpha <= 0:
            raise ConstraintViolation("mu and alpha must be positive")
        if not (0.0 < self.delta_prob < 1.0):
            raise ConstraintViolation("delta_prob must be in (0, 1)")
        if self.sigma < 0 or self.delta_drift < 0 or self.V0 < 0 or self.T < 1:
            raise ConstraintViolation("sigma, delta_drift, V0 >= 0 and T >= 1 required")


def _log_factor(p: TrackingBoundParams) -> float:
    return math.log(math.e * p.T / p.delta_prob)


def tracking_bound_with_drift(p: TrackingBoundParams, t: int) -> float:
    """High-probability bound on V_t for isotropic quadratics under drift."""
    rate = 1.0 - math.sqrt(p.mu * p.alpha) / 4.0
    noise = 5.0 * math.sqrt(p.alpha) * p.sigma**2 / math.sqrt(p.mu)
    drift = 80.0 * p.delta_drift**2 / p.alpha
    return rate**t * p.V0 + (noise + drift) * _log_factor(p)


def tracking_bound_no_drift(p: TrackingBoundParams, t: int) -> float:
    """High-probability bound on V_t for a fixed strongly convex objective."""
    rate = 1.0 - math.sqrt(p.mu * p.alpha) / 4.0
    noise = 5.0 * math.sqrt(p.alpha) * p.sigma**2 / math.sqrt(p.mu)
    return rate**t * p.V0 + noise * _log_factor(p)


# Sub-stream labels of a run's two tapes, one (T, dim) block each.
_NOISE, _DRIFT = "noise", "drift"


def _unit_tape(stream: RandomStream, label: str, T: int, dim: int) -> np.ndarray:
    """(T, dim) standard normal block of stream's `label` sub-stream; row t is step t."""
    return stream.child(label).generator().normal(0.0, 1.0, size=(T, dim))


def _noise_rows(scale, z: np.ndarray) -> np.ndarray:
    """Gradient noise from unit rows z: what Generator.normal(0.0, scale) computes."""
    return 0.0 + scale * z


def _walk_rows(delta, v: np.ndarray) -> np.ndarray:
    """Random-walk displacements from unit rows v: uniform sphere directions, so
    ||displacement|| = delta exactly and the squared drift is deterministic
    (trivially sub-exponential)."""
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return delta * v / norms


@dataclass(frozen=True)
class DriftProcess:
    """Per-step minimizer displacement model."""

    kind: str = "none"  # none | fixed_direction | random_walk | external
    delta: float = 0.0
    direction: tuple[float, ...] | None = None
    sequence: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "fixed_direction", "random_walk", "external"):
            raise ConstraintViolation(f"unknown drift kind {self.kind!r}")
        if self.delta < 0:
            raise ConstraintViolation("delta must be >= 0")
        if self.kind == "fixed_direction" and self.direction is None:
            raise ConstraintViolation("fixed_direction drift needs a direction")
        if self.kind == "external" and self.sequence is None:
            raise ConstraintViolation("external drift needs a sequence")

    @property
    def walks(self) -> bool:
        """True when the displacements are drawn: a random walk with delta > 0."""
        return self.kind == "random_walk" and self.delta > 0.0

    def displacements(self, T: int, dim: int, stream: RandomStream) -> np.ndarray:
        """(T, dim) array whose row t is the minimizer's displacement at step t.

        Only a walking drift draws, one block from the "drift" sub-stream."""
        if self.walks:
            return _walk_rows(self.delta, _unit_tape(stream, _DRIFT, T, dim))
        if self.kind == "external":
            seq = np.asarray(self.sequence, dtype=float)
            if T > len(seq):
                raise ConstraintViolation(
                    f"external drift sequence too short at t={len(seq)}")
            return seq[:T]
        if self.kind == "none" or self.delta == 0.0:
            return np.zeros((T, dim))
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ConstraintViolation("drift direction must be nonzero")
        return np.tile(self.delta * d / n, (T, 1))


@dataclass(frozen=True)
class QuadraticFamily:
    """Drifting quadratic objectives phi_t(w) = 0.5*(w - w*_t)' H (w - w*_t).

    H = mu*I is the isotropic case required by the with-drift bound.
    """

    mu: float
    dim: int
    hessian: tuple[tuple[float, ...], ...] | None = None

    def matrix(self) -> np.ndarray:
        if self.hessian is None:
            return self.mu * np.eye(self.dim)
        H = np.asarray(self.hessian, dtype=float)
        eigs = np.linalg.eigvalsh(H)
        if eigs[0] < self.mu - 1e-12:
            raise ConstraintViolation("hessian eigenvalues below mu")
        return H

    @property
    def isotropic(self) -> bool:
        return self.hessian is None


def _cell_inputs(family: QuadraticFamily, p: TrackingBoundParams,
                 drifting: bool, wstar: np.ndarray):
    """Bound function, start and noise scale of one tracking cell whose runs
    start at the minimizer wstar (a row or a stack of rows)."""
    if drifting and not family.isotropic:
        raise ConstraintViolation(
            "the with-drift bound is stated for isotropic quadratics only"
        )
    bound_fn = tracking_bound_with_drift if drifting else tracking_bound_no_drift
    # Offset chosen so the initial potential is exactly p.V0.
    w0 = wstar.copy()
    w0[..., 0] += math.sqrt(p.V0 / family.mu) if p.V0 > 0 else 0.0
    return bound_fn, w0, p.sigma / math.sqrt(8.0 * family.dim)


def run_tracking_experiment(
    family: QuadraticFamily,
    drift: DriftProcess,
    p: TrackingBoundParams,
    stream: RandomStream,
    w0: np.ndarray | None = None,
    wstar0: np.ndarray | None = None,
) -> list[dict]:
    """Run SNAG against the drifting family and log potential vs bound per step.

    Returns one record per t in [0, T] with keys t, V, bound, dist, phi_gap.
    """
    dim = family.dim
    wstar = np.zeros(dim) if wstar0 is None else np.asarray(wstar0, dtype=float)
    moves = drift.displacements(p.T, dim, stream)
    bound_fn, w_default, scale = _cell_inputs(family, p, bool(moves.any()), wstar)
    # All noise for the run is drawn up front from one sub-stream (row t is
    # the step-t sample); this is equivalent to per-step draws but avoids
    # deriving T generators.
    noise = (_noise_rows(scale, _unit_tape(stream, _NOISE, p.T, dim))
             if p.sigma > 0.0 else np.zeros((p.T, dim)))
    H = family.matrix()
    state = SnagState.initial(
        w_default if w0 is None else np.asarray(w0, dtype=float), p.alpha, family.mu)

    def record(state: SnagState, wstar: np.ndarray, params: TrackingBoundParams) -> dict:
        e = state.w - wstar
        gap = 0.5 * float(e @ H @ e)
        V = potential(state, wstar, gap, family.mu)
        return {
            "t": state.t,
            "V": V,
            "bound": bound_fn(params, state.t),
            "dist": float(np.linalg.norm(e)),
            "phi_gap": gap,
        }

    e0 = state.w - wstar
    gap0 = 0.5 * float(e0 @ H @ e0)
    params = replace(p, V0=potential(state, wstar, gap0, family.mu))

    logs = [record(state, wstar, params)]
    for t in range(p.T):
        ws = wstar  # freeze the minimizer phi_t is defined with
        eps = noise[t]

        def grad(z: np.ndarray, s: RandomStream) -> np.ndarray:
            return H @ (z - ws) + eps

        state = snag_step(state, grad, stream)
        wstar = wstar + moves[t]
        logs.append(record(state, wstar, params))
    return logs


def mc_tracking_grid(
    cells: Sequence[tuple[TrackingBoundParams, DriftProcess]],
    n_seeds: int,
    dim: int = 2,
    base_seed: int = 0,
    mu_hessian: Sequence[Sequence[float]] | None = None,
) -> list[float]:
    """Violation rate of each (params, drift) cell: the fraction of its
    independent runs whose potential ever exceeds the cell's bound.

    Seed k of every cell reproduces run_tracking_experiment with the default
    start on the stream (base_seed, "mc", k). Cells may differ in sigma, drift,
    delta_drift, delta_prob and V0, and each keeps its own bound, V0 and
    isotropy check; they must share mu, alpha and T. One SNAG state carries
    every (cell, seed) row as (n_cells, n_seeds, dim) arrays. Per seed, one
    unit noise tape and one unit direction tape are drawn (each only if some
    cell needs it) and every cell scales the same rows step by step.
    """
    if n_seeds < 1:
        raise ConstraintViolation("n_seeds must be >= 1")
    if not cells:
        raise ConstraintViolation("a tracking grid needs at least one cell")
    first = cells[0][0]
    mu, alpha, T = first.mu, first.alpha, first.T
    if any((p.mu, p.alpha, p.T) != (mu, alpha, T) for p, _ in cells):
        raise ConstraintViolation("the cells of a tracking grid must share mu, alpha and T")
    family = QuadraticFamily(
        mu=mu, dim=dim,
        hessian=None if mu_hessian is None else tuple(map(tuple, mu_hessian)),
    )
    H = family.matrix()
    root = RandomStream(base_seed)
    n_cells = len(cells)
    # Seed-independent inputs of each cell. Random-walk cells have their drift
    # size in `walk` and zero `still` rows; every other cell has walk 0.
    wstar = np.zeros((n_cells, n_seeds, dim))
    w = np.empty_like(wstar)
    still = np.zeros((T, n_cells, 1, dim))
    walk = np.zeros((n_cells, 1, 1))
    scale = np.empty((n_cells, 1, 1))
    bound_fns = []
    for c, (p, drift) in enumerate(cells):
        if drift.walks:
            walk[c] = drift.delta
        else:
            still[:, c, 0] = drift.displacements(T, dim, root)
        bound_fn, w[c], scale[c] = _cell_inputs(
            family, p, drift.walks or bool(still[:, c].any()), wstar[c])
        bound_fns.append(bound_fn)
    walking = walk > 0.0

    # Unit tapes laid out (T, n_seeds, dim), so step t reads contiguous rows.
    noise = np.empty((T, n_seeds, dim)) if any(p.sigma > 0.0 for p, _ in cells) else None
    steps = np.empty((T, n_seeds, dim)) if walking.any() else None
    for k, stream in enumerate(root.children("mc", n_seeds)):
        if noise is not None:
            noise[:, k] = _unit_tape(stream, _NOISE, T, dim)
        if steps is not None:
            steps[:, k] = _unit_tape(stream, _DRIFT, T, dim)

    state = SnagState.initial(w, alpha, mu)
    s = math.sqrt(mu * alpha)

    def potentials(state: SnagState, wstar: np.ndarray) -> np.ndarray:
        e = state.w - wstar
        u = e + (s - 1.0) * (state.w_prev - wstar)
        gap = 0.5 * np.sum((e @ H.T) * e, axis=-1)
        return np.sum(u * u, axis=-1) / (2.0 * alpha) + gap

    V = potentials(state, wstar)
    bounds = np.empty((n_cells, T + 1))  # row c: cell c's bound at every t
    for c, (fn, (p, _)) in enumerate(zip(bound_fns, cells)):
        params = replace(p, V0=float(V[c, 0]))
        bounds[c] = [fn(params, t) for t in range(T + 1)]
    violated = V > bounds[:, :1]
    for t in range(T):
        eps = 0.0 if noise is None else _noise_rows(scale, noise[t])

        def grad(z: np.ndarray, _s: RandomStream) -> np.ndarray:
            return (z - wstar) @ H.T + eps

        state = snag_step(state, grad, root)
        moves = still[t]
        if steps is not None:
            moves = np.where(walking, _walk_rows(walk, steps[t]), moves)
        wstar = wstar + moves
        violated |= potentials(state, wstar) > bounds[:, t + 1, None]
    return [float(np.count_nonzero(v)) / n_seeds for v in violated]


def mc_tracking_violation_rate(
    p: TrackingBoundParams,
    drift: DriftProcess,
    n_seeds: int,
    dim: int = 2,
    base_seed: int = 0,
    mu_hessian: Sequence[Sequence[float]] | None = None,
) -> float:
    """Fraction of independent runs where the potential ever exceeds its bound:
    the one-cell mc_tracking_grid."""
    return mc_tracking_grid([(p, drift)], n_seeds, dim, base_seed, mu_hessian)[0]
