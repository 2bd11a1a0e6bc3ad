"""Stochastic Nesterov accelerated gradient under drifting minimizers.

Implements the two-line recursion (extrapolate, then gradient step at the
extrapolated point), the rank-1 potential that certifies tracking, the
high-probability tracking bound, and Monte-Carlo verification over seeded
runs.

Each tracking rule is written once. A cell is its bound parameters and its
drift; the drift alone holds the step length delta, and the bound has its
drift term exactly when the drift moves. A run's objective is given by its
Hessian H alone; mu is read only from the bound parameters. ``_cell_inputs``
checks H and sets up a cell: its start row, its noise scale and its bound at
every t, whose V0 is the start row's potential. ``_trajectory`` builds a
run's columns from its rows of w and w* with one builder, ``_record_terms``.
``run_tracking_experiment`` is the scalar reference, one run with the
gradient H @ (z - w*) + noise. ``mc_tracking_grid`` carries every
(cell, seed) run of a grid in one coordinate-major SNAG state; seed k of a
cell is the reference run on stream (base_seed, "mc", k), and the
snag-track CSVs are the grid's seed-0 columns. A run violates its bound
when its potential is, at some t, not finite or above the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import (COUNT, FRACTION, NONNEGATIVE, POSITIVE, ConstraintViolation,
                        check_domains, nesterov_momentum)
from .problems import _as_vec, _dot, _symmetric_matrix
from .rng import RandomStream

__all__ = [
    "NumericalAbort",
    "SnagState",
    "DRIFT_KINDS",
    "DriftProcess",
    "TrackingBoundParams",
    "snag_step",
    "potential",
    "tracking_bound",
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
    if not np.isfinite(g).all():
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
    """Inputs of the high-probability tracking bound, but for the drift's delta.
    mu is also the run's: its momentum, start row and eigenvalue floor."""

    mu: float
    alpha: float
    sigma: float
    T: int
    delta_prob: float
    V0: float = 0.0

    DOMAINS = {"mu": POSITIVE, "alpha": POSITIVE, "sigma": NONNEGATIVE, "T": COUNT,
               "delta_prob": FRACTION, "V0": NONNEGATIVE}

    def __post_init__(self) -> None:
        check_domains(vars(self), self.DOMAINS)


def _rate_and_floor(p: TrackingBoundParams, drift: DriftProcess) -> tuple[float, float]:
    """(rate, floor) of the bound rate**t * V0 + floor: 1 - sqrt(mu*alpha)/4, and
    the noise term plus the drift term times log(e*T/delta_prob). The drift
    term of a drift that does not move (delta = 0) is +0.0. A sigma or delta
    whose floor is not finite is refused."""
    try:
        # noise >= +0.0, so noise + 0.0 is noise.
        floor = (5.0 * math.sqrt(p.alpha) * p.sigma**2 / math.sqrt(p.mu)
                 + 80.0 * drift.delta**2 / p.alpha) * math.log(math.e * p.T / p.delta_prob)
    except OverflowError:  # sigma**2 or delta**2
        floor = math.inf
    if not math.isfinite(floor):
        raise ConstraintViolation(f"the tracking bound floor of sigma = {p.sigma!r} and "
                                  f"delta = {drift.delta!r} is not finite")
    return 1.0 - math.sqrt(p.mu * p.alpha) / 4.0, floor


def _decay(rate: float, t: int) -> float:
    try:
        return rate**t
    except OverflowError:
        raise NumericalAbort(f"tracking bound overflows at t={t}: "
                             f"1 - sqrt(mu*alpha)/4 = {rate!r}") from None


def tracking_bound(p: TrackingBoundParams, drift: DriftProcess, t: int) -> float:
    """High-probability bound on V_t under drift: for a fixed strongly convex
    objective when the drift does not move, else for isotropic quadratics."""
    rate, floor = _rate_and_floor(p, drift)
    return _decay(rate, t) * p.V0 + floor


# Sub-stream labels of a run's two tapes, one (T, dim) block each.
_NOISE, _DRIFT = "noise", "drift"

# Steps of unit tape the Monte-Carlo grid holds per source: it draws each
# seed's tapes this many rows at a time, just before its step loop reads them.
_BLOCK = 64


def _unit_tape(stream: RandomStream, label: str, T: int, dim: int) -> np.ndarray:
    """(T, dim) standard normal block of stream's `label` sub-stream; row t is step t."""
    return stream.child(label).generator().normal(0.0, 1.0, size=(T, dim))


def _tape_planes(streams: Sequence[RandomStream], label: str, T: int, dim: int):
    """Step t's (dim, 1, n_seeds) plane of the `label` unit tapes of streams,
    t = 0..T-1: column k holds row t of _unit_tape(streams[k], label, T, dim).

    Each stream's generator is built once; a Generator keeps no state
    between normal calls but its bit generator, so its rows drawn _BLOCK at
    a time are the rows of its one (T, dim) draw. They fill one reused
    seed-major (n_seeds, _BLOCK, dim) array, seed k's rows in one contiguous
    write, and each plane is a contiguous copy of one step's rows."""
    gens = [stream.child(label).generator() for stream in streams]
    block = np.empty((len(gens), min(T, _BLOCK), dim))
    for lo in range(0, T, _BLOCK):
        b = min(_BLOCK, T - lo)
        for k, gen in enumerate(gens):
            block[k, :b] = gen.normal(0.0, 1.0, size=(b, dim))
        for t in range(b):
            yield block[:, t, :].T.copy()[:, None, :]


def _noise_rows(scale, z: np.ndarray) -> np.ndarray:
    """Gradient noise from unit rows z: what Generator.normal(0.0, scale) computes."""
    return 0.0 + scale * z


def _row_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """np.sum over `axis`, bit for bit as numpy sums that axis when it is last
    and contiguous (the rows of a row-major array), except that a NaN sum may
    be another NaN (sign and payload). numpy adds fewer than 8 terms in
    order, starting from 0.0, so short rows are summed slice by slice in that
    order, which costs less than the reduction. Longer rows (summed pairwise)
    go to np.sum on a copy with the axis last, since np.sum over any other
    layout adds in another order. Which NaN an add passes on depends on
    numpy's loop; no caller reads it, since a NaN potential is judged by
    np.isfinite and written as nan."""
    planes = np.moveaxis(a, axis, 0) if axis else a
    if len(planes) < 8:
        acc = 0.0 + planes[0]
        for plane in planes[1:]:
            acc += plane
        return acc
    return np.sum(np.ascontiguousarray(np.moveaxis(a, axis, -1)), axis=-1)


def _walk_rows(delta, v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Random-walk displacements from unit rows v along `axis`: uniform on the
    sphere, so ||displacement|| = delta exactly and the squared drift is
    deterministic (trivially sub-exponential)."""
    # np.linalg.norm(v, axis=axis, keepdims=True) of row-major rows, bit for bit.
    norms = np.expand_dims(np.sqrt(_row_sum(v * v, axis)), axis)
    norms[norms == 0.0] = 1.0
    return delta * v / norms


# The drift kinds. Every kind but "none" moves the minimizer by delta per step.
DRIFT_KINDS = ("none", "fixed_direction", "random_walk")


@dataclass(frozen=True)
class DriftProcess:
    """Per-step minimizer displacement model: none, a step of length delta
    along the first coordinate, or a random walk of step length delta."""

    kind: str = "none"
    delta: float = 0.0

    DOMAINS = {"delta": NONNEGATIVE}

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ConstraintViolation(f"unknown drift kind {self.kind!r}")
        check_domains(vars(self), self.DOMAINS)
        if self.kind == "none" and self.moves:
            raise ConstraintViolation(f"a none drift takes no delta, got {self.delta!r}")

    @property
    def moves(self) -> bool:
        """True when the minimizer moves, so the bound has its drift term: delta > 0."""
        return self.delta > 0.0

    @property
    def walks(self) -> bool:
        """True when the displacements are drawn: a random walk that moves."""
        return self.kind == "random_walk" and self.moves

    def displacements(self, T: int, dim: int, stream: RandomStream) -> np.ndarray:
        """(T, dim) array whose row t is the minimizer's displacement at step t.

        Only a walking drift draws, one block from the "drift" sub-stream."""
        if self.walks:
            return _walk_rows(self.delta, _unit_tape(stream, _DRIFT, T, dim))
        rows = np.zeros((T, dim))
        if self.moves:  # fixed_direction
            rows[:, 0] = self.delta
        return rows


def _record_terms(w, w_prev, wstar, H: np.ndarray, s: float, alpha: float):
    """(V, phi_gap, dist) of stacked rows of w, w_prev and w*, each row with
    the arithmetic of potential(), 0.5 * float(e @ H @ e) and
    float(np.linalg.norm(e)), e = w - w*."""
    e = w - wstar
    # e @ H @ e row by row: a gemv, then a dot.
    gap = 0.5 * (e[..., None, :] @ H @ e[..., :, None])[..., 0, 0]
    if np.any(gap < -1e-12):
        raise ConstraintViolation(f"phi_gap must be >= 0, got {gap.min()!r}")
    u = e + (s - 1.0) * (w_prev - wstar)
    V = _dot(u, u) / (2.0 * alpha) + np.maximum(gap, 0.0)
    return V, gap, np.sqrt(_dot(e, e))


def _trajectory(w: np.ndarray, wstar: np.ndarray, bounds: np.ndarray, H: np.ndarray,
                s: float, alpha: float) -> dict[str, np.ndarray]:
    """Columns t, V, bound, dist and phi_gap of one run, each with one entry
    per t in [0, T], from its (T+1, dim) rows of w and w*, and its bound at
    every t. w_prev is w one step back (w_{-1} = w_0)."""
    w_prev = np.concatenate([w[:1], w[:-1]])
    V, gap, dist = _record_terms(w, w_prev, wstar, H, s, alpha)
    return {"t": np.arange(len(w)), "V": V, "bound": bounds, "dist": dist, "phi_gap": gap}


def _cell_inputs(H: np.ndarray, p: TrackingBoundParams, drift: DriftProcess,
                 w0: np.ndarray | None = None):
    """Bound at every t in [0, T], H as a new float64 array, start row and
    noise scale of one tracking cell, whose minimizer starts at 0. H must be
    square, finite, symmetric, with no eigenvalue below p.mu - 1e-12, and
    p.mu * I when the drift moves; w0 (dim,), by default offset along the
    first coordinate so that its potential is p.V0. The bound's V0 is the
    start row's potential as its trajectory computes it, and entry t is
    tracking_bound(p, drift, t) with that V0, bit for bit. A potential that
    is not finite (V0 / mu overflows the start row, or its sums overflow) is
    refused."""
    H = _symmetric_matrix(H, "H")
    dim = len(H)
    # mu * I has no eigenvalue below mu, though eigvalsh may round one of
    # its own below mu - 1e-12 (at mu = 1e300 in dim 2).
    isotropic = np.array_equal(H, p.mu * np.eye(dim))
    if not isotropic and np.linalg.eigvalsh(H)[0] < p.mu - 1e-12:
        raise ConstraintViolation(f"H has an eigenvalue below mu = {p.mu!r}")
    if drift.moves and not isotropic:
        raise ConstraintViolation("the with-drift bound is stated for H = mu*I only")
    if w0 is None:
        w0 = np.zeros(dim)
        w0[0] = math.sqrt(p.V0 / p.mu)  # +0.0 when V0 = 0
    else:
        w0 = _as_vec(w0, dim, "w0")
    with np.errstate(over="ignore", invalid="ignore"):
        V0 = float(_record_terms(w0, w0, np.zeros_like(w0), H,
                                 math.sqrt(p.mu * p.alpha), p.alpha)[0])
    if not math.isfinite(V0):
        raise ConstraintViolation(f"V0 = {p.V0!r} at mu = {p.mu!r} gives a start "
                                  f"row or potential that is not finite")
    rate, floor = _rate_and_floor(p, drift)
    bounds = np.fromiter((_decay(rate, t) * V0 + floor for t in range(p.T + 1)),
                         float, p.T + 1)
    return bounds, H, w0, p.sigma / math.sqrt(8.0 * dim)


def run_tracking_experiment(
    H: np.ndarray,
    drift: DriftProcess,
    p: TrackingBoundParams,
    stream: RandomStream,
    w0: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Run SNAG against phi_t(w) = 0.5 * (w - w*_t)' H (w - w*_t), whose
    minimizer starts at 0 and moves by the drift, and log potential vs bound
    per step. H (dim, dim) and w0 (dim,) follow _cell_inputs' rules.

    Returns the columns t, V, bound, dist and phi_gap, in that order, each
    with one entry per t in [0, T].
    """
    bounds, H, w0, scale = _cell_inputs(H, p, drift, w0)
    dim = len(H)
    steps = drift.displacements(p.T, dim, stream)
    # All noise for the run is drawn up front from one sub-stream (row t is
    # the step-t sample); this is equivalent to per-step draws but avoids
    # deriving T generators.
    noise = (_noise_rows(scale, _unit_tape(stream, _NOISE, p.T, dim))
             if p.sigma > 0.0 else np.zeros((p.T, dim)))
    state = SnagState.initial(w0, p.alpha, p.mu)
    w = np.empty((p.T + 1, dim))
    wstar = np.zeros((p.T + 1, dim))
    w[0] = state.w
    for t in range(p.T):
        ws, eps = wstar[t], noise[t]  # the minimizer phi_t is defined with

        def grad(z: np.ndarray, _s: RandomStream) -> np.ndarray:
            return H @ (z - ws) + eps

        state = snag_step(state, grad, stream)
        w[t + 1] = state.w
        wstar[t + 1] = ws + steps[t]
    return _trajectory(w, wstar, bounds, H, math.sqrt(p.mu * p.alpha), p.alpha)


def mc_tracking_grid(
    cells: Sequence[tuple[TrackingBoundParams, DriftProcess]],
    n_seeds: int,
    dim: int = 2,
    base_seed: int = 0,
) -> tuple[list[float], list[Callable[[], dict[str, np.ndarray]]]]:
    """Violation rate of each (params, drift) cell: the fraction of its
    independent runs whose potential is, at some t, not finite or above the
    cell's bound; and seed 0's trajectory of each cell.

    Seed k of every cell reproduces run_tracking_experiment on the isotropic
    Hessian H = mu * np.eye(dim), with the default start, on the stream
    (base_seed, "mc", k); n_seeds and dim are integers >= 1. Cells may
    differ in sigma, delta_prob, V0 and drift (its kind and delta), and each
    keeps the bound table and start row of _cell_inputs; they must share
    mu, alpha and T. One SNAG state carries
    every (cell, seed) row, laid out coordinate-major: w, w_prev and w* are
    (dim, n_cells, n_seeds) arrays, so a sum over the coordinates adds
    contiguous planes. Per seed, one unit noise tape and one unit walk
    tape are drawn (each only if some cell needs it), _BLOCK steps at a time
    into one seed-major (n_seeds, _BLOCK, dim) block per source, just before
    the steps that read them; every cell scales the same rows step by step,
    from one contiguous copy of the step's rows per source. Tape memory is
    thus 2 * _BLOCK * dim * n_seeds doubles at most, whatever T and
    the number of cells. A cell that does not walk moves its minimizer by the
    same displacement at every step, delta or 0 along the first coordinate,
    so it keeps one (dim,) row of it.

    H = mu*I, so the step's gradient is mu * (z - w*) plus noise, and the
    potential's gap term sums (mu * e) * e. Each entry of the reference's
    (z - w*) @ H equals mu times the entry up to the sign of a zero, which
    adding the noise (0.0 or 0.0 + scale * unit, never -0.0) clears; in the
    gap a zero's sign changes no sum. Where a vector has an infinity (dim > 1),
    the reference's product has NaNs where this one has infinities: the
    gradient aborts the run either way, and a potential that is NaN in the
    reference is infinite here, a violation either way.

    The grid keeps seed 0's w and w* rows at every step once, cell-major:
    two (n_cells, T+1, dim) arrays, so cell c's rows are contiguous and laid
    out as run_tracking_experiment's. Trajectory c, when called, builds from
    them and cell c's float64 bound table with _trajectory the columns that
    run_tracking_experiment returns for cell c on stream (base_seed, "mc", 0).
    """
    check_domains({"n_seeds": n_seeds, "dim": dim}, dict.fromkeys(("n_seeds", "dim"), COUNT))
    if not cells:
        raise ConstraintViolation("a tracking grid needs at least one cell")
    first = cells[0][0]
    mu, alpha, T = first.mu, first.alpha, first.T
    if any((p.mu, p.alpha, p.T) != (mu, alpha, T) for p, _ in cells):
        raise ConstraintViolation("the cells of a tracking grid must share mu, alpha and T")
    H = mu * np.eye(dim)
    root = RandomStream(base_seed)
    n_cells = len(cells)
    # Seed-independent inputs of each cell. Random-walk cells that move have
    # their drift size in `walk` and a zero `still` row; every other cell has
    # walk 0 and its per-step displacement in `still`: delta along the first
    # coordinate for a fixed_direction drift that moves, else zeros.
    w0 = np.empty((n_cells, dim))
    still = np.zeros((dim, n_cells, 1))
    walk = np.zeros((n_cells, 1))
    scale = np.empty((n_cells, 1))
    bounds = np.empty((n_cells, T + 1))  # row c: cell c's bound at every t
    for c, (p, drift) in enumerate(cells):
        if drift.walks:
            walk[c] = drift.delta
        elif drift.moves:
            still[0, c] = drift.delta
        bounds[c], _, w0[c], scale[c] = _cell_inputs(H, p, drift)
    fixed = still.any()

    # Unit tape planes (dim, 1, n_seeds), step by step: each broadcasts over
    # the cells, and seed k's rows fill column k.
    seeds = root.children("mc", n_seeds)
    noise = (_tape_planes(seeds, _NOISE, T, dim)
             if any(p.sigma > 0.0 for p, _ in cells) else None)
    steps = _tape_planes(seeds, _DRIFT, T, dim) if walk.any() else None

    wstar = np.zeros((dim, n_cells, n_seeds))
    state = SnagState.initial(np.repeat(w0.T[:, :, None], n_seeds, axis=2), alpha, mu)
    s = math.sqrt(mu * alpha)

    def violations(state: SnagState, wstar: np.ndarray, bound: np.ndarray) -> np.ndarray:
        # e = w - w*, u = e + (s - 1) * (w_prev - w*) and the gap's (mu * e) * e,
        # computed in place.
        e = state.w - wstar
        u = state.w_prev - wstar
        u *= s - 1.0
        u += e
        u *= u
        gap = mu * e
        gap *= e
        V = _row_sum(u, axis=0) / (2.0 * alpha) + 0.5 * _row_sum(gap, axis=0)
        return ~(np.isfinite(V) & (V <= bound))

    # Seed 0's rows of w and w* at every t, cell-major: [c, t] is cell c's
    # row at t, so cell c's (T+1, dim) rows are contiguous.
    w_rows, wstar_rows = np.empty((2, n_cells, T + 1, dim))
    w_rows[:, 0], wstar_rows[:, 0] = state.w[..., 0].T, wstar[..., 0].T
    violated = violations(state, wstar, bounds[:, :1])
    for t in range(T):
        eps = 0.0 if noise is None else _noise_rows(scale, next(noise))

        def grad(z: np.ndarray, _s: RandomStream) -> np.ndarray:
            g = z - wstar  # mu * (z - w*) + eps, in place
            g *= mu
            g += eps
            return g

        state = snag_step(state, grad, root)
        # w* starts at +0.0 and a sum is -0.0 only when both terms are, so w*
        # is never -0.0 and adding a zero (a still cell's walk, a walking
        # cell's still row) leaves it as it is: one add per source, no select.
        if steps is not None:
            wstar += _walk_rows(walk, next(steps), axis=0)
        if fixed:
            wstar += still
        w_rows[:, t + 1], wstar_rows[:, t + 1] = state.w[..., 0].T, wstar[..., 0].T
        violated |= violations(state, wstar, bounds[:, t + 1, None])
    rates = [float(np.count_nonzero(v)) / n_seeds for v in violated]
    return rates, [functools.partial(_trajectory, w_rows[c], wstar_rows[c], bounds[c],
                                     H, s, alpha)
                   for c in range(n_cells)]


def mc_tracking_violation_rate(
    p: TrackingBoundParams,
    drift: DriftProcess,
    n_seeds: int,
    dim: int = 2,
    base_seed: int = 0,
) -> float:
    """Fraction of independent runs where the potential ever exceeds its bound:
    the one-cell mc_tracking_grid."""
    return mc_tracking_grid([(p, drift)], n_seeds, dim, base_seed)[0][0]
