"""HALS solver for non-negative matrix factorization.

Approximates a non-negative data matrix ``t`` (recordings x time points) by
``w @ theta`` with both factors non-negative, minimizing the squared
Frobenius residual by exact coordinate descent: every update of a single
``w`` column (or ``theta`` row, via the transposed problem) is the closed
form non-negative least squares minimizer, so the cost never increases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError
from .linalg import require_matrix

logger = logging.getLogger(__name__)

DEFAULT_DEAD_EPS = 1e-12


@dataclass
class Factorization:
    """A rank-k factor pair: ``w`` is N x K, ``theta`` is K x M."""

    w: np.ndarray
    theta: np.ndarray

    @property
    def k(self) -> int:
        return self.w.shape[1]

    def validate(self) -> None:
        """Check non-negativity and shape conformity, raising on violation."""
        w = require_matrix(self.w, "w")
        theta = require_matrix(self.theta, "theta")
        if w.shape[1] != theta.shape[0]:
            raise ShapeError(
                f"w has {w.shape[1]} columns but theta has {theta.shape[0]} rows"
            )
        limit = min(w.shape[0], theta.shape[1])
        if w.shape[1] > limit:
            raise ValidationError(
                f"rank {w.shape[1]} exceeds min(N, M) = {limit}"
            )
        _require_nonnegative(w, "w")
        _require_nonnegative(theta, "theta")

    def copy(self) -> "Factorization":
        return Factorization(self.w.copy(), self.theta.copy())


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and housekeeping knobs for :func:`solve`."""

    max_iters: int = 500
    rel_tol: float = 1e-8
    dead_component_eps: float = DEFAULT_DEAD_EPS
    normalize_output: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol < 0.0:
            raise ValidationError(f"rel_tol must be >= 0, got {self.rel_tol}")
        if self.dead_component_eps <= 0.0:
            raise ValidationError(
                f"dead_component_eps must be > 0, got {self.dead_component_eps}"
            )


@dataclass
class ConvergenceTrace:
    """Cost after each completed iteration (one full w and theta update).

    ``revives`` records (iteration, component) pairs where a collapsed
    component was re-seeded from the residual.
    """

    costs: list[float] = field(default_factory=list)
    revives: list[tuple[int, int]] = field(default_factory=list)


def _require_nonnegative(a: np.ndarray, name: str, limit: int = 8) -> None:
    if np.any(a < 0.0):
        coords = [tuple(int(c) for c in rc) for rc in np.argwhere(a < 0.0)[:limit]]
        raise ValidationError(f"{name} has negative entries at {coords}")


def cost(t, f: Factorization) -> float:
    """Squared Frobenius residual ``sum((t - w @ theta)**2)``.

    Raises :class:`NumericalError` when it overflows double precision.
    """
    t = require_matrix(t, "t")
    if t.shape != (f.w.shape[0], f.theta.shape[1]):
        raise ShapeError(
            f"t is {t.shape[0]}x{t.shape[1]} but w @ theta is "
            f"{f.w.shape[0]}x{f.theta.shape[1]}"
        )
    diff = t - f.w @ f.theta
    value = float(np.sum(diff * diff))
    if not np.isfinite(value):
        raise NumericalError(f"cost is not finite ({value!r}); the data or factors overflow")
    return value


def reconstruct(f: Factorization) -> np.ndarray:
    """The model matrix ``w @ theta`` (element-wise non-negative)."""
    return f.w @ f.theta


def hals_update_w_column(
    t, f: Factorization, l: int, dead_eps: float = DEFAULT_DEAD_EPS
) -> np.ndarray:
    """Exact non-negative least squares minimizer for column ``l`` of ``w``.

    Returns ``max(0, (t @ theta_l - sum_{k!=l} w_k (theta_k . theta_l))
    / ||theta_l||^2)`` without mutating ``f``. The caller must ensure the
    component is alive; a degenerate denominator here is an internal bug.
    """
    theta_l = f.theta[l]
    denom = float(theta_l @ theta_l)
    if denom <= dead_eps:
        raise NumericalError(
            f"dead component {l} reached the column update "
            f"(||theta_l||^2 = {denom:.3e})"
        )
    # w @ (theta @ theta_l) includes the k == l term; add it back.
    numer = t @ theta_l - f.w @ (f.theta @ theta_l) + f.w[:, l] * denom
    return np.maximum(0.0, numer / denom)


def hals_sweep(
    t,
    f: Factorization,
    *,
    dead_eps: float = DEFAULT_DEAD_EPS,
    on_dead: Callable[[Factorization, int], Factorization] | None = None,
) -> Factorization:
    """One full coordinate-descent pass: w columns 1..K, then theta rows 1..K.

    The theta half reuses the same column update on the transposed problem.
    When a component's denominator has collapsed, ``on_dead`` (if given) must
    return a factorization with that component revived; without a handler the
    dead component propagates as a :class:`NumericalError`.
    """
    work = f.copy()
    tt = t.T

    for l in range(work.k):
        if float(work.theta[l] @ work.theta[l]) <= dead_eps:
            if on_dead is None:
                raise NumericalError(f"component {l} is dead on entry to sweep")
            work = on_dead(work, l)
            if float(work.theta[l] @ work.theta[l]) <= dead_eps:
                continue  # revival found no usable residual; leave it idle
        work.w[:, l] = hals_update_w_column(t, work, l, dead_eps)

    # Transposed view: columns of theta.T are rows of theta, so the same
    # update rule minimizes over each theta row in order.
    mirrored = Factorization(work.theta.T, work.w.T)
    for l in range(work.k):
        if float(work.w[:, l] @ work.w[:, l]) <= dead_eps:
            if on_dead is None:
                raise NumericalError(f"component {l} died mid-sweep")
            work = on_dead(work, l)
            mirrored = Factorization(work.theta.T, work.w.T)
            if float(work.w[:, l] @ work.w[:, l]) <= dead_eps:
                continue
        mirrored.w[:, l] = hals_update_w_column(tt, mirrored, l, dead_eps)

    return work


def revive_dead_component(
    t, f: Factorization, l: int, rng: np.random.Generator
) -> Factorization:
    """Re-seed a collapsed component from the current residual.

    The theta row becomes the residual row with the largest L2 norm, clamped
    at zero; the w column is refilled with small strictly positive noise so
    the next exact update can take over.
    """
    out = f.copy()
    residual = t - out.w @ out.theta
    row = int(np.argmax(np.sum(residual * residual, axis=1)))
    out.theta[l] = np.maximum(0.0, residual[row])
    scale = max(1e-3 * float(np.max(t)), 1e-6)
    out.w[:, l] = scale * (1.0 - rng.random(out.w.shape[0]))
    return out


def normalize(f: Factorization) -> Factorization:
    """Scale each theta row to unit L1 norm, absorbing the factor into w.

    The product ``w @ theta`` is unchanged up to rounding. Rows with zero
    L1 norm are left untouched and logged.
    """
    norms = np.sum(np.abs(f.theta), axis=1)
    alive = norms > 0.0
    theta = f.theta.copy()
    w = f.w.copy()
    theta[alive] /= norms[alive, None]
    w[:, alive] *= norms[alive]
    dead = np.flatnonzero(~alive)
    if dead.size:
        logger.warning("normalize: theta rows %s have zero L1 norm", dead.tolist())
    return Factorization(w, theta)


def solve(
    t,
    init: tuple[np.ndarray, np.ndarray],
    config: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Factorization, ConvergenceTrace]:
    """Run HALS sweeps from ``init`` until the cost change stalls.

    Stops when ``|D_i - D_{i+1}| / max(D_0, tiny) < rel_tol`` or after
    ``max_iters`` iterations; the trace records the cost after every full
    sweep. ``rng`` only feeds dead-component revival and defaults to a
    fixed-seed generator so identical inputs give identical outputs.
    """
    if config is None:
        config = SolverConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    t = require_matrix(t, "t")
    _require_nonnegative(t, "t")
    w0, theta0 = init
    f = Factorization(
        np.array(w0, dtype=float, copy=True), np.array(theta0, dtype=float, copy=True)
    )
    f.validate()
    if t.shape != (f.w.shape[0], f.theta.shape[1]):
        raise ShapeError(
            f"t is {t.shape[0]}x{t.shape[1]} but init factors give "
            f"{f.w.shape[0]}x{f.theta.shape[1]}"
        )

    trace = ConvergenceTrace()
    d_init = cost(t, f)
    # Floor the relative-change denominator at the roundoff scale of the
    # cost so an exactly-solved start still stops after one sweep.
    denom = max(d_init, np.finfo(float).eps * float(np.sum(t * t)), np.finfo(float).tiny)
    prev = d_init

    for iteration in range(1, config.max_iters + 1):
        def reviver(fact: Factorization, l: int, _it: int = iteration) -> Factorization:
            trace.revives.append((_it, l))
            return revive_dead_component(t, fact, l, rng)

        f = hals_sweep(t, f, dead_eps=config.dead_component_eps, on_dead=reviver)
        current = cost(t, f)
        trace.costs.append(current)
        if abs(prev - current) / denom < config.rel_tol:
            break
        prev = current

    if config.normalize_output:
        f = normalize(f)
    return f, trace
