"""HALS solver for non-negative matrix factorization.

Approximates a non-negative data matrix ``t`` (recordings x time points) by
``w @ theta`` with both factors non-negative, minimizing the squared
Frobenius residual by exact coordinate descent. ``w.T`` and ``theta`` are
held as the top rows of two row stacks. Each half sweep writes its data
product (``theta @ t.T`` or ``w.T @ t``) into the bottom rows of the stack
it updates and forms one Gram matrix; every ``w`` column (or ``theta`` row)
update is then one product of a row of ``[-G, I] / diag(G)`` with the stack,
clamped at zero: the closed-form non-negative least squares minimizer, so
the cost never increases. A component is dead, and re-seeded from the
residual, when its squared norm is at most ``dead_component_eps`` times the
largest in its half. The cost subtracts ``w @ theta`` from ``t`` in place
and sums the squares in one thread.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError
from .linalg import require_matrix

logger = logging.getLogger(__name__)


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
    """Stopping and housekeeping knobs for :func:`solve`.

    ``dead_component_eps`` is relative; see :func:`hals_sweep`.
    """

    max_iters: int = 500
    rel_tol: float = 1e-8
    dead_component_eps: float = 1e-12
    normalize_output: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol >= 0.0:
            raise ValidationError(f"rel_tol must be >= 0, got {self.rel_tol}")
        if not self.dead_component_eps > 0.0:
            raise ValidationError(
                f"dead_component_eps must be > 0, got {self.dead_component_eps}"
            )


@dataclass
class ConvergenceTrace:
    """Cost after each completed iteration (one full w and theta update).

    ``revives`` records (iteration, component) pairs where a collapsed
    component was re-seeded from the residual. ``stop_reason`` is ``"tol"``
    when the relative-change test stopped the solve, else ``"max_iters"``.
    """

    costs: list[float] = field(default_factory=list)
    revives: list[tuple[int, int]] = field(default_factory=list)
    stop_reason: str = "max_iters"


def _require_nonnegative(a: np.ndarray, name: str, limit: int = 8) -> None:
    if np.any(a < 0.0):
        coords = [tuple(int(c) for c in rc) for rc in np.argwhere(a < 0.0)[:limit]]
        raise ValidationError(f"{name} has negative entries at {coords}")


def cost(t, f: Factorization) -> float:
    """Squared Frobenius residual ``sum((t - w @ theta)**2)``.

    Raises :class:`NumericalError` when it overflows double precision.
    """
    return _cost(require_matrix(t, "t"), f)


def _cost(t: np.ndarray, f: Factorization) -> float:
    """:func:`cost` without the scan of ``t`` that :func:`solve` makes once."""
    if t.shape != (f.w.shape[0], f.theta.shape[1]):
        raise ShapeError(
            f"t is {t.shape[0]}x{t.shape[1]} but w @ theta is "
            f"{f.w.shape[0]}x{f.theta.shape[1]}"
        )
    # The finiteness check reports an overflow; numpy's warning would repeat it.
    # einsum sums in one thread; BLAS ddot (np.vdot, @) would start two here.
    with np.errstate(over="ignore", invalid="ignore"):
        r = f.w @ f.theta
        np.subtract(t, r, out=r)
        value = float(np.einsum("ij,ij->", r, r))
    if not np.isfinite(value):
        raise NumericalError(f"cost is not finite ({value!r}); the data or factors overflow")
    return value


def reconstruct(f: Factorization) -> np.ndarray:
    """The model matrix ``w @ theta`` (element-wise non-negative)."""
    return f.w @ f.theta


def hals_sweep(
    t,
    f: Factorization,
    *,
    dead_eps: float = SolverConfig.dead_component_eps,
    on_dead: Callable[[Factorization, int], Factorization] | None = None,
) -> Factorization:
    """One full coordinate-descent pass: w columns 1..K, then theta rows 1..K.

    ``w.T`` and ``theta`` are the top K rows of two stacks, (2K x N) and
    (2K x M). Each half fits ``a ~ x @ y`` (``t ~ w @ theta``, then
    ``t.T ~ theta.T @ w.T``) and writes ``p.T = y @ a.T`` into the bottom K
    rows of the stack ``z`` that holds ``x.T``. With ``g = y @ y.T`` and
    ``h = [-g, I] / diag(g)`` with a zero diagonal, row l of ``x.T`` becomes
    ``max(0, h[l] @ z)``, which is ``max(0, x_l + (p_l - x @ g_l) / g_ll)``.
    Component l is dead when ``g_ll <= dead_eps * max_j g_jj``; ``on_dead`` (if
    given) is passed a view of the current factors and must return the
    factorization with l revived, and the products are formed again. Without
    a handler a dead component raises :class:`NumericalError`. The input
    factorization is left unchanged.
    """
    k = f.k
    wt = np.empty((2 * k, f.w.shape[0]))
    th = np.empty((2 * k, f.theta.shape[1]))
    wt[:k] = f.w.T
    th[:k] = f.theta
    neg_eye = -np.eye(k)

    def current() -> Factorization:
        return Factorization(wt[:k].T, th[:k])

    for z, y, fill in (
        # y @ t.T runs faster with y copied to column order first.
        (wt, th[:k], lambda: np.matmul(np.asfortranarray(th[:k]), t.T, out=wt[k:])),
        (th, wt[:k], lambda: np.matmul(wt[:k], t, out=th[k:])),
    ):
        def products():
            fill()
            g = y @ y.T
            diag = g.diagonal().tolist()
            floor = dead_eps * max(diag)
            # h = [-g, I] / diag(g); a dead row is divided by -inf, to zeros.
            h = np.concatenate((g, neg_eye), axis=1)
            h /= np.array([-d if d > floor else -np.inf for d in diag])[:, None]
            h.flat[:: 2 * k + 1] = 0.0
            return h, [d <= floor for d in diag]

        h, dead = products()
        for l in range(k):
            if dead[l]:
                if on_dead is None:
                    raise NumericalError(f"component {l} is dead")
                revived = on_dead(current(), l)
                wt[:k] = revived.w.T
                th[:k] = revived.theta
                h, dead = products()
                if dead[l]:
                    continue  # revival found no usable residual; leave it idle
            np.maximum(h[l] @ z, 0.0, out=z[l])
    return current()


def revive_dead_component(
    t, f: Factorization, l: int, rng: np.random.Generator
) -> Factorization:
    """Re-seed a collapsed component from the current residual.

    The theta row becomes the residual row with the largest L2 norm, clamped
    at zero; the w column is refilled with positive noise at 1e-3 of the
    data maximum so the next exact update can take over.
    """
    out = f.copy()
    residual = t - out.w @ out.theta
    row = int(np.argmax(np.sum(residual * residual, axis=1)))
    out.theta[l] = np.maximum(0.0, residual[row])
    scale = 1e-3 * float(np.max(t))
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
    trace = ConvergenceTrace()

    def reviver(fact: Factorization, l: int) -> Factorization:
        trace.revives.append((iteration, l))
        return revive_dead_component(t, fact, l, rng)

    d_init = _cost(t, f)
    # Floor the relative-change denominator at the roundoff scale of the
    # cost so an exactly-solved start still stops after one sweep.
    denom = max(d_init, np.finfo(float).eps * float(np.sum(t * t)), np.finfo(float).tiny)
    prev = d_init

    for iteration in range(1, config.max_iters + 1):
        f = hals_sweep(t, f, dead_eps=config.dead_component_eps, on_dead=reviver)
        current = _cost(t, f)
        trace.costs.append(current)
        if abs(prev - current) / denom < config.rel_tol:
            trace.stop_reason = "tol"
            break
        prev = current

    if config.normalize_output:
        f = normalize(f)
    return f, trace
