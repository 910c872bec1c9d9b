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
residual, when its squared norm is at most :data:`DEAD_COMPONENT_EPS` times
the largest in its half, or too small to invert. The cost and ``w.T @ t``
sum in order over fixed row blocks of ``t`` (:func:`linalg.row_blocks`),
the cost's squares in one thread (:func:`linalg.dot`). At the acceptance
size numpy's dispatch, not arithmetic, is most of a sweep's time, so every
sweep product is one ``np.dot`` call, which dispatches less than ``@``.

:func:`solve` extrapolates between sweeps (Ang & Gillis 2019, "Accelerating
nonnegative matrix factorization algorithms using extrapolation") and
restarts from the last accepted iterate whenever an extrapolated sweep
raises the cost, so its iterations are accepted sweeps and never raise it.
One solve checks shapes and sets its ``errstate`` once, for every sweep and
cost in its loop, and allocates its two stack pairs and residual once; it
forms each extrapolated guess in place, over the older iterate, and sweeps it
there.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import (RECIPROCAL_FLOOR, dot, finite, require_conforming, require_matrix,
                     require_nonnegative, require_rank, row_blocks)

logger = logging.getLogger(__name__)

# The extrapolation schedule of solve, as in Ang & Gillis 2019.
BETA_0 = 0.5
BETA_MAX = 1.0
BETA_SHRINK = 1.5
BETA_GROW = 1.05
BETA_MAX_GROW = 1.01
# A component is dead when its squared norm is at most this fraction of the
# largest in its half; relative, so scaling the data changes no revival.
DEAD_COMPONENT_EPS = 1e-12


@dataclass
class Factorization:
    """A rank-k factor pair: ``w`` is N x K, ``theta`` is K x M."""

    w: np.ndarray
    theta: np.ndarray

    @property
    def k(self) -> int:
        return self.w.shape[1]

    def validate(self) -> None:
        """Check non-negativity and shape conformity (:func:`linalg.require_conforming`)."""
        w = require_matrix(self.w, "w")
        theta = require_matrix(self.theta, "theta")
        require_conforming(w, theta)
        require_rank((w.shape[0], theta.shape[1]), w.shape[1])
        require_nonnegative(w, "w")
        require_nonnegative(theta, "theta")

    def copy(self) -> "Factorization":
        return Factorization(self.w.copy(), self.theta.copy())


@dataclass(frozen=True)
class SolverConfig:
    """The stopping rule of :func:`solve`: an iteration cap and a tolerance."""

    max_iters: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol >= 0.0:
            raise ValidationError(f"rel_tol must be >= 0, got {self.rel_tol}")


@dataclass
class ConvergenceTrace:
    """Cost after each iteration (one accepted sweep; see :func:`solve`).

    ``revives`` records (iteration, component) pairs where a collapsed
    component was re-seeded from the residual, in either sweep of the
    iteration. ``stop_reason`` is ``"tol"`` when the cost stalled (which is
    not proof of convergence), else ``"max_iters"``. ``rejected`` lists the
    iterations whose extrapolated sweep raised the cost and was replaced by a
    plain sweep.
    """

    costs: list[float] = field(default_factory=list)
    revives: list[tuple[int, int]] = field(default_factory=list)
    stop_reason: str = "max_iters"
    rejected: list[int] = field(default_factory=list)

    @property
    def sweeps(self) -> int:
        """Kernel sweeps run: one per iteration, and one more per rejected one."""
        return len(self.costs) + len(self.rejected)


def cost(t, f: Factorization) -> float:
    """Squared Frobenius residual ``sum((t - w @ theta)**2)``.

    Raises :class:`NumericalError` when it is not finite.
    """
    t = require_matrix(t, "t")
    require_conforming(f.w, f.theta, t.shape)
    # The finiteness check reports an overflow; numpy's warning would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _cost([(f.w[b], t[b], None) for b in row_blocks(t.shape[0], f.theta.size)], f.theta)


def _cost(parts: list, theta: np.ndarray) -> float:
    """:func:`cost` without its checks or its ``errstate``, which :func:`solve` makes once,
    summed in order over ``parts``: per :func:`linalg.row_blocks` block, the rows of
    ``w`` and ``t`` and a buffer for the block's residual (None: a new array)."""
    value = 0.0
    for w_b, t_b, out in parts:
        r = np.matmul(w_b, theta, out=out)
        np.subtract(t_b, r, out=r)
        value += float(dot(r, r))
    if not math.isfinite(value):
        raise NumericalError(f"cost is not finite ({value!r}); the data or factors overflow")
    return value


def reconstruct(f: Factorization) -> np.ndarray:
    """The model matrix ``w @ theta`` (element-wise non-negative)."""
    return f.w @ f.theta


class _Stacks:
    """Sweep buffers, loaded with the factors given: ``w.T`` and ``theta`` as
    the top K rows (``tops``, viewed by ``f``) of a 2K x N and a 2K x M stack,
    and ``h``; per half sweep, the stack, its top rows, ``y`` and the refill of
    its bottom rows (``halves``). ``w.T @ t`` sums over ``parts`` (block, rows of t,
    residual buffer) in order; ``cost_parts`` adds the block's rows of w, for :func:`_cost`."""

    def __init__(self, t: np.ndarray, f: Factorization, parts: list):
        k = f.k
        wt, th = np.empty((2 * k, t.shape[0])), np.empty((2 * k, t.shape[1]))
        first, *rest = [(wt[:k, b], t_b) for b, t_b, _ in parts]

        def theta_product():
            np.dot(*first, out=th[k:])
            for w_b, t_b in rest:
                th[k:] += np.dot(w_b, t_b)
        self.tops = (wt[:k], th[:k])
        self.f = Factorization(wt[:k].T, th[:k])
        self.cost_parts = [(self.f.w[b], t_b, out) for b, t_b, out in parts]
        self.h, self.neg_eye = np.empty((k, 2 * k)), -np.eye(k)
        self.h_rows, self.h_g, self.h_eye = list(self.h), self.h[:, :k], self.h[:, k:]
        self.h_diag = self.h.reshape(-1)[:: 2 * k + 1]
        self.halves = (
            # y @ t.T runs faster with y copied to column order first.
            (wt, list(wt[:k]), th[:k], lambda: np.dot(np.asfortranarray(th[:k]), t.T, out=wt[k:])),
            (th, list(th[:k]), wt[:k], theta_product),
        )
        self.load(f)

    def load(self, f: Factorization) -> None:
        self.tops[0][...], self.tops[1][...] = f.w.T, f.theta

    def products(self, y: np.ndarray, fill: Callable[[], np.ndarray]) -> list[bool]:
        """Refill the data product and ``h``; return which components are dead."""
        fill()
        # At K = 1 np.dot makes a BLAS ddot, which OpenBLAS splits over threads past 10,000 terms.
        g = np.dot(y, y.T) if len(y) > 1 else np.array([[dot(y, y)]])
        diag = g.diagonal().tolist()
        floor = max(DEAD_COMPONENT_EPS * max(diag), RECIPROCAL_FLOOR)
        # h = [-g, I] / diag(g); a dead row is divided by -inf, to zeros.
        self.h_g[...], self.h_eye[...] = g, self.neg_eye
        self.h /= np.array([-d if d > floor else -np.inf for d in diag])[:, None]
        self.h_diag[...] = 0.0
        return [d <= floor for d in diag]

    def sweep(self, on_dead: Callable[[Factorization, int], Factorization] | None) -> Factorization:
        """:func:`hals_sweep` of the factors held here, in place; returns ``f``."""
        for z, rows, y, fill in self.halves:
            dead = self.products(y, fill)
            for l, h_l in enumerate(self.h_rows):
                if dead[l]:
                    if on_dead is None:
                        raise NumericalError(f"component {l} is dead")
                    self.load(on_dead(self.f, l))
                    dead = self.products(y, fill)
                    if dead[l]:
                        continue  # revival found no usable residual; leave it idle
                np.maximum(np.dot(h_l, z), 0.0, out=rows[l])
        return self.f


def hals_sweep(
    t,
    f: Factorization,
    *,
    on_dead: Callable[[Factorization, int], Factorization] | None = None,
) -> Factorization:
    """One full coordinate-descent pass: w columns 1..K, then theta rows 1..K.

    ``w.T`` and ``theta`` are the top K rows of two stacks, (2K x N) and
    (2K x M). Each half fits ``a ~ x @ y`` (``t ~ w @ theta``, then
    ``t.T ~ theta.T @ w.T``) and writes ``p.T = y @ a.T`` into the bottom K
    rows of the stack ``z`` that holds ``x.T``. With ``g = y @ y.T`` and
    ``h = [-g, I] / diag(g)`` with a zero diagonal, row l of ``x.T`` becomes
    ``max(0, h[l] @ z)``, which is ``max(0, x_l + (p_l - x @ g_l) / g_ll)``.
    Component l is dead when ``g_ll <= DEAD_COMPONENT_EPS * max_j g_jj`` or
    ``1 / g_ll`` overflows; ``on_dead`` (if given) is passed a view of the
    current factors and must return the factorization with l revived, and
    the products are formed again. Without a handler a dead component raises
    :class:`NumericalError`. The input is left unchanged: the sweep runs in
    new stacks, with the kernel that :func:`solve` runs in stacks it reuses.
    """
    t = require_matrix(t, "t")
    require_conforming(f.w, f.theta, t.shape)
    blocks = row_blocks(t.shape[0], f.theta.size)
    return _Stacks(t, f, [(b, t[b], None) for b in blocks]).sweep(on_dead)


def revive_dead_component(
    t, f: Factorization, l: int, rng: np.random.Generator
) -> Factorization:
    """Re-seed a collapsed component from the current residual.

    With ``a`` the largest weight (or 1), the theta row becomes the residual
    row of largest L2 norm (the first; formed by row blocks), clamped at zero, over
    ``a``, and the w column noise in (0, 1e-3 * a]: the revived term scales as the
    data, split like the rest.
    """
    out = f.copy()
    best, row = -math.inf, None
    for b in row_blocks(t.shape[0], out.theta.size):
        residual = t[b] - out.w[b] @ out.theta
        sq = np.sum(residual * residual, axis=1)
        if row is None or sq.max() > best:
            best, row = sq.max(), residual[np.argmax(sq)].copy()
    a = float(np.max(out.w)) or 1.0
    out.w[:, l] = 1e-3 * a * (1.0 - rng.random(out.w.shape[0]))
    out.theta[l] = np.maximum(0.0, row) / a
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


# The checks of the data and of each cost report an overflow, and an overflowed
# Gram diagonal marks components dead for revival; numpy's warning would repeat it.
@np.errstate(over="ignore", invalid="ignore")
def solve(
    t,
    init: tuple[np.ndarray, np.ndarray],
    config: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Factorization, ConvergenceTrace]:
    """Run extrapolated HALS sweeps from ``init`` until the cost stalls.

    Iteration 1 is a plain sweep from ``init``. Iteration n + 1 sweeps from
    ``max(0, x_n + beta * (x_n - x_{n-1}))`` for ``x`` = ``w`` and ``theta``.
    If that sweep ends above the cost ``D_n``, it is rejected (listed in
    ``trace.rejected``): ``beta`` becomes the cap and is divided by
    ``BETA_SHRINK``, and a plain sweep from ``(w_n, theta_n)`` is taken
    instead. Otherwise ``beta`` grows by ``BETA_GROW`` up to the cap, and the
    cap by ``BETA_MAX_GROW`` up to ``BETA_MAX``. An iteration is one accepted
    sweep: ``max_iters`` counts them and the trace holds only their costs, so
    it never rises. Stops when ``|D_{i-2} - D_i| / max(D_0, tiny) < rel_tol``,
    with ``D_0`` (the cost of ``init``) for ``D_{i-2}`` while ``i <= 2``, or
    after ``max_iters`` iterations. A ``"tol"`` stop means the cost stalled,
    not that the fit converged. ``rng`` only feeds dead-component revival and
    defaults to a fixed-seed generator so identical inputs give identical
    outputs. The factors are returned unscaled; :func:`normalize` scales them.
    Data whose sum of squares overflows raises :class:`NumericalError` first.
    The sweeps reuse two stack pairs and a residual buffer of one row block:
    the pair that holds iterate n - 1 takes the guess, formed in place, and its sweep.
    """
    if config is None:
        config = SolverConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    t = require_matrix(t, "t")
    require_nonnegative(t, "t")
    f = Factorization(*(np.array(a, dtype=float, copy=True) for a in init))
    f.validate()
    require_conforming(f.w, f.theta, t.shape)
    trace = ConvergenceTrace()
    # The guess overwrites x_{n-1}; an accepted sweep swaps the pairs, so no factor is allocated.
    blocks = row_blocks(t.shape[0], f.theta.size)
    residual = np.empty((blocks[0].stop, t.shape[1]))  # the first block is the longest
    parts = [(b, t[b], residual[: b.stop - b.start]) for b in blocks]
    prev, cur = _Stacks(t, f, parts), _Stacks(t, f, parts)

    def reviver(fact: Factorization, l: int) -> Factorization:
        trace.revives.append((iteration, l))
        return revive_dead_component(t, fact, l, rng)

    t_sq = float(finite(lambda: sum(dot(t[b], t[b]) for b in blocks), "the data's sum of squares"))
    d_init = _cost([(f.w[b], t_b, out) for b, t_b, out in parts], f.theta)
    # Floor the relative-change denominator at the roundoff scale of the
    # cost so an exactly-solved start still stops after one sweep.
    denom = max(d_init, np.finfo(float).eps * t_sq, np.finfo(float).tiny)
    costs = trace.costs
    beta, beta_max = BETA_0, BETA_MAX

    for iteration in range(1, config.max_iters + 1):
        if iteration > 1:
            # The extrapolated guess max(0, x + beta * (x - x_prev)), in place over x_prev.
            for x, out in zip(cur.tops, prev.tops):
                np.subtract(x, out, out=out)
                out *= beta
                out += x
                np.maximum(out, 0.0, out=out)
        current = _cost(prev.cost_parts, prev.sweep(reviver).theta)
        if iteration > 1 and current > costs[-1]:
            trace.rejected.append(iteration)
            beta, beta_max = beta / BETA_SHRINK, beta
            prev.load(cur.f)
            current = _cost(prev.cost_parts, prev.sweep(reviver).theta)
        elif iteration > 1:
            beta = min(beta_max, BETA_GROW * beta)
            beta_max = min(BETA_MAX, BETA_MAX_GROW * beta_max)
        prev, cur = cur, prev
        costs.append(current)
        # One sweep can stall on a momentum reversal; judge two.
        if abs((costs[-3] if len(costs) > 2 else d_init) - current) / denom < config.rel_tol:
            trace.stop_reason = "tol"
            break
    return cur.f, trace
