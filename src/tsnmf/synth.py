"""Synthetic dataset generation and recovery scoring.

Datasets are planted superpositions: each recording is a non-negative
weighted sum of component curves, optionally corrupted by additive Gaussian
noise clamped at zero. :class:`DatasetStream` is the one drawing path: it
yields the noisy data one row block at a time, each block's noise drawn
once, which the ``synth`` command writes without holding the dataset and
:func:`generate` collects into whole arrays for library callers. The
matching oracle scores a recovered factorization against the planted truth,
pairing components by exhaustive permutation search over cosine similarity;
its sums run in one thread (:func:`linalg.dot`), so the scores do not depend
on the BLAS thread count.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ValidationError
from .initialization import MEAN, ComponentSpec, TimeGrid, component_curve, resolve_spec
from .linalg import dot, norm, require_conforming, require_rank, row_blocks, unit_exponent
from .nmf import Factorization

# The arguments of each weight model, in spec-file order.
WEIGHT_ARGS = {
    "constant": ("base",),
    "drift": ("base", "slope"),
    "periodic": ("base", "amp", "period"),
    "walk": ("base", "step"),
}
WEIGHT_MODELS = tuple(WEIGHT_ARGS)


@dataclass(frozen=True)
class WeightModel:
    """Per-recording weight trajectory for one planted component.

    constant -> base
    drift    -> base + slope * n
    periodic -> base + amp * (0.5 + 0.5 * sin(2 pi n / period))
    walk     -> base plus a Gaussian random walk with the given step scale
    """

    kind: str
    base: float = 1.0
    slope: float = 0.0
    amp: float = 0.0
    period: float = 50.0
    step: float = 0.0

    def __post_init__(self):
        if str(self.kind).lower() not in WEIGHT_MODELS:
            raise ValidationError(
                f"unknown weight model {self.kind!r}; expected one of {', '.join(WEIGHT_MODELS)}"
            )
        object.__setattr__(self, "kind", str(self.kind).lower())  # a kind matches in any case
        if self.kind == "periodic" and not self.period > 0.0:
            raise ValidationError(f"period must be positive, got {self.period}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = np.arange(n, dtype=float)
        if self.kind == "constant":
            return np.full(n, self.base)
        if self.kind == "drift":
            return self.base + self.slope * idx
        if self.kind == "periodic":
            return self.base + self.amp * (
                0.5 + 0.5 * np.sin(2.0 * np.pi * idx / self.period)
            )
        steps = self.step * rng.standard_normal(n)
        steps[0] = 0.0
        return self.base + np.cumsum(steps)


@dataclass(frozen=True)
class PlantedComponent:
    curve: ComponentSpec
    weights: WeightModel


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset."""

    n: int
    grid: TimeGrid
    components: tuple[PlantedComponent, ...]
    noise_sigma: float = 0.0
    seed: int = 0
    noise_rel: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need at least one recording, got n = {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.noise_rel is not None and self.noise_sigma != 0.0:
            raise ValidationError("give either noise_sigma or noise_rel, not both")
        levels = (("noise_sigma", self.noise_sigma), ("noise_rel", self.noise_rel or 0.0))
        for name, level in levels:
            if level < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {level}")
            if not np.isfinite(level):
                raise ValidationError(f"{name} must be finite, got {level}")
        require_rank((self.n, self.grid.m), len(self.components))


@dataclass
class GroundTruth:
    """Planted factors plus the data they generate; ``t_clean`` and ``t_noisy``
    are None where only the factors are known (as :func:`match_components` needs)."""

    w_true: np.ndarray
    theta_true: np.ndarray
    t_clean: np.ndarray | None
    t_noisy: np.ndarray | None
    noise_clamps: int = 0


class DatasetStream:
    """The planted factors of a spec, and its noisy data drawn one row block
    (:func:`linalg.row_blocks`) at a time, so that no N x M array is held.

    Construction draws the weight trajectories (component order), checks the
    clean product w @ theta block by block and resolves ``noise_rel`` on its
    range (:func:`noise_sigma_for_range`), so only the noise's own check is
    left. :meth:`blocks` draws the noise once, from the generator left after
    the weights. Weight models must stay non-negative over all recordings,
    the clean data, the resolved sigma and the noisy data finite.
    """

    # The finiteness checks report an overflow; numpy's warning would repeat it.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, spec: SyntheticSpec):
        self._rng = np.random.default_rng(spec.seed)
        k = len(spec.components)
        try:
            self.w = np.zeros((spec.n, k))
        except (ValueError, MemoryError):
            raise ValidationError(
                f"n = {spec.n} recordings by m = {spec.grid.m} samples is too large to allocate"
            ) from None
        self.theta = np.zeros((k, spec.grid.m))
        for j, comp in enumerate(spec.components):
            if comp.curve.kind == MEAN:
                raise ValidationError(
                    f"component {j}: the mean curve cannot be synthesized; "
                    "use a parametric curve kind"
                )
            self.theta[j] = component_curve(resolve_spec(comp.curve, spec.grid), spec.grid)
            weights = comp.weights.sample(spec.n, self._rng)
            if np.any(weights < 0.0):
                first = int(np.argmax(weights < 0.0))
                raise ValidationError(
                    f"component {j}: weight model {comp.weights.kind!r} goes negative "
                    f"at recording {first} ({weights[first]:.6g})"
                )
            self.w[:, j] = weights

        why = "check the weight models and curve amplitudes"
        ranges = np.array(
            [_finite_range(self._clean(rows), rows.start, why) for rows in row_blocks(spec.n)]
        )
        self.sigma = spec.noise_sigma
        if spec.noise_rel is not None:
            # The blocks' least and greatest entries span the clean data's range.
            self.sigma = noise_sigma_for_range(ranges, spec.noise_rel)
            if not np.isfinite(self.sigma):
                raise ValidationError(
                    f"noise_rel = {spec.noise_rel} times the clean data range overflows"
                )
        self.clamps = 0

    def blocks(self) -> Iterator[np.ndarray]:
        """The noisy data's row blocks in order: the clean rows plus ``sigma``
        times normals drawn once, from the generator left after the weights,
        clamped at zero. ``clamps`` counts the entries the clamp raised so far."""
        for rows in row_blocks(self.w.shape[0]):
            block = self._noisy(rows)
            self.clamps += int(np.count_nonzero(block < 0.0))
            # max(0.0, x), not max(x, 0.0), so that a -0.0 sum becomes 0.0.
            yield np.maximum(0.0, block, out=block)

    def _clean(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of w @ theta with the whole product's bits. A one-row
        product is a BLAS gemv, whose last bits can differ, so a lone last row
        is taken from a two-row product."""
        if rows.stop - rows.start == 1 and rows.start > 0:
            return (self.w[rows.start - 1 : rows.stop] @ self.theta)[1:]
        return self.w[rows] @ self.theta

    @np.errstate(over="ignore", invalid="ignore")
    def _noisy(self, rows: slice) -> np.ndarray:
        block = self._clean(rows)
        noise = self._rng.standard_normal(block.shape)
        noise *= self.sigma
        block += noise
        _finite_range(block, rows.start, f"the noise of sigma = {self.sigma:.6g} overflows")
        return block


def generate(spec: SyntheticSpec) -> GroundTruth:
    """Materialize a synthetic dataset; deterministic for a given seed.

    ``t_noisy`` is filled from :meth:`DatasetStream.blocks`, whose noise is one
    N x M draw from the generator left after the weights, so changing only the
    noise level leaves the clean data intact.
    """
    data = DatasetStream(spec)
    t_noisy = np.empty((spec.n, spec.grid.m))
    for rows, block in zip(row_blocks(spec.n), data.blocks()):
        t_noisy[rows] = block
    return GroundTruth(data.w, data.theta, data.w @ data.theta, t_noisy, data.clamps)


def _finite_range(rows: np.ndarray, first_row: int, why: str) -> tuple[float, float]:
    """The least and greatest entries of ``rows``, or :class:`ValidationError`
    naming the first entry that is not finite (``rows`` starts at recording
    ``first_row``) and ``why``."""
    # Both are finite only if every entry is (nan propagates), and neither needs a mask.
    lo, hi = np.min(rows), np.max(rows)
    if np.isfinite(lo) and np.isfinite(hi):
        return lo, hi
    i, j = np.argwhere(~np.isfinite(rows))[0]
    raise ValidationError(
        f"synthetic data is not finite at recording {first_row + i}, sample {j}; {why}"
    )


def noise_sigma_for_range(t_clean: np.ndarray, fraction: float) -> float:
    """Absolute noise level equal to ``fraction`` of the clean data range."""
    return fraction * float(np.max(t_clean) - np.min(t_clean))


@dataclass
class MatchReport:
    """Best pairing of recovered components against the planted truth.

    ``permutation[i]`` is the true component matched with recovered
    component ``i``; cosines compare the theta rows, correlations the raw
    w columns, both under that pairing.
    """

    permutation: tuple[int, ...]
    cosines: tuple[float, ...]
    weight_correlations: tuple[float, ...]

    @property
    def mean_cosine(self) -> float:
        return float(np.mean(self.cosines))


# Both scores scale each vector exactly to a largest magnitude in [0.5, 1), so
# they keep their bits at ordinary scales and no norm overflows or underflows.
def _cosine(x: np.ndarray, y: np.ndarray) -> float:
    x, y = np.ldexp(x, -unit_exponent(x)), np.ldexp(y, -unit_exponent(y))
    nx, ny = norm(x), norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(dot(x, y) / (nx * ny))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    x, y = np.ldexp(x, -unit_exponent(x)), np.ldexp(y, -unit_exponent(y))
    xc, yc = x - x.mean(), y - y.mean()
    denom = norm(xc) * norm(yc)
    if denom == 0.0:
        return float("nan")
    return float(dot(xc, yc) / denom)


def match_components(recovered: Factorization, truth: GroundTruth) -> MatchReport:
    """Pair recovered and true components by maximum total cosine similarity.

    The search is exhaustive over all K! pairings (K <= 8), which removes
    matching ambiguity at the component counts this package targets. Of ``truth``
    only ``w_true`` and ``theta_true`` are read. The scores depend neither on the
    scale of either factorization nor on the BLAS thread count. Factors that do
    not conform raise :class:`ShapeError` (:func:`linalg.require_conforming`).
    """
    require_conforming(recovered.w, recovered.theta)
    require_conforming(truth.w_true, truth.theta_true, pre="truth ")
    k = recovered.k
    if truth.theta_true.shape[0] != k:
        raise ValidationError(
            f"component count mismatch: recovered {k}, "
            f"truth {truth.theta_true.shape[0]}"
        )
    if k > 8:
        raise ValidationError(f"exhaustive matching limited to K <= 8, got {k}")
    shape = (recovered.w.shape[0], recovered.theta.shape[1])
    true_shape = (truth.w_true.shape[0], truth.theta_true.shape[1])
    if shape != true_shape:
        raise ValidationError(f"N x M mismatch: recovered {shape}, truth {true_shape}")

    cos = np.array(
        [
            [_cosine(recovered.theta[i], truth.theta_true[j]) for j in range(k)]
            for i in range(k)
        ]
    )
    best_perm = None
    best_total = -np.inf
    for perm in permutations(range(k)):
        total = sum(cos[i, perm[i]] for i in range(k))
        if total > best_total:
            best_total = total
            best_perm = perm

    cosines = tuple(float(cos[i, best_perm[i]]) for i in range(k))
    correlations = tuple(
        _pearson(recovered.w[:, i], truth.w_true[:, best_perm[i]]) for i in range(k)
    )
    return MatchReport(
        permutation=tuple(best_perm),
        cosines=cosines,
        weight_correlations=correlations,
    )
