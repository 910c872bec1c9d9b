"""Synthetic dataset generation and recovery scoring.

Datasets are planted superpositions: each recording is a non-negative
weighted sum of component curves, optionally corrupted by additive Gaussian
noise clamped at zero. The matching oracle scores a recovered factorization
against the planted truth, pairing components by exhaustive permutation
search over cosine similarity; its sums run in one thread (:func:`linalg.dot`),
so the scores do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ValidationError
from .initialization import MEAN, ComponentSpec, TimeGrid, component_curve, resolve_spec
from .linalg import dot, norm, require_conforming, require_rank, unit_exponent
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
        if self.kind not in WEIGHT_MODELS:
            raise ValidationError(
                f"unknown weight model {self.kind!r}, expected one of {WEIGHT_MODELS}"
            )
        if self.kind == "periodic" and self.period <= 0.0:
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
    """Planted factors plus the clean and noisy data they generate."""

    w_true: np.ndarray
    theta_true: np.ndarray
    t_clean: np.ndarray
    t_noisy: np.ndarray
    noise_clamps: int = 0


# The finiteness check on the data reports an overflow; numpy's warning would repeat it.
@np.errstate(over="ignore", invalid="ignore")
def generate(spec: SyntheticSpec) -> GroundTruth:
    """Materialize a synthetic dataset; deterministic for a given seed.

    Weight trajectories are drawn first (component order), then the noise
    matrix, so changing only the noise level leaves the clean data intact;
    ``noise_rel`` is resolved on that clean data by :func:`noise_sigma_for_range`.
    Weight models must stay non-negative over all recordings, and the data
    and the resolved sigma finite.
    """
    rng = np.random.default_rng(spec.seed)
    k = len(spec.components)

    try:
        w = np.zeros((spec.n, k))
    except (ValueError, MemoryError):
        raise ValidationError(
            f"n = {spec.n} recordings by m = {spec.grid.m} samples is too large to allocate"
        ) from None
    theta = np.zeros((k, spec.grid.m))
    for j, comp in enumerate(spec.components):
        if comp.curve.kind == MEAN:
            raise ValidationError(
                f"component {j}: the mean curve cannot be synthesized; "
                "use a parametric curve kind"
            )
        theta[j] = component_curve(resolve_spec(comp.curve, spec.grid), spec.grid)
        weights = comp.weights.sample(spec.n, rng)
        if np.any(weights < 0.0):
            first = int(np.argmax(weights < 0.0))
            raise ValidationError(
                f"component {j}: weight model {comp.weights.kind!r} goes negative "
                f"at recording {first} ({weights[first]:.6g})"
            )
        w[:, j] = weights

    t_clean = w @ theta
    sigma = spec.noise_sigma
    if spec.noise_rel is not None:
        sigma = noise_sigma_for_range(t_clean, spec.noise_rel)
    if not np.isfinite(sigma) and np.all(np.isfinite(t_clean)):
        raise ValidationError(f"noise_rel = {spec.noise_rel} times the clean data range overflows")
    t_noisy = rng.standard_normal(t_clean.shape)
    t_noisy *= sigma
    t_noisy += t_clean
    clamps = int(np.count_nonzero(t_noisy < 0.0))
    # max(0.0, x), not max(x, 0.0), so that a -0.0 sum becomes 0.0.
    np.maximum(0.0, t_noisy, out=t_noisy)
    # A sigma that is not finite comes from the clean data; name its first defect.
    finite = np.isfinite(t_noisy if np.isfinite(sigma) else t_clean)
    if not np.all(finite):
        i, j = np.argwhere(~finite)[0]
        raise ValidationError(
            f"synthetic data is not finite at recording {i}, sample {j}; "
            "check the weight models and curve amplitudes"
        )
    return GroundTruth(
        w_true=w,
        theta_true=theta,
        t_clean=t_clean,
        t_noisy=t_noisy,
        noise_clamps=clamps,
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
