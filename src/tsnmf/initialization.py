"""Factor initialization strategies: physical curves, NNDSVD, seeded random.

The knowledge-based strategy seeds the component profiles with idealized
heat-transfer curves (exponential cooling, saturating heating, a bath pulse
formed by two competing exponentials, the data mean, and the point-source
kernel) and derives the weights through the pseudoinverse. NNDSVD builds
factors from positive sections of the leading SVD rank-one terms and is
fully deterministic; the random strategy draws strictly positive uniforms
scaled to the data.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ValidationError
from .linalg import (SvdResult, finite, norm, orient, pinv, require_matrix, require_nonnegative,
                     require_rank, row_blocks, split_sections, svd, unit_exponent)

logger = logging.getLogger(__name__)

MEAN = "mean"
COOLING = "cooling"
HEATING = "heating"
BATH_PULSE = "bathpulse"
HEAT_KERNEL = "heatkernel"
# The parameters of each curve kind, in the order spec-file errors list them.
CURVE_PARAMS = {
    MEAN: (),
    COOLING: ("amp", "tau_c"),
    HEATING: ("amp", "tau_h"),
    BATH_PULSE: ("amp", "tau_c", "tau_h"),
    HEAT_KERNEL: ("amp", "r"),
}
CURVE_KINDS = tuple(CURVE_PARAMS)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid ``t_m = m * dt`` for ``m = 0 .. m-1``."""

    m: int
    dt: float
    values: np.ndarray = field(compare=False)  # fixed by m and dt

    @property
    def t_end(self) -> float:
        return float(self.values[-1])


def time_vector(m: int, dt: float) -> TimeGrid:
    """Build the sampling grid with ``m`` points spaced ``dt`` seconds apart."""
    if m < 1:
        raise ValidationError(f"need at least one sample, got m = {m}")
    if dt <= 0.0:
        raise ValidationError(f"time step must be positive, got dt = {dt}")
    if not np.isfinite(dt):
        raise ValidationError(f"time step must be finite, got dt = {dt}")
    if not np.isfinite(dt * (m - 1)):
        raise ValidationError(f"time grid overflows: dt = {dt} with m = {m} samples")
    try:
        values = dt * np.arange(m, dtype=float)
    except (ValueError, MemoryError):
        raise ValidationError(f"m = {m} samples is too large to allocate") from None
    values.setflags(write=False)
    return TimeGrid(m=m, dt=float(dt), values=values)


@dataclass(frozen=True)
class ComponentSpec:
    """One parameterized curve family.

    Unset parameters (``None``) are resolved against the grid and data when
    the curve is built: time constants default to fractions of the recording
    span and the amplitude to the data range (or 1.0 for synthesis).
    """

    kind: str
    amp: float | None = None
    tau_c: float | None = None
    tau_h: float | None = None
    r: float | None = None

    def __post_init__(self):
        if str(self.kind).lower() not in CURVE_KINDS:
            raise ValidationError(
                f"unknown component kind {self.kind!r}; expected one of {', '.join(CURVE_KINDS)}"
            )
        object.__setattr__(self, "kind", str(self.kind).lower())  # a kind matches in any case
        for name in ("amp", "tau_c", "tau_h"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.r is not None and not self.r >= 0.0:
            raise ValidationError(f"r must be >= 0, got {self.r}")
        if self.kind == BATH_PULSE and None not in (self.tau_c, self.tau_h) and self.tau_c <= self.tau_h:
            raise ValidationError(
                f"bathpulse needs tau_c > tau_h, got tau_c = {self.tau_c}, "
                f"tau_h = {self.tau_h} (the curve would not stay non-negative)"
            )


def resolve_spec(spec: ComponentSpec, grid: TimeGrid, amp_default: float = 1.0) -> ComponentSpec:
    """Fill the kind's unset parameters with grid-derived defaults.

    tau_c defaults to t_end/3 and tau_h to t_end/10, except for the bath
    pulse where tau_h defaults to t_end/12 so the difference curve spans the
    window; r defaults to 0. A span too short for a positive default is an
    error that asks for the time constant.
    """
    t_end = grid.t_end
    defaults = {
        "amp": amp_default,
        "tau_c": t_end / 3.0,
        "tau_h": t_end / (12.0 if spec.kind == BATH_PULSE else 10.0),
        "r": 0.0,
    }
    updates = {p: defaults[p] for p in CURVE_PARAMS[spec.kind] if getattr(spec, p) is None}
    unset = " and ".join(p for p in ("tau_c", "tau_h") if p in updates and not updates[p] > 0.0)
    if unset:
        raise ValidationError(f"{spec.kind}: the recording span fixes no time constant; give {unset}")
    return dataclasses.replace(spec, **updates) if updates else spec


# Overflow takes a curve to its limit (exp(-inf) = 0); callers reject inf and nan.
@np.errstate(over="ignore", invalid="ignore")
def component_curve(
    spec: ComponentSpec, grid: TimeGrid, data_mean: np.ndarray | None = None
) -> np.ndarray:
    """Sample one component curve over the grid; the result is >= 0.

    mean      -> the supplied per-time-point data mean
    cooling   -> amp * exp(-t / tau_c)
    heating   -> amp * (1 - exp(-t / tau_h))
    bathpulse -> amp * (exp(-t / tau_c) - exp(-t / tau_h)), needs tau_c > tau_h
    heatkernel-> amp * (4 pi t)**-0.5 * exp(-r^2 / (4 t)), with the t = 0
                 sample set to 0 for r > 0 and to the t_1 value for r = 0
    """
    t = grid.values
    if spec.kind == MEAN:
        if data_mean is None:
            raise ValidationError("mean curve requires the data mean")
        mean = np.asarray(data_mean, dtype=float)
        if mean.shape != (grid.m,):
            raise ValidationError(
                f"data mean has shape {mean.shape}, expected ({grid.m},)"
            )
        return mean.copy()

    # An unset r means the source point (r = 0); every other parameter is needed.
    missing = [p for p in CURVE_PARAMS[spec.kind] if p != "r" and getattr(spec, p) is None]
    if missing:
        raise ValidationError(
            f"{spec.kind} curve needs {' and '.join(missing)}; resolve the spec first"
        )
    amp = spec.amp

    if spec.kind == COOLING:
        return amp * np.exp(-t / spec.tau_c)
    if spec.kind == HEATING:
        return amp * (1.0 - np.exp(-t / spec.tau_h))
    if spec.kind == BATH_PULSE:
        return amp * (np.exp(-t / spec.tau_c) - np.exp(-t / spec.tau_h))
    # heat kernel: singular at t = 0, defined there by the continuity rule
    r = spec.r if spec.r is not None else 0.0
    curve = np.zeros(grid.m)
    positive = t > 0.0
    tp = t[positive]
    curve[positive] = amp / np.sqrt(4.0 * np.pi * tp) * np.exp(
        -(r * r) / (4.0 * tp)
    )
    if r == 0.0:
        if grid.m < 2:
            raise ValidationError("heatkernel with r = 0 needs at least two samples")
        curve[0] = curve[1]
    return curve


def bath_pulse_peak_time(tau_c: float, tau_h: float) -> float:
    """Continuous-time argmax of the bath pulse, from the derivative root."""
    return (np.log(tau_c) - np.log(tau_h)) * tau_c * tau_h / (tau_c - tau_h)


@dataclass
class InitResult:
    """A non-negative starting factor pair plus per-strategy diagnostics."""

    w_init: np.ndarray
    theta_init: np.ndarray
    strategy_tag: str
    diagnostics: dict


def knowledge_init(t, grid: TimeGrid, specs) -> InitResult:
    """Seed theta with physical curves and w with the clamped pseudoinverse fit.

    theta rows are the resolved curves in the order given; the weights are
    ``t @ pinv(theta)`` with negative entries clamped at zero (clamp counts
    land in the diagnostics). Rows whose largest difference is at most 1e-12
    of the larger row maximum are flagged as near-duplicates; non-finite curves
    are rejected. An overflowing data mean or fit raises :class:`NumericalError`.
    """
    t = require_matrix(t, "t")
    require_rank(t.shape, len(specs))
    if t.shape[1] != grid.m:
        raise ValidationError(
            f"data has {t.shape[1]} time points but the grid has {grid.m}"
        )

    amp_default = float(np.max(t) - np.min(t))
    if amp_default <= 0.0:
        amp_default = max(float(np.max(t)), 1.0)
    data_mean = finite(lambda: t.mean(axis=0), "the data mean")
    rows = []
    for j, spec in enumerate(specs):
        rows.append(component_curve(resolve_spec(spec, grid, amp_default), grid, data_mean))
        if not np.all(np.isfinite(rows[-1])):
            raise ValidationError(f"component {j} ({spec.kind}): the curve is not finite")
    theta = np.vstack(rows)

    duplicates = []
    for i in range(theta.shape[0]):
        for j in range(i + 1, theta.shape[0]):
            if np.max(np.abs(theta[i] - theta[j])) <= 1e-12 * max(theta[i].max(), theta[j].max()):
                duplicates.append((i, j))
    if duplicates:
        logger.warning("knowledge init: near-duplicate theta rows %s", duplicates)

    w_raw = finite(lambda: t @ pinv(theta), "the weight fit")
    clamped = int(np.sum(w_raw < 0.0))
    w = np.maximum(0.0, w_raw)
    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag="knowledge",
        diagnostics={"clamped": clamped, "duplicate_rows": duplicates},
    )


def _leading_triplets(t: np.ndarray, k: int) -> SvdResult:
    """The k leading singular triplets of ``t`` from the Gram matrix of its smaller side.

    ``t`` is scaled exactly by 2**-e, with e from :func:`linalg.unit_exponent`, one
    :func:`linalg.row_blocks` block of its long side at a time, and the Gram matrix
    sums the blocks' in order. It is positive semidefinite, so its :func:`linalg.svd`
    pairs are its eigenpairs. An eigenvalue at most side * eps * lambda_1 gives
    sigma = 0 and a zero vector on the long side. Signs follow :func:`linalg.orient`.
    """
    e = unit_exponent(t)
    wide = t.shape[0] < t.shape[1]
    tall = t.T if wide else t
    blocks = row_blocks(tall.shape[0])
    scaled = (np.ldexp(tall[b], -e) for b in blocks)
    gram = svd(reduce(np.add, (np.dot(s.T, s) for s in scaled)))
    lam, vecs = gram.sigma[:k], gram.v[:, :k].copy()  # svd's arrays are read-only
    floor = gram.sigma.size * np.finfo(float).eps * gram.sigma[0]
    sigma = np.sqrt(np.where(lam > floor, lam, 0.0))
    other = np.zeros((tall.shape[0], k))
    for b in blocks:
        np.divide(np.dot(np.ldexp(tall[b], -e), vecs), sigma, out=other[b], where=sigma > 0.0)
    u, v = (vecs, other) if wide else (other, vecs)
    orient(u, v)
    return SvdResult(u=u, sigma=finite(lambda: np.ldexp(sigma, e), "the leading singular value"), v=v)


def nndsvd_init(t, k: int) -> InitResult:
    """Build factors from positive sections of the leading SVD triplets.

    For each triplet j the rank-one term splits into a positive and a
    negative section; the dominant of the two candidate sub-triplets (by the
    norm-product weight mu) seeds column j of w and row j of theta; where
    the two mu agree to 1e-9 relative, the section with the larger v norm
    wins, then the positive one, so row order cannot change the choice. The
    first triplet uses its positive section directly, which for non-negative
    data is the whole leading pair. Deterministic, and ``t * 4**j`` gives
    both factors times ``2**j`` bit for bit (:func:`_leading_triplets`).
    """
    t = require_matrix(t, "t")
    require_nonnegative(t, "t")
    require_rank(t.shape, k)

    res = _leading_triplets(t, k)
    w, theta = np.zeros((t.shape[0], k)), np.zeros((k, t.shape[1]))
    choices = []

    for j in range(k):
        u_pos, u_neg = split_sections(res.u[:, j : j + 1])
        v_pos, v_neg = split_sections(res.v[:, j : j + 1])
        nv_pos, nv_neg = norm(v_pos), norm(v_neg)
        mu_pos = float(norm(u_pos) * nv_pos * res.sigma[j])
        mu_neg = float(norm(u_neg) * nv_neg * res.sigma[j])
        # Row order can round a tie in mu either way; it leaves v alone.
        tied = abs(mu_pos - mu_neg) < 1e-9 * max(mu_pos, mu_neg)
        if j == 0 or (nv_pos >= nv_neg if tied else mu_pos >= mu_neg):
            mu, u_sec, v_sec, tag = mu_pos, u_pos, v_pos, "+"
        else:
            mu, u_sec, v_sec, tag = mu_neg, u_neg, v_neg, "-"
        choices.append(tag)
        if mu <= 0.0:
            continue  # degenerate triplet leaves a zero component
        w[:, j] = np.sqrt(mu) * (u_sec[:, 0] / norm(u_sec))
        theta[j] = np.sqrt(mu) * (v_sec[:, 0] / norm(v_sec))

    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag="nndsvd",
        diagnostics={"dominant_triplets": choices},
    )


def random_init(t, k: int, seed: int) -> InitResult:
    """Strictly positive uniform factors scaled so w @ theta matches the data.

    Entries are i.i.d. uniform on (0, s] with ``s = sqrt(mean(t) / k)``,
    drawn from a generator seeded with ``seed`` >= 0 (w first, then theta). Data
    whose mean overflows raises :class:`NumericalError`.
    """
    t = require_matrix(t, "t")
    require_rank(t.shape, k)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    mean = float(finite(t.mean, "the data mean"))
    scale = np.sqrt(mean / k) if mean > 0.0 else 1.0
    w = scale * (1.0 - rng.random((t.shape[0], k)))
    theta = scale * (1.0 - rng.random((k, t.shape[1])))
    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag=f"random[{seed}]",
        diagnostics={"seed": seed, "scale": scale},
    )
