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
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import pinv, require_matrix, split_sections, svd

logger = logging.getLogger(__name__)

MEAN = "mean"
COOLING = "cooling"
HEATING = "heating"
BATH_PULSE = "bathpulse"
HEAT_KERNEL = "heatkernel"
CURVE_KINDS = (MEAN, COOLING, HEATING, BATH_PULSE, HEAT_KERNEL)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid ``t_m = m * dt`` for ``m = 0 .. m-1``."""

    m: int
    dt: float
    values: np.ndarray

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
    values = dt * np.arange(m, dtype=float)
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
        if self.kind not in CURVE_KINDS:
            raise ValidationError(
                f"unknown curve kind {self.kind!r}, expected one of {CURVE_KINDS}"
            )
        for name in ("amp", "tau_c", "tau_h"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.r is not None and self.r < 0.0:
            raise ValidationError(f"r must be >= 0, got {self.r}")
        if (
            self.kind == BATH_PULSE
            and self.tau_c is not None
            and self.tau_h is not None
            and self.tau_c == self.tau_h
        ):
            logger.warning(
                "bathpulse with tau_c == tau_h == %s describes the zero curve",
                self.tau_c,
            )


def resolve_spec(spec: ComponentSpec, grid: TimeGrid, amp_default: float = 1.0) -> ComponentSpec:
    """Fill unset parameters with grid-derived defaults.

    tau_c defaults to t_end/3 and tau_h to t_end/10, except for the bath
    pulse where tau_h defaults to t_end/12 so the difference curve spans the
    window; r defaults to 0.
    """
    if spec.kind == MEAN:
        return spec
    updates = {}
    if spec.amp is None:
        updates["amp"] = amp_default
    if spec.tau_c is None and spec.kind in (COOLING, BATH_PULSE):
        updates["tau_c"] = grid.t_end / 3.0
    if spec.tau_h is None and spec.kind == HEATING:
        updates["tau_h"] = grid.t_end / 10.0
    if spec.tau_h is None and spec.kind == BATH_PULSE:
        updates["tau_h"] = grid.t_end / 12.0
    if spec.r is None and spec.kind == HEAT_KERNEL:
        updates["r"] = 0.0
    return dataclasses.replace(spec, **updates) if updates else spec


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

    if spec.amp is None:
        raise ValidationError(f"{spec.kind} curve needs an amplitude; resolve the spec first")
    amp = spec.amp

    if spec.kind == COOLING:
        if spec.tau_c is None:
            raise ValidationError("cooling curve needs tau_c")
        return amp * np.exp(-t / spec.tau_c)
    if spec.kind == HEATING:
        if spec.tau_h is None:
            raise ValidationError("heating curve needs tau_h")
        return amp * (1.0 - np.exp(-t / spec.tau_h))
    if spec.kind == BATH_PULSE:
        if spec.tau_c is None or spec.tau_h is None:
            raise ValidationError("bathpulse curve needs tau_c and tau_h")
        if spec.tau_c <= spec.tau_h:
            raise ValidationError(
                f"bathpulse needs tau_c > tau_h, got tau_c = {spec.tau_c}, "
                f"tau_h = {spec.tau_h} (the curve would not stay non-negative)"
            )
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


def _check_rank(t: np.ndarray, k: int) -> None:
    limit = min(t.shape)
    if not 1 <= k <= limit:
        raise ValidationError(
            f"rank {k} out of range for a {t.shape[0]}x{t.shape[1]} matrix "
            f"(need 1 <= k <= min(N, M) = {limit})"
        )


def knowledge_init(t, grid: TimeGrid, specs) -> InitResult:
    """Seed theta with physical curves and w with the clamped pseudoinverse fit.

    theta rows are the resolved curves in the order given; the weights are
    ``t @ pinv(theta)`` with negative entries clamped at zero (clamp counts
    land in the diagnostics). Near-duplicate curve rows are flagged, not
    rejected.
    """
    t = require_matrix(t, "t")
    if not specs:
        raise ValidationError("need at least one component spec")
    if t.shape[1] != grid.m:
        raise ValidationError(
            f"data has {t.shape[1]} time points but the grid has {grid.m}"
        )
    _check_rank(t, len(specs))

    amp_default = float(np.max(t) - np.min(t))
    if amp_default <= 0.0:
        amp_default = max(float(np.max(t)), 1.0)
    data_mean = t.mean(axis=0)
    rows = [
        component_curve(resolve_spec(spec, grid, amp_default), grid, data_mean)
        for spec in specs
    ]
    theta = np.vstack(rows)

    duplicates = []
    for i in range(theta.shape[0]):
        for j in range(i + 1, theta.shape[0]):
            scale = max(np.linalg.norm(theta[i]), np.linalg.norm(theta[j]), 1.0)
            if np.linalg.norm(theta[i] - theta[j]) <= 1e-12 * scale:
                duplicates.append((i, j))
    if duplicates:
        logger.warning("knowledge init: near-duplicate theta rows %s", duplicates)

    w_raw = t @ pinv(theta)
    clamped = int(np.sum(w_raw < 0.0))
    w = np.maximum(0.0, w_raw)
    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag="knowledge",
        diagnostics={"clamped": clamped, "duplicate_rows": duplicates},
    )


def nndsvd_init(t, k: int) -> InitResult:
    """Build factors from positive sections of the leading SVD triplets.

    For each triplet j the rank-one term splits into a positive and a
    negative section; the dominant of the two candidate sub-triplets (by the
    norm-product weight mu) seeds column j of w and row j of theta. The
    first triplet uses its positive section directly, which for non-negative
    data is the whole leading pair. Deterministic: no randomness, and the
    SVD sign convention is fixed.
    """
    t = require_matrix(t, "t")
    if np.any(t < 0.0):
        bad = tuple(int(c) for c in np.argwhere(t < 0.0)[0])
        raise ValidationError(f"nndsvd needs non-negative data, found t{bad} < 0")
    _check_rank(t, k)

    res = svd(t)
    n, m = t.shape
    w = np.zeros((n, k))
    theta = np.zeros((k, m))
    choices = []

    for j in range(k):
        sigma_j = float(res.sigma[j])
        u = res.u[:, j : j + 1]
        v = res.v[:, j : j + 1]
        u_pos, u_neg = split_sections(u)
        v_pos, v_neg = split_sections(v)
        mu_pos = float(np.linalg.norm(u_pos) * np.linalg.norm(v_pos) * sigma_j)
        mu_neg = float(np.linalg.norm(u_neg) * np.linalg.norm(v_neg) * sigma_j)

        if j == 0 or mu_pos >= mu_neg:
            mu, u_sec, v_sec, tag = mu_pos, u_pos, v_pos, "+"
        else:
            mu, u_sec, v_sec, tag = mu_neg, u_neg, v_neg, "-"
        choices.append(tag)
        if mu <= 0.0:
            continue  # degenerate triplet leaves a zero component
        w[:, j] = np.sqrt(mu) * (u_sec[:, 0] / np.linalg.norm(u_sec))
        theta[j] = np.sqrt(mu) * (v_sec[:, 0] / np.linalg.norm(v_sec))

    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag="nndsvd",
        diagnostics={"dominant_triplets": choices},
    )


def random_init(t, k: int, seed: int) -> InitResult:
    """Strictly positive uniform factors scaled so w @ theta matches the data.

    Entries are i.i.d. uniform on (0, s] with ``s = sqrt(mean(t) / k)``,
    drawn from a generator seeded with ``seed`` (w first, then theta).
    """
    t = require_matrix(t, "t")
    _check_rank(t, k)
    rng = np.random.default_rng(seed)
    mean = float(t.mean())
    scale = np.sqrt(mean / k) if mean > 0.0 else 1.0
    w = scale * (1.0 - rng.random((t.shape[0], k)))
    theta = scale * (1.0 - rng.random((k, t.shape[1])))
    return InitResult(
        w_init=w,
        theta_init=theta,
        strategy_tag=f"random[{seed}]",
        diagnostics={"seed": seed, "scale": scale},
    )
