"""Dense real matrix kernels and the numerical rules the whole package follows.

The SVD is LAPACK's ``gesdd``, the package's one ``np.linalg`` route, with input
validation, read-only results and one sign convention (:func:`orient`); NNDSVD takes its
triplets through it. Sums run in one thread (:func:`dot`, :func:`norm`) or in fixed row
blocks (:func:`row_blocks`), whose bytes do not depend on the BLAS thread count; scaling
is by exact powers of two (:func:`unit_exponent`); every check of an array finds its first
non-finite or negative entry with :func:`first_bad`; :func:`finite` reports an overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError

# A value at or below this has no finite reciprocal.
RECIPROCAL_FLOOR = 1.0 / np.finfo(float).max


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of ``x * y`` over all entries, in one thread: BLAS ``ddot`` (``@``,
    ``np.vdot``, ``np.linalg.norm``) splits long vectors and moves the last bit."""
    return np.einsum("i,i->", x.ravel(), y.ravel())


# Rows per block of a sum over the long side. OpenBLAS runs a product of at most 2**18
# multiply-adds (rows x K x M) in one thread, and 2048 rows at K x M = 128 make 2**18.
ROW_BLOCK = 2048


def row_blocks(n: int, width: int = 1) -> list[slice]:
    """``range(n)`` in slices of min(:data:`ROW_BLOCK`, 2**18 // ``width``) rows, the last shorter."""
    rows = min(ROW_BLOCK, max(1, 2**18 // width))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def norm(x: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of ``x``, summed in one thread by :func:`dot`."""
    return np.sqrt(dot(x, x))


def unit_exponent(x: np.ndarray) -> int:
    """The e with ``max|x| * 2**-e`` in [0.5, 1), 0 for all-zero ``x``;
    ``np.ldexp(x, -e)`` is exact unless an entry turns subnormal."""
    return int(np.frexp(max(np.max(x), -np.min(x)))[1])


def orient(u: np.ndarray, v: np.ndarray) -> None:
    """Flip (u_j, v_j) in place so the first largest-magnitude entry of u_j is positive."""
    flip = u[np.argmax(np.abs(u), axis=0), range(u.shape[1])] < 0.0
    u[:, flip], v[:, flip] = -u[:, flip], -v[:, flip]


def first_bad(a, nonnegative: bool = False) -> tuple[int, ...] | None:
    """The index of the first entry of ``a`` that is not finite (or, if ``nonnegative``, is below
    0.0), or None; ``()`` for a 0-d ``a``. min(a, 0) and max(a, 0), which NaN reaches, decide."""
    lo, hi = np.min(a, initial=0.0), np.max(a, initial=0.0)
    if np.isfinite(hi) and (lo >= 0.0 if nonnegative else np.isfinite(lo)):
        return None
    return tuple(int(i) for i in np.argwhere(~np.isfinite(a) | (nonnegative & (a < 0.0)))[0])


def finite(compute, what: str) -> np.ndarray:
    """``compute()``, or :class:`NumericalError` naming ``what`` if it is not finite."""
    # The check reports an overflow; numpy's warning would repeat it.
    with np.errstate(over="ignore"):
        value = compute()
    if first_bad(value) is not None:
        raise NumericalError(f"{what} overflows double precision")
    return value


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got {arr.ndim} dimension(s)")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if (bad := first_bad(arr)) is not None:
        raise ValidationError(f"{name} contains a non-finite entry at {bad}")
    return arr


def require_rank(shape, k: int) -> None:
    """Reject a rank outside ``1 <= k <= min(N, M)`` for an N x M matrix."""
    limit = min(shape)
    if not 1 <= k <= limit:
        raise ValidationError(
            f"rank {k} out of range for a {shape[0]}x{shape[1]} matrix "
            f"(need 1 <= k <= min(N, M) = {limit})"
        )


def require_conforming(w: np.ndarray, theta: np.ndarray, shape=None, pre: str = "") -> None:
    """Reject factors whose inner sizes differ, or whose product is not ``shape`` if given."""
    (n, k), (k_theta, m) = w.shape, theta.shape
    if k != k_theta:
        raise ShapeError(f"{pre}w is {n}x{k} but {pre}theta is {k_theta}x{m}")
    if shape is not None and shape != (n, m):
        raise ShapeError(f"t is {shape[0]}x{shape[1]} but w @ theta is {n}x{m}")


def require_nonnegative(a: np.ndarray, name: str) -> None:
    """Reject a finite array with a negative entry, naming the first eight."""
    if first_bad(a, nonnegative=True) is not None:
        coords = [tuple(int(c) for c in rc) for rc in np.argwhere(a < 0.0)[:8]]
        raise ValidationError(f"{name} has negative entries at {coords}")


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``a = u @ diag(sigma) @ v.T``.

    ``u`` is rows x r and ``v`` is cols x r with orthonormal columns;
    ``sigma`` holds r non-increasing singular values: r = min(rows, cols)
    from :func:`svd`; r = k from NNDSVD's route through the :func:`svd` of a
    Gram matrix, where a zero singular value has a zero vector on the long side.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def svd(a) -> SvdResult:
    """Thin SVD from LAPACK (via numpy) with a deterministic sign convention.

    Signs follow :func:`orient`. A LAPACK convergence failure or a non-finite
    singular value raises :class:`NumericalError`.
    """
    a = require_matrix(a, "svd input")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed: {exc}") from exc
    if first_bad(sigma) is not None:
        raise NumericalError("svd failed: a singular value is not finite")
    v = vt.T
    orient(u, v)
    for part in (u, sigma, v):
        part.setflags(write=False)
    return SvdResult(u=u, sigma=sigma, v=v)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD.

    Singular values at or below ``1e-12 * max(rows, cols) * sigma_max``, or
    too small for their reciprocal to be finite, are treated as zero. An
    all-zero matrix yields the all-zero transpose-shaped pseudoinverse.
    """
    a = require_matrix(a, "pinv input")
    res = svd(a)
    cutoff = max(1e-12 * max(a.shape) * res.sigma[0], RECIPROCAL_FLOOR)
    inv = np.zeros_like(res.sigma)
    keep = res.sigma > cutoff
    inv[keep] = 1.0 / res.sigma[keep]
    return (res.v * inv) @ res.u.T


def split_sections(x):
    """Split ``x`` into its element-wise positive and negative sections.

    Returns ``(pos, neg)`` with ``pos - neg == x`` exactly, both parts
    non-negative and with disjoint supports.
    """
    x = require_matrix(x, "split input")
    pos = np.where(x > 0.0, x, 0.0)
    neg = np.where(x < 0.0, -x, 0.0)
    return pos, neg
