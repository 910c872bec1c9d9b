import re
from pathlib import Path

import numpy as np
import pytest

import tsnmf
from tsnmf import NumericalError, SvdResult, ValidationError, pinv, split_sections, svd
from tsnmf.linalg import (
    dot,
    norm,
    orient,
    require_matrix,
    require_nonnegative,
    require_rank,
    unit_exponent,
)


class TestSvd:
    def test_identity_matrix(self):
        res = svd(np.eye(4))
        assert np.allclose(res.sigma, np.ones(4))

    def test_diagonal_matrix(self):
        res = svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.sigma, [3.0, 2.0])
        # Columns of u and v are signed permutations of identity columns;
        # the sign convention makes them exactly the identity here.
        assert np.allclose(res.u, np.eye(2), atol=1e-12)
        assert np.allclose(res.v, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_oracle_100x32(self, seed):
        a = np.random.default_rng(seed).random((100, 32))
        res = svd(a)
        rel = np.linalg.norm(a - res.reconstruct()) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_orthonormality(self):
        a = np.random.default_rng(3).random((40, 12))
        res = svd(a)
        assert np.abs(res.u.T @ res.u - np.eye(12)).max() <= 1e-10
        assert np.abs(res.v.T @ res.v - np.eye(12)).max() <= 1e-10

    def test_sigma_sorted_nonnegative(self):
        res = svd(np.random.default_rng(4).random((10, 6)))
        assert np.all(res.sigma >= 0)
        assert np.all(np.diff(res.sigma) <= 0)

    def test_transpose_has_same_singular_values(self):
        a = np.random.default_rng(5).random((9, 13))
        s1 = svd(a).sigma
        s2 = svd(a.T).sigma
        assert np.abs(s1 - s2).max() <= 1e-10 * s1[0]

    def test_matches_numpy_singular_values(self):
        a = np.random.default_rng(6).random((25, 10)) - 0.3
        expected = np.linalg.svd(a, compute_uv=False)
        assert np.abs(svd(a).sigma - expected).max() <= 1e-10 * expected[0]

    def test_rank_deficient_stays_orthonormal(self):
        rng = np.random.default_rng(7)
        a = rng.random((6, 2)) @ rng.random((2, 4))
        res = svd(a)
        assert np.abs(res.u.T @ res.u - np.eye(4)).max() <= 1e-10
        assert res.sigma[2] <= 1e-10 * res.sigma[0]
        rel = np.linalg.norm(a - res.reconstruct()) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_deterministic(self):
        a = np.random.default_rng(8).random((12, 7))
        r1, r2 = svd(a), svd(a)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.v, r2.v)

    def test_wide_matrix(self):
        a = np.random.default_rng(9).random((4, 11))
        res = svd(a)
        assert res.u.shape == (4, 4)
        assert res.v.shape == (11, 4)
        assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * np.linalg.norm(a)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            svd([[1.0, np.inf], [0.0, 1.0]])

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(2))

    def test_overflowing_singular_value_is_numerical_error(self):
        # Every entry is finite, but the row's norm, its one singular value, is not.
        with pytest.raises(NumericalError, match="singular value"):
            svd([[1.0, 1.7e308, 1.7e308, 1.0, 1.7e308, 1.7e308]])

    @pytest.mark.parametrize(
        "a",
        [
            np.random.default_rng(15).random((30, 8)) - 0.5,
            np.random.default_rng(16).random((5, 17)) - 0.5,
            np.random.default_rng(17).random((12, 3))
            @ np.random.default_rng(18).random((3, 9)),
        ],
        ids=["tall", "wide", "rank-deficient"],
    )
    def test_sign_convention(self, a):
        res = svd(a)
        peaks = np.argmax(np.abs(res.u), axis=0)
        assert np.all(res.u[peaks, np.arange(res.sigma.size)] > 0.0)
        rebuilt = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(a - rebuilt) <= 1e-12 * np.linalg.norm(a)


def penrose_defects(a, p):
    return (
        np.abs(a @ p @ a - a).max(),
        np.abs(p @ a @ p - p).max(),
        np.abs(a @ p - (a @ p).T).max(),
        np.abs(p @ a - (p @ a).T).max(),
    )


class TestPinv:
    def test_diagonal_inverse(self):
        p = pinv(np.diag([2.0, 4.0]))
        assert np.allclose(p, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zero_matrix(self):
        p = pinv(np.zeros((2, 3)))
        assert p.shape == (3, 2)
        assert np.all(p == 0.0)

    def test_penrose_conditions_rank_deficient(self):
        rng = np.random.default_rng(10)
        a = rng.random((6, 2)) @ rng.random((2, 4))
        p = pinv(a)
        assert max(penrose_defects(a, p)) <= 1e-8

    def test_singular_value_with_overflowing_reciprocal_counts_as_zero(self):
        # 1 / 5e-324 overflows to inf, which would fill the result with nan.
        assert np.array_equal(pinv([[5e-324, 5e-324]]), [[0.0], [0.0]])

    def test_double_pinv_full_rank(self):
        a = np.random.default_rng(11).random((8, 5)) + 0.1
        back = pinv(pinv(a))
        assert np.abs(back - a).max() <= 1e-8


class TestSplitSections:
    def test_sign_split(self):
        pos, neg = split_sections([[1.0, -2.0]])
        assert np.array_equal(pos, [[1.0, 0.0]])
        assert np.array_equal(neg, [[0.0, 2.0]])

    def test_nonnegative_input(self):
        x = np.array([[0.5, 0.0], [2.0, 1.0]])
        pos, neg = split_sections(x)
        assert np.array_equal(pos, x)
        assert np.all(neg == 0.0)

    def test_reconstructs_exactly(self):
        x = np.random.default_rng(12).standard_normal((9, 9))
        pos, neg = split_sections(x)
        assert np.array_equal(pos - neg, x)
        assert np.all(pos >= 0) and np.all(neg >= 0)
        assert np.all(pos * neg == 0.0)

    def test_disjoint_support_norm_identity(self):
        x = np.random.default_rng(13).standard_normal((7, 5))
        pos, neg = split_sections(x)
        total = np.sum(x * x)
        assert abs(np.sum(pos * pos) + np.sum(neg * neg) - total) <= 1e-12 * total


def test_svd_result_is_read_only():
    res = svd(np.random.default_rng(14).random((5, 4)))
    assert isinstance(res, SvdResult)
    with pytest.raises(ValueError):
        res.u[0, 0] = 1.0


class TestInputRules:
    @pytest.mark.parametrize("k", [0, 4])
    def test_rank_outside_the_bound_is_named(self, k):
        message = rf"^rank {k} out of range for a 3x5 matrix \(need 1 <= k <= min\(N, M\) = 3\)$"
        with pytest.raises(ValidationError, match=message):
            require_rank((3, 5), k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_rank_at_the_bound_is_accepted(self, k):
        require_rank((5, 3), k)

    def test_negative_entries_are_named_up_to_eight(self):
        a = np.zeros((3, 4))
        a[2, 1] = -1.0
        with pytest.raises(ValidationError, match=r"^t has negative entries at \[\(2, 1\)\]$"):
            require_nonnegative(a, "t")
        with pytest.raises(ValidationError, match=r"at \[\(0, 0\), .*, \(1, 3\)\]$"):
            require_nonnegative(-np.ones((3, 4)), "w")

    def test_negative_zero_is_accepted(self):
        require_nonnegative(np.array([[-0.0, 1.0]]), "t")

    @pytest.mark.parametrize(
        "a,message",
        [
            ([1.0, 2.0], r"must be 2-D, got 1 dimension\(s\)"),
            (np.zeros((0, 3)), r"must be non-empty, got shape \(0, 3\)"),
            ([[]], r"must be non-empty, got shape \(1, 0\)"),
        ],
        ids=["1-D", "no-rows", "no-columns"],
    )
    def test_matrix_shape_is_named(self, a, message):
        with pytest.raises(ValidationError, match=rf"^t {message}$"):
            require_matrix(a, "t")


def orient_by_loop(u, v):
    """The per-column sign rule as a loop: the reference :func:`linalg.orient` must match."""
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]


class TestSharedRules:
    def test_unit_exponent_of_zeros_is_zero(self):
        assert unit_exponent(np.zeros((3, 2))) == 0

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[-3.0, -0.25], [-1e-3, -7.5]]),
            np.array([5e-324, 0.0, -3e-310]),
            np.array([-1.0, 0.5]),
            np.array([[1.7e308, -2.0]]),
            np.random.default_rng(3).standard_normal((20, 4)),
        ],
        ids=["negative-only", "subnormal", "power-of-two", "near-max", "mixed"],
    )
    def test_unit_exponent_scales_the_peak_into_half_to_one(self, x):
        peak = np.max(np.abs(np.ldexp(x, -unit_exponent(x))))
        assert 0.5 <= peak < 1.0

    @pytest.mark.parametrize(
        "u",
        [
            np.array([[-0.5, 0.5, 0.0], [0.5, -0.5, -0.0], [0.25, 0.1, 0.0]]),
            np.array([[0.3, -0.7], [-0.7, 0.3], [0.7, -0.7]]),
            np.random.default_rng(5).standard_normal((9, 4)),
        ],
        ids=["ties", "three-way-ties", "random"],
    )
    def test_orient_matches_the_column_loop(self, u):
        # In a tie of magnitudes the loop's argmax takes the first entry.
        v = np.random.default_rng(6).standard_normal((5, u.shape[1]))
        ref_u, ref_v = u.copy(), v.copy()
        orient_by_loop(ref_u, ref_v)
        orient(u, v)
        assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (540, 32), (10_800, 1), (10_800, 32), (108_000, 32)])
    def test_dot_equals_the_2d_einsum_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0])
        x, y = rng.random(shape) * 800.0, rng.standard_normal(shape)
        assert dot(x, y) == np.einsum("ij,ij->", x, y)
        assert norm(x) == np.sqrt(np.einsum("ij,ij->", x, x))


def test_shared_rules_have_one_home():
    # A sum taken by BLAS ddot depends on the thread count; scaling and these
    # sums go through linalg's helpers, so nothing outside it calls them. LAPACK
    # is reached through linalg.svd alone, and factor-pair conformity through
    # linalg.require_conforming. Sums over the long side run in linalg.row_blocks,
    # so no module holds a full-size scratch copy of t; ROW_BLOCK is the one block size.
    package = Path(tsnmf.__file__).parent
    banned = re.compile(
        r"np\.(linalg\.|(vdot|frexp|einsum)\b)|but \S*(w @ )?theta is"
        r"|np\.ldexp\(t\b|np\.empty\(t\.shape\)|^\s*[A-Z_]*BLOCK[A-Z_]*\s*="
    )
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if banned.search(line)
    ]
    assert found == []
    sizes = re.findall(r"^[A-Z_]*BLOCK[A-Z_]*\s*=", (package / "linalg.py").read_text(), re.M)
    assert sizes == ["ROW_BLOCK ="]
