import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tsnmf

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEAT_KERNEL,
    HEATING,
    MEAN,
    ComponentSpec,
    NumericalError,
    ValidationError,
    bath_pulse_peak_time,
    component_curve,
    knowledge_init,
    nndsvd_init,
    random_init,
    resolve_spec,
    svd,
    time_vector,
)
from tsnmf.initialization import _leading_triplets

from test_acceptance import RECOVERY_COMPONENTS, planted_dataset


class TestTimeVector:
    def test_recording_span(self):
        # 32 samples spaced 5 s apart span exactly 155 s.
        grid = time_vector(32, 5.0)
        assert grid.values[-1] == 155.0
        assert grid.t_end == 155.0

    def test_single_sample(self):
        assert np.array_equal(time_vector(1, 1.0).values, [0.0])

    def test_small_grid(self):
        assert np.array_equal(time_vector(4, 0.5).values, [0.0, 0.5, 1.0, 1.5])

    def test_strictly_increasing(self):
        grid = time_vector(10, 0.25)
        assert np.all(np.diff(grid.values) > 0)

    def test_grids_compare_and_hash_by_m_and_dt(self):
        assert time_vector(4, 1.0) == time_vector(4, 1.0)
        assert hash(time_vector(4, 1.0)) == hash(time_vector(4, 1.0))
        assert time_vector(4, 1.0) != time_vector(4, 2.0)
        assert time_vector(4, 1.0) != time_vector(5, 1.0)

    @pytest.mark.parametrize(
        "m,dt", [(0, 1.0), (3, 0.0), (3, -1.0), (3, float("nan")), (3, float("inf"))]
    )
    def test_invalid_inputs(self, m, dt):
        with pytest.raises(ValidationError):
            time_vector(m, dt)


class TestComponentCurve:
    def setup_method(self):
        self.grid = time_vector(64, 2.0)

    def test_heating_limits(self):
        spec = ComponentSpec(HEATING, amp=3.0, tau_h=10.0)
        curve = component_curve(spec, self.grid)
        assert curve[0] == 0.0
        at_10_tau = 3.0 * (1.0 - np.exp(-10.0))
        idx = int(np.searchsorted(self.grid.values, 100.0))
        assert curve[idx] >= 0.9999 * 3.0
        assert curve[idx] == pytest.approx(at_10_tau, rel=1e-12)

    def test_cooling_values(self):
        spec = ComponentSpec(COOLING, amp=2.0, tau_c=4.0)
        curve = component_curve(spec, self.grid)
        assert curve[0] == 2.0
        idx = int(np.where(self.grid.values == 4.0)[0][0])
        assert curve[idx] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)

    def test_bath_pulse_peak_brackets_analytic_argmax(self):
        # Oracle: the continuous argmax from the zero of the derivative.
        tau_c, tau_h = 40.0, 7.0
        spec = ComponentSpec(BATH_PULSE, amp=1.0, tau_c=tau_c, tau_h=tau_h)
        curve = component_curve(spec, self.grid)
        t_star = bath_pulse_peak_time(tau_c, tau_h)
        peak = int(np.argmax(curve))
        assert self.grid.values[max(peak - 1, 0)] <= t_star <= self.grid.values[peak + 1]

    def test_bath_pulse_requires_separated_constants(self):
        with pytest.raises(ValidationError, match="tau_c > tau_h"):
            component_curve(
                ComponentSpec(BATH_PULSE, amp=1.0, tau_c=5.0, tau_h=9.0), self.grid
            )
        with pytest.raises(ValidationError):
            component_curve(
                ComponentSpec(BATH_PULSE, amp=1.0, tau_c=5.0, tau_h=5.0), self.grid
            )

    def test_heat_kernel_origin_rule(self):
        far = component_curve(ComponentSpec(HEAT_KERNEL, amp=1.0, r=2.0), self.grid)
        assert far[0] == 0.0
        near = component_curve(ComponentSpec(HEAT_KERNEL, amp=1.0, r=0.0), self.grid)
        assert near[0] == near[1]
        assert near[1] == pytest.approx(1.0 / np.sqrt(4.0 * np.pi * 2.0), rel=1e-12)

    def test_mean_requires_data(self):
        with pytest.raises(ValidationError, match="mean"):
            component_curve(ComponentSpec(MEAN), self.grid)

    def test_all_curves_nonnegative(self):
        specs = [
            ComponentSpec(COOLING, amp=1.0, tau_c=20.0),
            ComponentSpec(HEATING, amp=1.0, tau_h=15.0),
            ComponentSpec(BATH_PULSE, amp=1.0, tau_c=40.0, tau_h=6.0),
            ComponentSpec(HEAT_KERNEL, amp=1.0, r=1.5),
        ]
        for spec in specs:
            assert np.all(component_curve(spec, self.grid) >= 0.0)

    def test_resolve_fills_grid_defaults(self):
        spec = resolve_spec(ComponentSpec(BATH_PULSE), self.grid, amp_default=7.0)
        assert spec.amp == 7.0
        assert spec.tau_c == pytest.approx(self.grid.t_end / 3.0)
        assert spec.tau_h == pytest.approx(self.grid.t_end / 12.0)


class TestComponentSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ComponentSpec("sigmoid")

    def test_nonpositive_parameters(self):
        with pytest.raises(ValidationError):
            ComponentSpec(COOLING, amp=-1.0)
        with pytest.raises(ValidationError):
            ComponentSpec(COOLING, tau_c=0.0)

    @pytest.mark.parametrize("tau_h", [5.0, 9.0])
    def test_bath_pulse_needs_tau_c_above_tau_h(self, tau_h):
        with pytest.raises(ValidationError) as info:
            ComponentSpec(BATH_PULSE, tau_c=5.0, tau_h=tau_h)
        assert str(info.value) == (
            f"bathpulse needs tau_c > tau_h, got tau_c = 5.0, tau_h = {tau_h} "
            "(the curve would not stay non-negative)"
        )

    def test_bath_pulse_positivity_is_checked_before_order(self):
        with pytest.raises(ValidationError, match=r"^tau_c must be positive, got nan$"):
            ComponentSpec(BATH_PULSE, tau_c=float("nan"), tau_h=5.0)
        with pytest.raises(ValidationError, match=r"^tau_h must be positive, got -9.0$"):
            ComponentSpec(BATH_PULSE, tau_c=5.0, tau_h=-9.0)


class TestKnowledgeInit:
    def test_single_curve_gives_unit_weights(self):
        grid = time_vector(32, 5.0)
        spec = ComponentSpec(COOLING, amp=2.0, tau_c=40.0)
        curve = component_curve(spec, grid)
        t = np.tile(curve, (25, 1))
        res = knowledge_init(t, grid, [spec])
        assert np.abs(res.w_init - 1.0).max() <= 1e-10
        assert res.diagnostics["clamped"] == 0

    def test_recovers_planted_weights_with_matching_curves(self):
        # With theta_init equal to the planted rows, t @ pinv(theta) is the
        # planted weight matrix whenever the rows are linearly independent.
        grid = time_vector(32, 5.0)
        specs = [
            ComponentSpec(COOLING, amp=2.0, tau_c=45.0),
            ComponentSpec(BATH_PULSE, amp=3.0, tau_c=50.0, tau_h=9.0),
            ComponentSpec(HEATING, amp=1.5, tau_h=25.0),
        ]
        theta = np.vstack([component_curve(s, grid) for s in specs])
        w = np.random.default_rng(0).random((40, 3)) + 0.05
        t = w @ theta
        res = knowledge_init(t, grid, specs)
        assert np.abs(res.w_init - w).max() <= 1e-8
        assert res.diagnostics["clamped"] == 0

    def test_production_scale_shapes(self):
        grid = time_vector(32, 5.0)
        rng = np.random.default_rng(1)
        t = rng.random((540, 32)) + 0.5
        specs = [
            ComponentSpec(MEAN),
            ComponentSpec(BATH_PULSE),
            ComponentSpec(COOLING),
            ComponentSpec(HEATING),
        ]
        res = knowledge_init(t, grid, specs)
        assert res.w_init.shape == (540, 4)
        assert res.theta_init.shape == (4, 32)
        assert np.all(res.w_init >= 0.0)
        assert np.all(res.theta_init >= 0.0)

    def test_residual_orthogonal_to_row_space_when_unclamped(self):
        grid = time_vector(16, 1.0)
        specs = [
            ComponentSpec(COOLING, amp=1.0, tau_c=6.0),
            ComponentSpec(HEATING, amp=1.0, tau_h=4.0),
        ]
        theta = np.vstack([component_curve(s, grid) for s in specs])
        w = np.random.default_rng(2).random((30, 2)) + 0.1
        # Perturb within the row span plus noise orthogonal to it to keep
        # the pseudoinverse weights positive (no clamping).
        t = w @ theta
        res = knowledge_init(t, grid, specs)
        assert res.diagnostics["clamped"] == 0
        residual = t - res.w_init @ res.theta_init
        defect = np.abs(residual @ res.theta_init.T).max()
        assert defect <= 1e-8 * max(np.abs(t).max(), 1.0)

    def test_rank_validation(self):
        grid = time_vector(4, 1.0)
        t = np.ones((3, 4))
        specs = [ComponentSpec(COOLING)] * 4
        with pytest.raises(ValidationError, match="rank"):
            knowledge_init(t, grid, specs)

    def test_grid_size_mismatch(self):
        grid = time_vector(5, 1.0)
        with pytest.raises(ValidationError):
            knowledge_init(np.ones((3, 4)), grid, [ComponentSpec(COOLING)])

    def test_duplicate_rows_flagged_in_diagnostics(self):
        grid = time_vector(16, 1.0)
        spec = ComponentSpec(COOLING, amp=1.0, tau_c=5.0)
        t = np.random.default_rng(3).random((10, 16)) + 0.1
        res = knowledge_init(t, grid, [spec, spec])
        assert (0, 1) in res.diagnostics["duplicate_rows"]

    @pytest.mark.parametrize("scale", [1e-15, 1.0, 1e300])
    def test_duplicate_check_is_relative(self, scale):
        # Distinct curves stay distinct at any data scale, without an overflow warning.
        grid = time_vector(16, 1.0)
        t = scale * (np.random.default_rng(3).random((10, 16)) + 0.1)
        specs = [ComponentSpec(MEAN), ComponentSpec(COOLING), ComponentSpec(HEATING)]
        assert knowledge_init(t, grid, specs).diagnostics["duplicate_rows"] == []

    def test_overflowing_mean_is_numerical_error(self):
        # pytest turns numpy's overflow warning into an error, so none may precede it.
        t = 1.7e308 * np.random.default_rng(0).random((6, 6))
        with pytest.raises(NumericalError, match="data mean overflows"):
            knowledge_init(t, time_vector(6, 1.0), [ComponentSpec(MEAN)])


class TestNndsvdInit:
    def test_rank_one_reconstruction(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(12), rng.random(8)
        t = np.outer(x, y)
        res = nndsvd_init(t, 2)
        first = np.outer(res.w_init[:, 0], res.theta_init[0])
        assert np.linalg.norm(first - t) <= 1e-10 * np.linalg.norm(t)
        # Remaining component is dominated by numerical noise.
        second = np.outer(res.w_init[:, 1], res.theta_init[1])
        assert np.linalg.norm(second) <= 1e-10 * np.linalg.norm(t)

    def test_outputs_nonnegative_and_shaped(self):
        t = np.random.default_rng(4).random((20, 15))
        res = nndsvd_init(t, 5)
        assert res.w_init.shape == (20, 5)
        assert res.theta_init.shape == (5, 15)
        assert np.all(res.w_init >= 0.0)
        assert np.all(res.theta_init >= 0.0)
        assert len(res.diagnostics["dominant_triplets"]) == 5

    def test_deterministic(self):
        t = np.random.default_rng(5).random((18, 9))
        r1 = nndsvd_init(t, 4)
        r2 = nndsvd_init(t, 4)
        assert np.array_equal(r1.w_init, r2.w_init)
        assert np.array_equal(r1.theta_init, r2.theta_init)

    def test_rejects_negative_data(self):
        t = np.ones((4, 4))
        t[2, 1] = -0.1
        with pytest.raises(ValidationError, match=r"\(2, 1\)"):
            nndsvd_init(t, 2)

    def test_overflowing_singular_value_is_numerical_error(self):
        t = np.ones((4, 3))
        t[1] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^the leading singular value overflows"):
                nndsvd_init(t, 2)

    def test_power_of_four_scales_both_factors_by_the_root(self):
        # The Gram route sees the same bits at every scale: 2**e is exact.
        t = planted_dataset(RECOVERY_COMPONENTS, seed=7).t_noisy
        base = nndsvd_init(t, 4)
        for j in range(-500, 501, 7):
            scaled = nndsvd_init(np.ldexp(t, 2 * j), 4)
            assert np.array_equal(scaled.w_init, np.ldexp(base.w_init, j)), j
            assert np.array_equal(scaled.theta_init, np.ldexp(base.theta_init, j)), j
            assert scaled.diagnostics == base.diagnostics

    def test_dominant_choice_invariant_under_sign_flip(self):
        # Flipping (u_j, v_j) swaps the roles of the positive and negative
        # sections; the selected rank-one product must not change.
        t = np.random.default_rng(6).random((14, 10))
        res = svd(t)
        for j in range(1, 4):
            u, v, s = res.u[:, j], res.v[:, j], res.sigma[j]

            def select(uu, vv):
                up, un = np.maximum(uu, 0), np.maximum(-uu, 0)
                vp, vn = np.maximum(vv, 0), np.maximum(-vv, 0)
                mu_p = np.linalg.norm(up) * np.linalg.norm(vp) * s
                mu_n = np.linalg.norm(un) * np.linalg.norm(vn) * s
                if mu_p >= mu_n:
                    return mu_p * np.outer(up / np.linalg.norm(up), vp / np.linalg.norm(vp))
                return mu_n * np.outer(un / np.linalg.norm(un), vn / np.linalg.norm(vn))

            assert np.allclose(select(u, v), select(-u, -v), atol=1e-12)


class TestLeadingTriplets:
    """NNDSVD's Gram-route triplets against LAPACK's thin SVD."""

    @pytest.mark.parametrize(
        "t",
        [
            np.random.default_rng(8).random((60, 12)),
            np.random.default_rng(9).random((12, 60)),
            np.random.default_rng(10).random((20, 20)),
            1e-200 * np.random.default_rng(11).random((30, 8)),
            np.random.default_rng(12).random((5_000, 12)),
            np.random.default_rng(13).random((12, 5_000)),
        ],
        ids=["tall", "wide", "square", "tiny", "tall_row_blocks", "wide_row_blocks"],
    )
    def test_matches_lapack(self, t):
        k = 4
        got, ref = _leading_triplets(t, k), svd(t)
        assert np.allclose(got.sigma, ref.sigma[:k], rtol=1e-12, atol=0.0)
        gaps = -np.diff(np.append(ref.sigma, 0.0))
        for j in range(k):
            if min(gaps[max(j - 1, 0) : j + 1]) >= 1e-3 * ref.sigma[0]:
                assert np.max(np.abs(got.u[:, j] - ref.u[:, j])) <= 1e-9, j
                assert np.max(np.abs(got.v[:, j] - ref.v[:, j])) <= 1e-9, j

    def test_section_weights_match_lapack_below_the_tie_rule(self):
        # The acceptance data tiled 20x, where sigma_4 = 63.27 and sigma_5 = 62.33.
        t = np.tile(planted_dataset(RECOVERY_COMPONENTS, seed=7).t_noisy, (20, 1))

        def weights(res):
            # mu of the positive and of the negative section of each triplet
            return np.array(
                [
                    np.linalg.norm(np.maximum(sign * res.u[:, :4], 0.0), axis=0)
                    * np.linalg.norm(np.maximum(sign * res.v[:, :4], 0.0), axis=0)
                    * res.sigma[:4]
                    for sign in (1.0, -1.0)
                ]
            )

        got, ref = weights(_leading_triplets(t, 4)), weights(svd(t))
        # An error ten times below NNDSVD's 1e-9 relative tie rule.
        assert np.all(np.abs(got - ref) <= 1e-10 * ref.max(axis=0))

    def test_zero_singular_values_give_zero_components(self):
        # Without the eigenvalue floor the Gram route gives sigma_2 ~ 1e-8 sigma_1.
        rng = np.random.default_rng(3)
        t = np.outer(rng.random(12), rng.random(8))
        got = _leading_triplets(t, 3)
        assert got.sigma[0] > 0.0 and np.all(got.sigma[1:] == 0.0)
        assert np.all(got.u[:, 1:] == 0.0)
        res = nndsvd_init(t, 3)
        assert np.all(res.w_init[:, 1:] == 0.0) and np.all(res.theta_init[1:] == 0.0)

    def test_all_zero_data_gives_zero_factors(self):
        res = nndsvd_init(np.zeros((5, 4)), 2)
        assert not res.w_init.any() and not res.theta_init.any()

    def test_same_bytes_with_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS splits the Gram product and s @ v across threads at this size.
        t = np.tile(planted_dataset(RECOVERY_COMPONENTS, seed=7).t_noisy, (200, 1))
        np.save(tmp_path / "t.npy", t)
        child = (
            "import hashlib, sys, numpy as np; from tsnmf import nndsvd_init; "
            "r = nndsvd_init(np.load(sys.argv[1]), 4); "
            "print(hashlib.sha256(r.w_init.tobytes() + r.theta_init.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(tsnmf.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", child, str(tmp_path / "t.npy")],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout)
        assert len(digests) == 1


class TestRandomInit:
    def setup_method(self):
        self.t = np.random.default_rng(7).random((25, 12)) + 0.2

    def test_same_seed_is_bit_identical(self):
        r1 = random_init(self.t, 3, seed=11)
        r2 = random_init(self.t, 3, seed=11)
        assert np.array_equal(r1.w_init, r2.w_init)
        assert np.array_equal(r1.theta_init, r2.theta_init)

    def test_different_seeds_differ(self):
        r1 = random_init(self.t, 3, seed=11)
        r2 = random_init(self.t, 3, seed=12)
        assert not np.array_equal(r1.w_init, r2.w_init)

    def test_entries_strictly_positive_and_bounded(self):
        res = random_init(self.t, 3, seed=13)
        scale = np.sqrt(self.t.mean() / 3)
        for factor in (res.w_init, res.theta_init):
            assert np.all(factor > 0.0)
            assert np.all(factor <= scale)

    def test_overflowing_mean_is_numerical_error(self):
        t = 1.7e308 * np.random.default_rng(0).random((6, 6))
        with pytest.raises(NumericalError, match="data mean overflows"):
            random_init(t, 2, seed=0)

    def test_negative_seed_is_validation_error(self):
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            random_init(self.t, 3, seed=-1)


@st.composite
def permuted_problems(draw, min_m=1):
    """A non-negative matrix up to 13 x 9, a rank k <= 4 and a row permutation."""
    n, m = draw(st.integers(1, 13)), draw(st.integers(min_m, 9))
    t = draw(arrays(np.float64, (n, m), elements=st.floats(0.0, 1e3)))
    k = draw(st.integers(1, min(4, n, m)))
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    return t, k, perm


def max_defect(actual, expected):
    """Largest entry-wise difference relative to the largest entry of ``expected``."""
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), np.finfo(float).tiny)


class TestRowPermutationEquivariance:
    """Reordering the recordings reorders the w rows and leaves theta alone."""

    @settings(max_examples=50, deadline=None)
    @given(problem=permuted_problems(min_m=2))
    def test_knowledge_init(self, problem):
        t, k, perm = problem
        grid = time_vector(t.shape[1], 1.0)
        specs = [ComponentSpec(kind) for kind in (MEAN, COOLING, BATH_PULSE, HEATING)][:k]
        base = knowledge_init(t, grid, specs)
        moved = knowledge_init(t[perm], grid, specs)
        # The data mean sums the rows in another order, so theta may move by rounding.
        assert max_defect(moved.theta_init, base.theta_init) <= 1e-12
        assert max_defect(moved.w_init, base.w_init[perm]) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(problem=permuted_problems())
    def test_nndsvd_init(self, problem):
        t, k, perm = problem
        # Singular vectors are defined only up to rotation within a repeated
        # singular value, so ask for the first k + 1 to be well separated.
        res = svd(t)
        sigma = np.append(res.sigma, 0.0)[: k + 1]
        assume(sigma[0] > 0.0 and np.all(-np.diff(sigma) >= 1e-3 * sigma[0]))
        # Where the two sections of a triplet tie, the larger v section wins;
        # only where the v sections tie too does rounding pick one.
        for j in range(1, k):
            u, v = res.u[:, j], res.v[:, j]
            nv_pos, nv_neg = np.linalg.norm(np.maximum(v, 0.0)), np.linalg.norm(np.minimum(v, 0.0))
            mu_pos = np.linalg.norm(np.maximum(u, 0.0)) * nv_pos
            mu_neg = np.linalg.norm(np.minimum(u, 0.0)) * nv_neg
            assume(
                abs(mu_pos - mu_neg) >= 1e-6 * max(mu_pos, mu_neg)
                or abs(nv_pos - nv_neg) >= 1e-6 * max(nv_pos, nv_neg)
            )
        base = nndsvd_init(t, k)
        moved = nndsvd_init(t[perm], k)
        # Normalizing by a small section norm amplifies rounding: not bitwise.
        assert max_defect(moved.theta_init, base.theta_init) <= 1e-6
        assert max_defect(moved.w_init, base.w_init[perm]) <= 1e-6

    def test_nndsvd_tie_is_broken_by_the_larger_v_section(self):
        # Triplet 2 of either row order has mu_pos == mu_neg in exact
        # arithmetic, so a comparison of the rounded mu would give theta row 2
        # as [0.526, 0] for one order and [0, 0.526] for the other.
        t = np.array([[1.0, 0.0], [1.0, 1.0]])
        perm = np.array([1, 0])
        base, moved = nndsvd_init(t, 2), nndsvd_init(t[perm], 2)
        assert base.diagnostics == moved.diagnostics == {"dominant_triplets": ["+", "-"]}
        assert base.theta_init[1, 0] == moved.theta_init[1, 0] == 0.0
        assert max_defect(moved.theta_init, base.theta_init) <= 1e-15
        assert max_defect(moved.w_init, base.w_init[perm]) <= 1e-15


class TestInputRules:
    """Each input rule has one message, whichever strategy checks it."""

    def test_nndsvd_names_negative_entries_as_solve_does(self):
        t = np.ones((4, 4))
        t[2, 1] = -0.1
        with pytest.raises(ValidationError, match=r"^t has negative entries at \[\(2, 1\)\]$"):
            nndsvd_init(t, 2)

    @pytest.mark.parametrize(
        "init",
        [
            lambda t, k: knowledge_init(t, time_vector(4, 1.0), [ComponentSpec(COOLING)] * k),
            nndsvd_init,
            lambda t, k: random_init(t, k, 0),
        ],
        ids=["knowledge", "nndsvd", "random"],
    )
    @pytest.mark.parametrize("k", [0, 4])
    def test_rank_bound_message(self, init, k):
        message = rf"^rank {k} out of range for a 3x4 matrix \(need 1 <= k <= min\(N, M\) = 3\)$"
        with pytest.raises(ValidationError, match=message):
            init(np.ones((3, 4)), k)

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"tau_c": float("nan")}, "tau_c must be positive, got nan"),
            ({"amp": float("nan")}, "amp must be positive, got nan"),
        ],
    )
    def test_nan_parameter_rejected(self, params, message):
        with pytest.raises(ValidationError, match=message):
            ComponentSpec(COOLING, **params)

    @pytest.mark.parametrize(
        "spec,m,data_mean,message",
        [
            (ComponentSpec(MEAN), 4, np.ones(3), r"^data mean has shape \(3,\), expected \(4,\)$"),
            (ComponentSpec(HEAT_KERNEL, amp=1.0, r=0.0), 1, None, "needs at least two samples$"),
        ],
        ids=["mean-shape", "source-kernel-one-sample"],
    )
    def test_curve_inputs_checked(self, spec, m, data_mean, message):
        with pytest.raises(ValidationError, match=message):
            component_curve(spec, time_vector(m, 1.0), data_mean)

    def test_nan_distance_rejected(self):
        with pytest.raises(ValidationError, match="r must be >= 0, got nan"):
            ComponentSpec(HEAT_KERNEL, r=float("nan"))

    def test_non_finite_curve_names_its_component(self, caplog):
        # An infinite amplitude once reached pinv, which blamed its own input,
        # after a near-duplicate warning that compared inf with inf.
        import logging

        t = np.random.default_rng(0).random((5, 4)) + 0.1
        specs = [ComponentSpec(MEAN)] + [ComponentSpec(COOLING, amp=float("inf"))] * 2
        with caplog.at_level(logging.WARNING, logger="tsnmf.initialization"):
            with pytest.raises(ValidationError, match=r"^component 1 \(cooling\): the curve is not"):
                knowledge_init(t, time_vector(4, 1.0), specs)
        assert not caplog.records

    def test_curve_overflow_takes_the_limit_without_a_warning(self):
        # pytest turns numpy's overflow warning into an error.
        grid = time_vector(4, 5.0)
        cooling = component_curve(ComponentSpec(COOLING, amp=1.0, tau_c=5e-324), grid)
        assert cooling.tolist() == [1.0, 0.0, 0.0, 0.0]
        kernel = component_curve(ComponentSpec(HEAT_KERNEL, amp=1.0, r=1e200), grid)
        assert kernel.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_overflowing_weight_fit_is_numerical_error(self):
        # A small amplitude puts the data's scale in w, here past the largest double.
        t = np.array([[9.010745853166667e307, 0.0]])
        with pytest.raises(NumericalError, match="^the weight fit overflows double precision$"):
            knowledge_init(t, time_vector(2, 2.0), [ComponentSpec(COOLING, amp=0.5)])
