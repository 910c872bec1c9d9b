import numpy as np
import pytest

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEAT_KERNEL,
    HEATING,
    MEAN,
    ComponentSpec,
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

    def test_equal_bath_pulse_constants_flagged_not_rejected(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="tsnmf.initialization"):
            spec = ComponentSpec(BATH_PULSE, amp=1.0, tau_c=5.0, tau_h=5.0)
        assert spec.tau_c == spec.tau_h
        assert any("zero curve" in r.message for r in caplog.records)


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
