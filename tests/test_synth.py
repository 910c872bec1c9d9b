import dataclasses

import numpy as np
import pytest

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEATING,
    MEAN,
    ComponentSpec,
    Factorization,
    PlantedComponent,
    SyntheticSpec,
    ValidationError,
    WeightModel,
    generate,
    match_components,
    noise_sigma_for_range,
    time_vector,
)

GRID = time_vector(32, 5.0)


def three_component_spec(noise=0.0, seed=0):
    return SyntheticSpec(
        n=60,
        grid=GRID,
        components=(
            PlantedComponent(
                ComponentSpec(BATH_PULSE, amp=1.0, tau_c=90.0, tau_h=8.0),
                WeightModel("constant", base=20.0),
            ),
            PlantedComponent(
                ComponentSpec(COOLING, amp=1.0, tau_c=45.0),
                WeightModel("drift", base=6.0, slope=-0.05),
            ),
            PlantedComponent(
                ComponentSpec(HEATING, amp=1.0, tau_h=25.0),
                WeightModel("periodic", base=1.0, amp=4.0, period=15.0),
            ),
        ),
        noise_sigma=noise,
        seed=seed,
    )


class TestWeightModels:
    def test_constant(self):
        w = WeightModel("constant", base=3.5).sample(5, np.random.default_rng(0))
        assert np.array_equal(w, [3.5] * 5)

    def test_drift(self):
        w = WeightModel("drift", base=2.0, slope=0.5).sample(4, np.random.default_rng(0))
        assert np.array_equal(w, [2.0, 2.5, 3.0, 3.5])

    def test_periodic_formula(self):
        model = WeightModel("periodic", base=1.0, amp=2.0, period=8.0)
        w = model.sample(16, np.random.default_rng(0))
        n = np.arange(16.0)
        expected = 1.0 + 2.0 * (0.5 + 0.5 * np.sin(2.0 * np.pi * n / 8.0))
        assert np.allclose(w, expected, atol=0.0)
        assert np.all(w >= 1.0)

    def test_walk_starts_at_base_and_is_seeded(self):
        model = WeightModel("walk", base=5.0, step=0.1)
        w1 = model.sample(50, np.random.default_rng(3))
        w2 = model.sample(50, np.random.default_rng(3))
        assert w1[0] == 5.0
        assert np.array_equal(w1, w2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            WeightModel("sawtooth")


class TestGenerate:
    def test_noiseless_rank_bound(self):
        truth = generate(three_component_spec())
        sv = np.linalg.svd(truth.t_clean, compute_uv=False)  # independent oracle
        assert sv[3] <= 1e-10 * sv[0]

    def test_single_component_constant_weight(self):
        spec = SyntheticSpec(
            n=10,
            grid=GRID,
            components=(
                PlantedComponent(
                    ComponentSpec(COOLING, amp=2.0, tau_c=40.0),
                    WeightModel("constant", base=3.0),
                ),
            ),
        )
        truth = generate(spec)
        expected = 3.0 * truth.theta_true[0]
        for row in truth.t_clean:
            assert np.array_equal(row, expected)

    def test_production_scale_instance(self):
        spec = SyntheticSpec(
            n=540,
            grid=GRID,
            components=(
                PlantedComponent(
                    ComponentSpec(BATH_PULSE, amp=1.0, tau_c=120.0, tau_h=7.0),
                    WeightModel("walk", base=40.0, step=0.05),
                ),
                PlantedComponent(
                    ComponentSpec(COOLING, amp=1.0, tau_c=60.0),
                    WeightModel("drift", base=9.0, slope=-0.01),
                ),
                PlantedComponent(
                    ComponentSpec(BATH_PULSE, amp=1.0, tau_c=30.0, tau_h=6.0),
                    WeightModel("periodic", base=2.0, amp=8.0, period=45.0),
                ),
                PlantedComponent(
                    ComponentSpec(HEATING, amp=1.0, tau_h=35.0),
                    WeightModel("walk", base=6.0, step=0.02),
                ),
            ),
            noise_sigma=0.1,
            seed=9,
        )
        truth = generate(spec)
        assert truth.t_noisy.shape == (540, 32)
        assert np.all(truth.t_noisy >= 0.0)
        assert np.all(truth.w_true >= 0.0)

    def test_deterministic_per_seed(self):
        a = generate(three_component_spec(noise=0.3, seed=4))
        b = generate(three_component_spec(noise=0.3, seed=4))
        assert np.array_equal(a.t_noisy, b.t_noisy)

    def test_noise_sigma_does_not_change_clean_data(self):
        a = generate(three_component_spec(noise=0.0, seed=4))
        b = generate(three_component_spec(noise=2.0, seed=4))
        assert np.array_equal(a.t_clean, b.t_clean)
        assert not np.array_equal(b.t_noisy, b.t_clean)

    def test_zero_noise_is_exactly_clean(self):
        truth = generate(three_component_spec(noise=0.0, seed=5))
        assert np.array_equal(truth.t_noisy, truth.t_clean)
        assert truth.noise_clamps == 0

    def test_noise_clamped_and_counted(self):
        spec = SyntheticSpec(
            n=50,
            grid=GRID,
            components=(
                PlantedComponent(
                    ComponentSpec(HEATING, amp=1.0, tau_h=20.0),
                    WeightModel("constant", base=0.01),
                ),
            ),
            noise_sigma=1.0,
            seed=6,
        )
        truth = generate(spec)
        assert np.all(truth.t_noisy >= 0.0)
        assert truth.noise_clamps > 0

    def test_negative_weights_rejected_before_emission(self):
        spec = SyntheticSpec(
            n=100,
            grid=GRID,
            components=(
                PlantedComponent(
                    ComponentSpec(COOLING, amp=1.0, tau_c=40.0),
                    WeightModel("drift", base=1.0, slope=-0.5),
                ),
            ),
        )
        with pytest.raises(ValidationError, match="goes negative"):
            generate(spec)

    def test_mean_curve_cannot_be_synthesized(self):
        spec = SyntheticSpec(
            n=5,
            grid=GRID,
            components=(
                PlantedComponent(ComponentSpec(MEAN), WeightModel("constant", base=1.0)),
            ),
        )
        with pytest.raises(ValidationError, match="mean"):
            generate(spec)

    def test_clean_is_exact_product(self):
        truth = generate(three_component_spec(seed=8))
        assert np.array_equal(truth.t_clean, truth.w_true @ truth.theta_true)


class TestMatchComponents:
    def setup_method(self):
        self.truth = generate(three_component_spec(seed=10))

    def test_identity_match(self):
        rec = Factorization(self.truth.w_true.copy(), self.truth.theta_true.copy())
        rep = match_components(rec, self.truth)
        assert rep.permutation == (0, 1, 2)
        assert all(c == pytest.approx(1.0, abs=1e-12) for c in rep.cosines)

    def test_row_permuted_truth(self):
        perm = [2, 0, 1]
        rec = Factorization(self.truth.w_true[:, perm], self.truth.theta_true[perm])
        rep = match_components(rec, self.truth)
        assert rep.permutation == (2, 0, 1)
        assert all(c == pytest.approx(1.0, abs=1e-12) for c in rep.cosines)

    def test_scaled_rows_still_match(self):
        scales = np.array([0.5, 3.0, 7.0])
        rec = Factorization(
            self.truth.w_true / scales, self.truth.theta_true * scales[:, None]
        )
        rep = match_components(rec, self.truth)
        assert rep.permutation == (0, 1, 2)
        assert all(c == pytest.approx(1.0, abs=1e-12) for c in rep.cosines)

    def test_k_mismatch_rejected(self):
        rec = Factorization(np.ones((60, 2)), np.ones((2, 32)))
        with pytest.raises(ValidationError, match="mismatch"):
            match_components(rec, self.truth)

    @pytest.mark.parametrize("n,m", [(60, 30), (50, 32)])
    def test_shape_mismatch_rejected(self, n, m):
        rec = Factorization(np.ones((n, 3)), np.ones((3, m)))
        with pytest.raises(ValidationError, match=rf"\({n}, {m}\).*\(60, 32\)"):
            match_components(rec, self.truth)

    def test_total_score_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(11)
        rec = Factorization(rng.random((60, 3)), rng.random((3, 32)))
        rep = match_components(rec, self.truth)

        perm = [1, 2, 0]
        rec2 = Factorization(rec.w[:, perm], rec.theta[perm])
        truth2 = dataclasses.replace(
            self.truth,
            w_true=self.truth.w_true[:, perm],
            theta_true=self.truth.theta_true[perm],
        )
        rep2 = match_components(rec2, truth2)
        assert sum(rep2.cosines) == pytest.approx(sum(rep.cosines), abs=1e-12)

    def test_weight_correlation_for_constant_column_is_nan(self):
        rec = Factorization(self.truth.w_true.copy(), self.truth.theta_true.copy())
        rep = match_components(rec, self.truth)
        # Planted component 0 has constant weights: correlation undefined.
        assert np.isnan(rep.weight_correlations[0])
        assert rep.weight_correlations[2] == pytest.approx(1.0, abs=1e-12)


def test_noise_sigma_for_range():
    t = np.array([[0.0, 10.0], [4.0, 6.0]])
    assert noise_sigma_for_range(t, 0.01) == pytest.approx(0.1)


def test_component_count_bound():
    with pytest.raises(ValidationError):
        SyntheticSpec(
            n=2,
            grid=GRID,
            components=tuple(
                PlantedComponent(
                    ComponentSpec(COOLING, amp=1.0, tau_c=30.0),
                    WeightModel("constant", base=1.0),
                )
                for _ in range(3)
            ),
        )
