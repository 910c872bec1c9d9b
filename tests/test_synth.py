import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import tsnmf
from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEATING,
    MEAN,
    ComponentSpec,
    Factorization,
    PlantedComponent,
    ShapeError,
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
        assert not np.shares_memory(truth.t_noisy, truth.t_clean)
        assert truth.noise_clamps == 0

    def test_noisy_data_replays_the_reference_arithmetic(self):
        spec = SyntheticSpec(
            n=80,
            grid=GRID,
            components=(
                PlantedComponent(
                    ComponentSpec(HEATING, amp=1.0, tau_h=20.0),
                    WeightModel("walk", base=3.0, step=0.05),
                ),
                PlantedComponent(
                    ComponentSpec(COOLING, amp=1.0, tau_c=45.0),
                    WeightModel("drift", base=0.2, slope=0.001),
                ),
            ),
            noise_sigma=0.5,
            seed=9,
        )
        truth = generate(spec)
        # Weights first, then max(0, t_clean + sigma * noise), bit for bit.
        rng = np.random.default_rng(spec.seed)
        w = np.column_stack([c.weights.sample(spec.n, rng) for c in spec.components])
        t_clean = w @ truth.theta_true
        raw = t_clean + spec.noise_sigma * rng.standard_normal(t_clean.shape)
        assert truth.t_clean.tobytes() == t_clean.tobytes()
        assert truth.t_noisy.tobytes() == np.maximum(0.0, raw).tobytes()
        assert truth.noise_clamps == np.count_nonzero(raw < 0.0) > 0

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

    @pytest.mark.parametrize("rows", [2, 4], ids=["fewer-theta-rows", "more-theta-rows"])
    @pytest.mark.parametrize("pair", ["", "truth "], ids=["recovered", "truth"])
    def test_factors_that_do_not_conform_raise_shape_error(self, pair, rows):
        # The K check compares theta rows with w columns across the pairs, not within one.
        theta = self.truth.theta_true[np.arange(rows) % 3]
        rec = Factorization(self.truth.w_true, self.truth.theta_true if pair else theta)
        truth = dataclasses.replace(self.truth, theta_true=theta) if pair else self.truth
        with pytest.raises(ShapeError, match=rf"^{pair}w is 60x3 but {pair}theta is {rows}x32$"):
            match_components(rec, truth)

    def test_more_than_eight_components_rejected(self):
        rng = np.random.default_rng(0)
        w, theta = rng.random((12, 9)), rng.random((9, 10))
        truth = dataclasses.replace(self.truth, w_true=w, theta_true=theta)
        with pytest.raises(ValidationError, match=r"^exhaustive matching limited to K <= 8, got 9$"):
            match_components(Factorization(w, theta), truth)

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

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scores_do_not_depend_on_scale(self, scale):
        # Norms of such factors underflow or overflow when taken directly.
        exact = match_components(Factorization(self.truth.w_true, self.truth.theta_true), self.truth)
        rec = Factorization(scale * self.truth.w_true, scale * self.truth.theta_true)
        rep = match_components(rec, self.truth)
        assert rep.permutation == exact.permutation
        np.testing.assert_allclose(rep.cosines, exact.cosines, rtol=1e-12)
        np.testing.assert_allclose(rep.weight_correlations, exact.weight_correlations, rtol=1e-12)


def test_scores_are_the_same_with_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 entries across threads.
    rng = np.random.default_rng(0)
    path = tmp_path / "factors.npz"
    np.savez(path, w=rng.random((10_800, 4)), theta=rng.random((4, 32)),
             w_true=rng.random((10_800, 4)), theta_true=rng.random((4, 32)))
    child = (
        "import sys, numpy as np; from tsnmf import Factorization, GroundTruth, match_components; "
        "a = np.load(sys.argv[1]); "
        "r = match_components(Factorization(a['w'], a['theta']), "
        "GroundTruth(a['w_true'], a['theta_true'], None, None)); "
        "print(r.permutation, [x.hex() for x in r.cosines + r.weight_correlations])"
    )
    src = os.path.dirname(os.path.dirname(tsnmf.__file__))
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(out.stdout)
    assert len(outputs) == 1


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


@pytest.mark.parametrize("count", [0, 3])
def test_component_count_is_the_rank_bound(count):
    component = PlantedComponent(
        ComponentSpec(COOLING, amp=1.0, tau_c=30.0), WeightModel("constant", base=1.0)
    )
    message = rf"^rank {count} out of range for a 2x32 matrix \(need 1 <= k <= min\(N, M\) = 2\)$"
    with pytest.raises(ValidationError, match=message):
        SyntheticSpec(n=2, grid=GRID, components=(component,) * count)


@pytest.mark.parametrize(
    "field,message",
    [
        ({"n": 0}, "need at least one recording, got n = 0"),
        ({"noise_sigma": -1.0}, "noise_sigma must be >= 0, got -1.0"),
        ({"noise_rel": -0.1}, "noise_rel must be >= 0, got -0.1"),
        ({"noise_rel": float("nan")}, "noise_rel must be finite, got nan"),
        ({"noise_sigma": 0.1, "noise_rel": 0.01}, "give either noise_sigma or noise_rel, not both"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_spec_fields_are_checked(field, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dataclasses.replace(three_component_spec(), **field)
