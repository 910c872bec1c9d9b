import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsnmf import (
    ComponentSpec,
    Factorization,
    NumericalError,
    PlantedComponent,
    ShapeError,
    SolverConfig,
    SyntheticSpec,
    ValidationError,
    WeightModel,
    cost,
    generate,
    hals_sweep,
    knowledge_init,
    nndsvd_init,
    noise_sigma_for_range,
    normalize,
    reconstruct,
    revive_dead_component,
    solve,
    time_vector,
)
from tsnmf.cli import build_init
from tsnmf.dataio import TimeSeriesSet
from tsnmf.initialization import BATH_PULSE, COOLING, HEATING

from test_acceptance import GRID, INIT_SPECS, RECOVERY_COMPONENTS, planted_dataset


def random_problem(seed, n=20, m=32, k=4):
    rng = np.random.default_rng(seed)
    t = rng.random((n, m)) + 0.01
    w0 = rng.random((n, k)) + 0.01
    th0 = rng.random((k, m)) + 0.01
    return t, w0, th0


def planted_problem():
    """Three heat-transfer components, 100 x 32, 1% noise."""
    grid = time_vector(32, 5.0)
    spec = SyntheticSpec(
        n=100,
        grid=grid,
        components=(
            PlantedComponent(
                ComponentSpec(BATH_PULSE, amp=1.0, tau_c=90.0, tau_h=8.0),
                WeightModel("walk", base=30.0, step=0.05),
            ),
            PlantedComponent(
                ComponentSpec(COOLING, amp=1.0, tau_c=50.0),
                WeightModel("drift", base=8.0, slope=-0.02),
            ),
            PlantedComponent(
                ComponentSpec(HEATING, amp=1.0, tau_h=30.0),
                WeightModel("periodic", base=2.0, amp=6.0, period=25.0),
            ),
        ),
        noise_sigma=0.0,
        seed=5,
    )
    clean = generate(spec)
    sigma = noise_sigma_for_range(clean.t_clean, 0.01)
    return generate(dataclasses.replace(spec, noise_sigma=sigma))


class TestCost:
    def test_exact_reconstruction_is_zero(self):
        rng = np.random.default_rng(0)
        w = rng.random((5, 2))
        th = rng.random((2, 4))
        assert cost(w @ th, Factorization(w, th)) == 0.0

    def test_direct_arithmetic(self):
        f = Factorization(np.array([[1.0], [1.0]]), np.array([[0.5, 0.5]]))
        assert cost(np.eye(2), f) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_scaling(self):
        t = np.array([[2.0, 1.0], [1.0, 2.0]])
        f = Factorization(np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]]))
        base = cost(t, f)
        doubled = cost(2 * t, Factorization(2 * f.w, f.theta))
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_shape_error(self):
        f = Factorization(np.ones((3, 1)), np.ones((1, 2)))
        with pytest.raises(ShapeError):
            cost(np.ones((2, 2)), f)

    @pytest.mark.parametrize("tiles", [1, 20], ids=["540x32", "10800x32"])
    def test_matches_exactly_rounded_sum(self, tiles):
        # The acceptance data's converged fit, tiled by rows. Its residual is
        # small next to the data, where a Gram-identity cost is off by 2e-12.
        t = planted_dataset(RECOVERY_COMPONENTS, seed=7).t_noisy
        init = knowledge_init(t, GRID, INIT_SPECS)
        fit, _ = solve(t, (init.w_init, init.theta_init))
        t = np.tile(t, (tiles, 1))
        f = Factorization(np.tile(fit.w, (tiles, 1)), fit.theta)
        r = t - f.w @ f.theta
        reference = math.fsum((r * r).ravel().tolist())
        assert abs(cost(t, f) - reference) <= 1e-13 * reference


def nnls_oracle_sweep(t, w, th):
    """One sweep replayed entry by entry: each w[i, l], then each th[l, j], is
    the scalar non-negative least squares minimizer given every other entry,
    clamped in closed form."""
    w, th = w.copy(), th.copy()
    for l in range(w.shape[1]):
        theta_l = th[l].copy()
        for i in range(w.shape[0]):
            residual = t[i] - w[i] @ th + w[i, l] * theta_l
            w[i, l] = max(0.0, (residual @ theta_l) / (theta_l @ theta_l))
    for l in range(w.shape[1]):
        w_l = w[:, l].copy()
        for j in range(th.shape[1]):
            residual = t[:, j] - w @ th[:, j] + th[l, j] * w_l
            th[l, j] = max(0.0, (residual @ w_l) / (w_l @ w_l))
    return w, th


class TestHalsSweep:
    def test_fixed_point_on_exact_rank_one(self):
        w = np.array([[1.0], [2.0]])
        th = np.array([[3.0, 4.0]])
        t = w @ th
        out = hals_sweep(t, Factorization(w, th))
        assert np.abs(out.w - w).max() <= 1e-12
        assert np.abs(out.theta - th).max() <= 1e-12

    def test_rank_one_exact_factorization(self):
        t = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = Factorization(np.array([[0.5], [0.5]]), np.array([[1.0, 1.0]]))
        for _ in range(50):
            f = hals_sweep(t, f)
        assert cost(t, f) <= 1e-20
        # Factors align with (1, 2) up to reciprocal scaling.
        assert f.w[1, 0] == pytest.approx(2.0 * f.w[0, 0], rel=1e-8)
        assert f.theta[0, 1] == pytest.approx(2.0 * f.theta[0, 0], rel=1e-8)

    def test_monotone_over_random_instances(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            t, w0, th0 = random_problem(seed)
            f = Factorization(w0, th0)
            before = cost(t, f)
            slack = 1e-12 * before

            def reviver(fact, l, _t=t):
                return revive_dead_component(_t, fact, l, rng)

            for _ in range(3):
                f = hals_sweep(t, f, on_dead=reviver)
                after = cost(t, f)
                assert after <= before + slack
                before = after

    def test_nonnegativity_closure(self):
        rng = np.random.default_rng(1)
        t, w0, th0 = random_problem(123)
        f = Factorization(w0, th0)
        for _ in range(5):
            f = hals_sweep(t, f, on_dead=lambda fact, l: revive_dead_component(t, fact, l, rng))
            assert np.all(f.w >= 0.0)
            assert np.all(f.theta >= 0.0)

    @pytest.mark.parametrize(
        "transposed", [False, True], ids=["straight", "transposed"]
    )
    def test_matches_scalar_nnls_oracle(self, transposed):
        t, w0, th0 = random_problem(7, n=9, m=6, k=3)
        # Zero data where component 0 is strong, so some entries clamp at 0.
        t[np.outer(w0[:, 0], th0[0]) > 0.5] = 0.0
        if transposed:
            t, w0, th0 = t.T, th0.T.copy(), w0.T.copy()
        out = hals_sweep(t, Factorization(w0, th0))
        w, th = nnls_oracle_sweep(t, w0, th0)
        assert np.any(w == 0.0) or np.any(th == 0.0)
        assert np.abs(out.w - w).max() <= 1e-12
        assert np.abs(out.theta - th).max() <= 1e-12

    def test_clamped_column_is_left_idle_when_revival_fails(self):
        # Zero data clamps the whole w column to zero; the theta half then
        # finds the component dead, and a handler that cannot revive it
        # leaves it idle instead of dividing by zero.
        calls = []

        def no_revival(fact, l):
            calls.append(l)
            return fact

        th = np.array([[1.0, 2.0]])
        f = Factorization(np.ones((3, 1)), th)
        out = hals_sweep(np.zeros((3, 2)), f, on_dead=no_revival)
        assert np.all(out.w == 0.0)
        assert np.array_equal(out.theta, th)
        assert calls == [0]

    @pytest.mark.parametrize(
        "t, w, th",
        [
            # theta row zero: dead in the w half
            (np.ones((2, 3)), np.ones((2, 1)), np.zeros((1, 3))),
            # zero data clamps the w column: dead in the theta half
            (np.zeros((3, 2)), np.ones((3, 1)), np.ones((1, 2))),
        ],
        ids=["w-half", "theta-half"],
    )
    def test_dead_component_without_handler_raises(self, t, w, th):
        with pytest.raises(NumericalError, match="component 0 is dead"):
            hals_sweep(t, Factorization(w, th))


@st.composite
def clamping_problems(draw):
    """A random problem with 1 <= k <= min(n, m) <= 6 whose data has a zeroed
    block, so that some updates clamp at zero."""
    short = draw(st.integers(1, 6))
    long = draw(st.integers(short, 12))
    n, m = (short, long) if draw(st.booleans()) else (long, short)
    k = draw(st.integers(1, short))
    t, w0, th0 = random_problem(draw(st.integers(0, 2**32 - 1)), n, m, k)
    r0 = draw(st.integers(0, n - 1))
    c0 = draw(st.integers(0, m - 1))
    t[r0 : draw(st.integers(r0 + 1, n)), c0 : draw(st.integers(c0 + 1, m))] = 0.0
    return t, Factorization(w0, th0)


class TestHalsSweepProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=clamping_problems())
    def test_matches_scalar_nnls_oracle(self, problem):
        t, f = problem
        try:
            out = hals_sweep(t, f)
        except NumericalError:
            assume(False)  # a whole column clamped; the oracle would divide by 0
        w, th = nnls_oracle_sweep(t, f.w, f.theta)
        assert np.abs(out.w - w).max() <= 1e-12 * max(1.0, np.abs(w).max())
        assert np.abs(out.theta - th).max() <= 1e-12 * max(1.0, np.abs(th).max())

    @settings(max_examples=60, deadline=None)
    @given(problem=clamping_problems())
    def test_cost_never_rises(self, problem):
        t, f = problem
        rng = np.random.default_rng(0)
        out = hals_sweep(t, f, on_dead=lambda fact, l: revive_dead_component(t, fact, l, rng))
        before = cost(t, f)
        assert cost(t, out) <= before + 1e-12 * before

    @settings(max_examples=60, deadline=None)
    @given(problem=clamping_problems())
    def test_input_factorization_is_left_alone(self, problem):
        t, f = problem
        w, th = f.w.copy(), f.theta.copy()
        rng = np.random.default_rng(0)
        hals_sweep(t, f, on_dead=lambda fact, l: revive_dead_component(t, fact, l, rng))
        assert f.w.tobytes() == w.tobytes()
        assert f.theta.tobytes() == th.tobytes()


class TestRevive:
    def test_reseeds_from_largest_residual_row(self):
        t = np.array([[0.0, 0.0], [3.0, 4.0]])
        f = Factorization(np.array([[1.0], [1.0]]), np.array([[0.0, 0.0]]))
        out = revive_dead_component(t, f, 0, np.random.default_rng(0))
        assert np.array_equal(out.theta[0], [3.0, 4.0])
        assert np.all(out.w[:, 0] > 0.0)

    def test_engineered_kill_terminates(self):
        # Component 2's curve lives where the data is zero, so its w column
        # clamps to zero on the first sweep and must be revived.
        curve1 = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        curve2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        t = np.outer(np.linspace(1.0, 2.0, 10), curve1)
        f, trace = solve(
            t,
            (np.ones((10, 2)), np.vstack([curve1, curve2])),
            SolverConfig(max_iters=30, rel_tol=0.0),
        )
        assert len(trace.revives) > 0
        assert np.isfinite(trace.costs[-1])
        assert len(trace.costs) == 30


class TestSolve:
    def test_truth_init_converges_in_one_iteration(self):
        rng = np.random.default_rng(2)
        w = rng.random((12, 3))
        th = rng.random((3, 8))
        t = w @ th
        f, trace = solve(t, (w, th), SolverConfig(rel_tol=1e-8))
        assert len(trace.costs) == 1
        assert trace.costs[-1] <= 1e-20 * np.sum(t * t)

    def test_zero_tolerance_runs_exactly_max_iters(self):
        t, w0, th0 = random_problem(3, n=10, m=8, k=2)
        _, trace = solve(t, (w0, th0), SolverConfig(max_iters=5, rel_tol=0.0))
        assert len(trace.costs) == 5

    def test_stop_reason(self):
        # An exact rank-one problem stalls at once; the acceptance data with
        # knowledge init never meets the default tolerance in 500 sweeps.
        w = np.array([[1.0], [2.0], [3.0]])
        th = np.array([[1.0, 0.5, 2.0, 1.0]])
        _, trace = solve(w @ th, (np.ones((3, 1)), np.ones((1, 4))))
        assert trace.stop_reason == "tol"
        assert len(trace.costs) < SolverConfig.max_iters
        t = planted_dataset(RECOVERY_COMPONENTS, seed=7).t_noisy
        init = knowledge_init(t, GRID, INIT_SPECS)
        _, trace = solve(t, (init.w_init, init.theta_init))
        assert trace.stop_reason == "max_iters"
        assert len(trace.costs) == SolverConfig.max_iters

    def test_negative_data_rejected_with_coordinates(self):
        t = np.ones((3, 3))
        t[1, 2] = -0.5
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            solve(t, (np.ones((3, 2)), np.ones((2, 3))))

    def test_negative_init_rejected(self):
        t = np.ones((3, 3))
        w0 = np.ones((3, 2))
        w0[0, 0] = -1.0
        with pytest.raises(ValidationError, match="w"):
            solve(t, (w0, np.ones((2, 3))))

    def test_rank_bound_enforced(self):
        with pytest.raises(ValidationError, match="rank"):
            solve(np.ones((3, 3)), (np.ones((3, 4)), np.ones((4, 3))))

    def test_descent_with_slack(self):
        t, w0, th0 = random_problem(4)
        _, trace = solve(t, (w0, th0), SolverConfig(max_iters=80, rel_tol=0.0))
        slack = 1e-12 * trace.costs[0]
        for before, after in zip(trace.costs, trace.costs[1:]):
            assert after <= before + slack

    def test_planted_problem_reaches_noise_floor(self):
        truth = planted_problem()
        init = nndsvd_init(truth.t_noisy, 3)
        _, trace = solve(truth.t_noisy, (init.w_init, init.theta_init))
        noise_floor = float(np.sum((truth.t_noisy - truth.t_clean) ** 2))
        assert trace.costs[-1] <= noise_floor

    def test_scale_indeterminacy_with_power_of_two_diagonal(self):
        t, w0, th0 = random_problem(5, n=8, m=6, k=3)
        d = np.array([2.0, 0.5, 4.0])  # powers of two keep the scaling exact
        base = cost(t, Factorization(w0, th0))
        scaled = cost(t, Factorization(w0 * d, th0 / d[:, None]))
        assert scaled == base


    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e9])
    @pytest.mark.parametrize("strategy", ["knowledge", "nndsvd", "random"])
    def test_fit_is_scale_equivariant(self, strategy, c):
        # The dead-component rule is relative, so scaling the data by c
        # scales w @ theta by c with the same sweeps and revivals.
        t = planted_problem().t_noisy
        config = SolverConfig(max_iters=100, rel_tol=0.0)
        grid = time_vector(32, 5.0)
        fits = []
        for scale in (1.0, c):
            data = TimeSeriesSet(values=scale * t, grid=grid, dt_source="flag")
            init = build_init(strategy, data, 3, None, seed=3)
            f, trace = solve(scale * t, (init.w_init, init.theta_init), config)
            fits.append((reconstruct(f) / scale, len(trace.costs), trace.revives))
        (base, base_iters, base_revives), (scaled, iters, revives) = fits
        assert (iters, revives) == (base_iters, base_revives)
        assert np.linalg.norm(scaled - base) <= 1e-10 * np.linalg.norm(base)


class TestNormalize:
    def test_direct_arithmetic(self):
        f = normalize(Factorization(np.array([[1.0], [3.0]]), np.array([[2.0, 2.0]])))
        assert np.array_equal(f.theta, [[0.5, 0.5]])
        assert np.array_equal(f.w, [[4.0], [12.0]])

    def test_exactly_normalized_rows_unchanged(self):
        w = np.array([[1.0, 2.0]])
        th = np.array([[0.5, 0.5], [0.25, 0.75]])
        f = normalize(Factorization(w, th))
        assert np.array_equal(f.theta, th)
        assert np.array_equal(f.w, w)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        f1 = normalize(Factorization(rng.random((6, 3)), rng.random((3, 5))))
        f2 = normalize(f1)
        assert np.abs(f2.theta - f1.theta).max() <= 1e-14
        assert np.abs(f2.w - f1.w).max() <= 1e-14 * np.abs(f1.w).max()

    def test_product_invariance(self):
        rng = np.random.default_rng(7)
        f = Factorization(rng.random((10, 4)), rng.random((4, 7)))
        before = reconstruct(f)
        after = reconstruct(normalize(f))
        rel = np.linalg.norm(after - before) / np.linalg.norm(before)
        assert rel <= 1e-12

    def test_zero_rows_left_untouched_and_logged(self, caplog):
        f = Factorization(np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))
        with caplog.at_level(logging.WARNING, logger="tsnmf.nmf"):
            out = normalize(f)
        assert np.array_equal(out.theta[1], [0.0, 0.0])
        assert np.array_equal(out.w[:, 1], f.w[:, 1])
        assert any("zero L1 norm" in r.message for r in caplog.records)


class TestReconstruct:
    def test_outer_product(self):
        f = Factorization(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(reconstruct(f), [[3.0, 4.0], [6.0, 8.0]])

    def test_zero_w(self):
        f = Factorization(np.zeros((3, 2)), np.ones((2, 4)))
        assert np.all(reconstruct(f) == 0.0)

    def test_matches_plain_product(self):
        rng = np.random.default_rng(8)
        f = Factorization(rng.random((5, 2)), rng.random((2, 6)))
        assert np.array_equal(reconstruct(f), f.w @ f.theta)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValidationError):
        SolverConfig(rel_tol=-1.0)
    with pytest.raises(ValidationError):
        SolverConfig(dead_component_eps=0.0)
    with pytest.raises(ValidationError, match="rel_tol"):
        SolverConfig(rel_tol=float("nan"))
    with pytest.raises(ValidationError, match="dead_component_eps"):
        SolverConfig(dead_component_eps=float("nan"))


def test_factorization_rank_property():
    f = Factorization(np.ones((5, 2)), np.ones((2, 3)))
    assert f.k == 2
