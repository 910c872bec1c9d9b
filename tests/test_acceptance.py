"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The planted datasets are frozen here (component curves, weight models,
seeds) so every run measures the same problem; tolerances are asserted
exactly as stated per criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEATING,
    MEAN,
    ComponentSpec,
    PlantedComponent,
    SolverConfig,
    SyntheticSpec,
    WeightModel,
    generate,
    knowledge_init,
    match_components,
    noise_sigma_for_range,
    normalize,
    pinv,
    solve,
    svd,
    time_vector,
)
import tsnmf.cli as cli
from tsnmf.cli import build_init, run_compare_inits
from tsnmf.dataio import TimeSeriesSet, ingest_csv, write_matrix_csv

GRID = time_vector(32, 5.0)

# Planted dataset for criteria 4, 5, 6, and 8: production-scale dimensions with a
# mean-like baseline pulse, an exponential cooling, a sharp bath pulse whose
# weights oscillate, and a slow heating.
RECOVERY_COMPONENTS = (
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=130.0, tau_h=7.0),
        WeightModel("walk", base=45.0, step=0.02),
    ),
    PlantedComponent(
        ComponentSpec(COOLING, amp=1.0, tau_c=60.0),
        WeightModel("drift", base=10.0, slope=-0.01),
    ),
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=25.0, tau_h=5.0),
        WeightModel("periodic", base=2.0, amp=20.0, period=45.0),
    ),
    PlantedComponent(
        ComponentSpec(HEATING, amp=1.0, tau_h=40.0),
        WeightModel("walk", base=8.0, step=0.02),
    ),
)
PERIODIC_INDEX = 2

# Knowledge-based starting curves: the stock mean row plus rough physical
# guesses for the planted families (deliberately not the exact parameters).
INIT_SPECS = [
    ComponentSpec(MEAN),
    ComponentSpec(COOLING, tau_c=60.0),
    ComponentSpec(BATH_PULSE, tau_c=30.0, tau_h=6.0),
    ComponentSpec(HEATING, tau_h=35.0),
]
INIT_SPECS_FILE = "mean\ncooling tau_c=60\nbathpulse tau_c=30 tau_h=6\nheating tau_h=35\n"

# Dedicated dataset for the model-order criterion: every component carries
# weight variation the other three cannot represent, so dropping one is
# expensive. Ratio measured once on this implementation and frozen below.
MODEL_ORDER_COMPONENTS = (
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=130.0, tau_h=7.0),
        WeightModel("walk", base=45.0, step=0.15),
    ),
    PlantedComponent(
        ComponentSpec(COOLING, amp=1.0, tau_c=60.0),
        WeightModel("drift", base=16.0, slope=-0.02),
    ),
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=25.0, tau_h=5.0),
        WeightModel("periodic", base=2.0, amp=20.0, period=45.0),
    ),
    PlantedComponent(
        ComponentSpec(HEATING, amp=1.0, tau_h=40.0),
        WeightModel("periodic", base=2.0, amp=26.0, period=97.0),
    ),
)
FROZEN_MODEL_ORDER_RATIO = 1.5161  # regression value; +/- 10 percent band


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def planted_dataset(components, seed):
    spec = SyntheticSpec(
        n=540, grid=GRID, components=components, noise_sigma=0.0, seed=seed
    )
    clean = generate(spec)
    sigma = noise_sigma_for_range(clean.t_clean, 0.01)
    return generate(dataclasses.replace(spec, noise_sigma=sigma))


@pytest.fixture(scope="module")
def recovery_truth():
    return planted_dataset(RECOVERY_COMPONENTS, seed=7)


def test_criterion_1_descent_property():
    """Every iteration's cost is non-increasing (1e-12 relative slack)
    across 201 random problems and all three init strategies, under 30 s."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    violations = 0
    solves = 0
    config = SolverConfig(max_iters=20, rel_tol=0.0)
    for i in range(67):
        k = (2, 3, 4)[i % 3]
        t = rng.random((50, 32)) + 0.05
        data = TimeSeriesSet(values=t, grid=GRID, dt_source="flag")
        for strategy in ("knowledge", "nndsvd", "random"):
            init = build_init(strategy, data, k, None, seed=i)
            _, trace = solve(
                t,
                (init.w_init, init.theta_init),
                config,
                rng=np.random.default_rng(i),
            )
            solves += 1
            slack = 1e-12 * trace.costs[0]
            for before, after in zip(trace.costs, trace.costs[1:]):
                if after > before + slack:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(1, ok, f"{solves} solves, {violations} descent violations, {elapsed:.1f}s")


def test_criterion_2_nndsvd_identities():
    """Each leading positive section has rank <= 2 and its two singular
    values equal the norm-product weights, on 50 random 40x32 matrices."""
    worst_rank = 0.0
    worst_mu = 0.0
    for i in range(50):
        t = np.random.default_rng(100 + i).random((40, 32))
        res = svd(t)
        for j in range(4):
            sigma_j = res.sigma[j]
            u, v = res.u[:, j], res.v[:, j]
            u_pos, u_neg = np.maximum(u, 0.0), np.maximum(-u, 0.0)
            v_pos, v_neg = np.maximum(v, 0.0), np.maximum(-v, 0.0)
            mu_pos = np.linalg.norm(u_pos) * np.linalg.norm(v_pos) * sigma_j
            mu_neg = np.linalg.norm(u_neg) * np.linalg.norm(v_neg) * sigma_j
            section = sigma_j * (np.outer(u_pos, v_pos) + np.outer(u_neg, v_neg))
            sv = np.linalg.svd(section, compute_uv=False)  # independent oracle
            worst_rank = max(worst_rank, sv[2] / sv[0])
            scale = max(res.sigma[0], 1.0)
            worst_mu = max(
                worst_mu,
                abs(sv[0] - max(mu_pos, mu_neg)) / scale,
                abs(sv[1] - min(mu_pos, mu_neg)) / scale,
            )
    ok = worst_rank <= 1e-10 and worst_mu <= 1e-10
    report(2, ok, f"worst rank ratio {worst_rank:.2e}, worst mu defect {worst_mu:.2e}")


def test_criterion_3_svd_and_pinv_quality():
    """100x32 reconstruction <= 1e-8, orthonormality defects <= 1e-10,
    all four Penrose conditions <= 1e-8."""
    worst_recon = worst_orth = worst_penrose = 0.0
    for i in range(10):
        a = np.random.default_rng(200 + i).random((100, 32))
        res = svd(a)
        worst_recon = max(
            worst_recon, np.linalg.norm(a - res.reconstruct()) / np.linalg.norm(a)
        )
        worst_orth = max(
            worst_orth,
            np.abs(res.u.T @ res.u - np.eye(32)).max(),
            np.abs(res.v.T @ res.v - np.eye(32)).max(),
        )
        p = pinv(a)
        worst_penrose = max(
            worst_penrose,
            np.abs(a @ p @ a - a).max(),
            np.abs(p @ a @ p - p).max(),
            np.abs(a @ p - (a @ p).T).max(),
            np.abs(p @ a - (p @ a).T).max(),
        )
    ok = worst_recon <= 1e-8 and worst_orth <= 1e-10 and worst_penrose <= 1e-8
    report(
        3,
        ok,
        f"reconstruction {worst_recon:.2e}, orthonormality {worst_orth:.2e}, "
        f"penrose {worst_penrose:.2e}",
    )


def test_criterion_4_planted_recovery_at_production_scale(recovery_truth):
    """Knowledge-initialized solve on the 540x32 planted dataset matches
    the true curves (mean cosine >= 0.95) and tracks the periodic weights
    (Pearson >= 0.9), in under 5 s."""
    truth = recovery_truth
    start = time.perf_counter()
    init = knowledge_init(truth.t_noisy, GRID, INIT_SPECS)
    factors, _ = solve(truth.t_noisy, (init.w_init, init.theta_init), SolverConfig())
    elapsed = time.perf_counter() - start
    rep = match_components(factors, truth)
    periodic_r = rep.weight_correlations[rep.permutation.index(PERIODIC_INDEX)]
    ok = rep.mean_cosine >= 0.95 and periodic_r >= 0.9 and elapsed < 5.0
    report(
        4,
        ok,
        f"mean cosine {rep.mean_cosine:.4f}, periodic weight r {periodic_r:.3f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_convergence_speed_ordering(recovery_truth, tmp_path):
    """Knowledge and NNDSVD reach within 1% of their final cost in strictly
    fewer iterations than the median of 20 random seeds (fixed 100-iteration
    budget so all traces are comparable)."""
    comp_file = tmp_path / "components.txt"
    comp_file.write_text(INIT_SPECS_FILE)
    data = TimeSeriesSet(values=recovery_truth.t_noisy, grid=GRID, dt_source="flag")
    summary = run_compare_inits(
        data,
        4,
        str(tmp_path / "cmp"),
        components=str(comp_file),
        n_seeds=20,
        tol=0.0,
        max_iters=100,
    )
    k_iters = summary["knowledge"]["iterations_to_1pct"]
    n_iters = summary["nndsvd"]["iterations_to_1pct"]
    r_median = summary["random"]["iterations_to_1pct"]
    ok = k_iters < r_median and n_iters < r_median
    report(
        5,
        ok,
        f"knowledge {k_iters}, nndsvd {n_iters}, random median {r_median}",
    )


def test_criterion_6_normalization_contract(recovery_truth):
    """With normalization on, every nonzero theta row sums to 1 +/- 1e-9 and
    the reconstruction changes by <= 1e-12 relative."""
    truth = recovery_truth
    init = knowledge_init(truth.t_noisy, GRID, INIT_SPECS)
    plain, _ = solve(truth.t_noisy, (init.w_init, init.theta_init), SolverConfig())
    normalized = normalize(plain)
    sums = normalized.theta.sum(axis=1)
    nonzero = sums > 0.0
    sum_defect = np.abs(sums[nonzero] - 1.0).max()
    before = plain.w @ plain.theta
    after = normalized.w @ normalized.theta
    product_defect = np.linalg.norm(after - before) / np.linalg.norm(before)
    ok = bool(np.all(nonzero)) and sum_defect <= 1e-9 and product_defect <= 1e-12
    report(
        6,
        ok,
        f"row-sum defect {sum_defect:.2e}, product defect {product_defect:.2e}",
    )


def test_criterion_7_model_order_sanity():
    """On a planted K=4 dataset, the converged K=3 cost exceeds the K=4 cost
    by >= 20%; the measured margin is frozen as a regression value."""
    truth = planted_dataset(MODEL_ORDER_COMPONENTS, seed=21)
    init4 = knowledge_init(truth.t_noisy, GRID, INIT_SPECS)
    _, trace4 = solve(truth.t_noisy, (init4.w_init, init4.theta_init), SolverConfig())
    init3 = knowledge_init(truth.t_noisy, GRID, INIT_SPECS[:3])
    _, trace3 = solve(truth.t_noisy, (init3.w_init, init3.theta_init), SolverConfig())
    ratio = trace3.costs[-1] / trace4.costs[-1]
    in_band = (
        0.9 * FROZEN_MODEL_ORDER_RATIO <= ratio <= 1.1 * FROZEN_MODEL_ORDER_RATIO
    )
    ok = ratio >= 1.2 and in_band
    report(
        7,
        ok,
        f"K3/K4 cost ratio {ratio:.4f} (frozen {FROZEN_MODEL_ORDER_RATIO}, floor 1.2)",
    )


def test_criterion_8_end_to_end_determinism(recovery_truth, tmp_path):
    """Two identical CLI invocations produce byte-identical factor and
    trace files."""
    dataset = tmp_path / "dataset.csv"
    write_matrix_csv(dataset, recovery_truth.t_noisy, grid=GRID)
    comp_file = tmp_path / "components.txt"
    comp_file.write_text(INIT_SPECS_FILE)

    def run(out):
        code = cli.main(
            [
                "decompose",
                "--input",
                str(dataset),
                "--k",
                "4",
                "--init",
                "knowledge",
                "--components",
                str(comp_file),
                "--seed",
                "0",
                "--normalize",
                "--out",
                str(out),
            ]
        )
        assert code == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    same = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ("theta.csv", "w.csv", "trace.csv")
    )
    # Sanity: the written dataset re-ingests to the exact array that was solved.
    assert np.array_equal(ingest_csv(dataset).values, recovery_truth.t_noisy)
    report(8, same, "theta.csv, w.csv, trace.csv byte-identical across reruns")
