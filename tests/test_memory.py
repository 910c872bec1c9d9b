"""Peak allocation of the commands' N x M layers, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so a transient N x M copy
shows in the peak. Each bound is in units of the arrays the layer must hold.
"""

import tracemalloc

import numpy as np
import pytest

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEATING,
    ComponentSpec,
    PlantedComponent,
    SyntheticSpec,
    WeightModel,
    generate,
    time_vector,
)
from tsnmf import cli
from tsnmf.dataio import ingest_csv, write_matrix_csv
from tsnmf.initialization import nndsvd_init
from tsnmf.linalg import ROW_BLOCK, require_matrix, require_nonnegative
from tsnmf.nmf import Factorization, revive_dead_component, solve


def peak_bytes(fn, *args):
    """The result of ``fn(*args)`` and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def planted_spec(n, m, noise_sigma):
    return SyntheticSpec(
        n=n,
        grid=time_vector(m, 5.0),
        components=(
            PlantedComponent(
                ComponentSpec(BATH_PULSE, amp=1.0, tau_c=90.0, tau_h=8.0),
                WeightModel("walk", base=30.0, step=0.05),
            ),
            PlantedComponent(
                ComponentSpec(COOLING, amp=1.0, tau_c=45.0), WeightModel("drift", base=8.0)
            ),
            PlantedComponent(
                ComponentSpec(HEATING, amp=1.0, tau_h=25.0),
                WeightModel("periodic", base=2.0, amp=6.0, period=20.0),
            ),
        ),
        noise_sigma=noise_sigma,
        seed=7,
    )


@pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
def test_generate_holds_clean_and_noisy_data_only(noise_sigma):
    # t_clean and t_noisy, plus the clamp and finiteness masks (1/8 each).
    n, m = 20_000, 32
    truth, peak = peak_bytes(generate, planted_spec(n, m, noise_sigma))
    assert truth.t_noisy.shape == (n, m)
    assert peak <= 2.5 * n * m * 8


def test_synth_command_holds_the_dataset_and_one_block_of_noise(tmp_path, capsys):
    # The dataset, one row block of normals (about 1/10 here), the weights (3/32).
    n, m = 20_000, 32
    lines = (
        "bathpulse tau_c=90 tau_h=8 amp=1 weights=walk:30,0.05",
        "cooling tau_c=45 amp=1 weights=drift:8,0",
        "heating tau_h=25 amp=1 weights=periodic:2,6,20",
    )

    def synth(rows, name):
        spec = tmp_path / f"{name}.txt"
        spec.write_text(f"n={rows}\nm={m}\ndt=5.0\nseed=7\nnoise_rel=0.01\n" + "\n".join(lines))
        return cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / name)])

    assert synth(50, "warm") == 0  # imports what the first synth run imports
    code, peak = peak_bytes(synth, n, "tall")
    assert code == 0
    assert capsys.readouterr().out.endswith("(0 noise clamp(s))\n")
    assert peak <= 1.5 * n * m * 8


def test_synth_command_holds_no_n_by_m_array(tmp_path, capsys):
    # The weights, N x K, and four row blocks: they cover the noise pass's three
    # blocks (clean rows, normals, scaled normals) and, at this N, the N-long
    # temporaries of a weight model. The dataset would be 15.4 MB.
    n, m, k = 60_000, 32, 3
    lines = (
        "bathpulse tau_c=90 tau_h=8 amp=1 weights=walk:30,0.05",
        "cooling tau_c=45 amp=1 weights=drift:8,0",
        "heating tau_h=25 amp=1 weights=periodic:2,6,20",
    )

    def synth(rows, name):
        spec = tmp_path / f"{name}.txt"
        spec.write_text(f"n={rows}\nm={m}\ndt=5.0\nseed=7\nnoise_rel=0.01\n" + "\n".join(lines))
        return cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / name)])

    assert synth(50, "warm") == 0  # imports what the first synth run imports
    code, peak = peak_bytes(synth, n, "tall")
    assert code == 0
    assert capsys.readouterr().out.endswith("(0 noise clamp(s))\n")
    assert peak <= (n * k + 4 * ROW_BLOCK * m) * 8


def test_ingest_holds_about_the_result_array(tmp_path):
    path = tmp_path / "data.csv"
    matrix = np.random.default_rng(0).random((10_800, 32)) * 800.0
    write_matrix_csv(path, matrix, grid=time_vector(32, 5.0))
    ts, peak = peak_bytes(ingest_csv, path)
    assert ts.values.tobytes() == matrix.tobytes()
    assert peak <= 1.5 * matrix.nbytes


def test_writer_holds_one_slice_of_python_floats_and_text(tmp_path):
    # A slice of dataio._SLICE_CELLS cells as floats, a tuple and text. The
    # table as Python floats would be 61 MB, and a finiteness mask 1.9 MB.
    matrix = np.random.default_rng(0).random((60_000, 32)) * 800.0
    _, peak = peak_bytes(write_matrix_csv, tmp_path / "m.csv", matrix)
    assert peak <= 1_000_000



@pytest.mark.parametrize("check", [require_matrix, require_nonnegative])
def test_a_passing_check_allocates_no_mask(check):
    # A boolean mask of the array would be an eighth of its bytes.
    a = np.random.default_rng(0).random((1000, 1000))
    _, peak = peak_bytes(check, a, "t")
    assert peak <= a.nbytes / 64

def test_solve_holds_one_residual_next_to_its_stacks():
    n, m, k = 20_000, 32, 3
    truth = generate(planted_spec(n, m, 0.3))
    rng = np.random.default_rng(1)
    init = (truth.w_true * rng.uniform(0.5, 1.5, (n, k)), truth.theta_true + 0.01)
    (_, trace), peak = peak_bytes(solve, truth.t_noisy, init)
    assert not trace.revives
    # One row block of the residual, two stack pairs of 2K x N and 2K x M, and
    # one pair's worth for the copied init and slack.
    pair = 2 * k * (n + m) * 8
    assert peak <= ROW_BLOCK * m * 8 + 3 * pair


def test_nndsvd_holds_no_scaled_copy_of_the_data():
    n, m = 20_000, 32
    t = generate(planted_spec(n, m, 0.3)).t_noisy
    res, peak = peak_bytes(nndsvd_init, t, 3)
    assert res.w_init.shape == (n, 3)
    assert peak < 0.5 * n * m * 8


def test_revival_forms_the_residual_one_block_at_a_time():
    n, m, k, l = 20_000, 32, 3, 1
    truth = generate(planted_spec(n, m, 0.3))
    t, f = truth.t_noisy, Factorization(truth.w_true.copy(), truth.theta_true.copy())
    f.w[:, l] = 0.0
    got, peak = peak_bytes(revive_dead_component, t, f, l, np.random.default_rng(5))
    # The whole residual, as the revival rule states it.
    residual = t - f.w @ f.theta
    row = residual[np.argmax(np.sum(residual * residual, axis=1))]
    a = float(np.max(f.w))
    w_l = 1e-3 * a * (1.0 - np.random.default_rng(5).random(n))
    assert got.theta[l].tobytes() == (np.maximum(0.0, row) / a).tobytes()
    assert got.w[:, l].tobytes() == w_l.tobytes()
    # The copied factors, the drawn column and its temporaries, and three row blocks.
    assert peak <= (n * k + k * m) * 8 + 3 * n * 8 + 3 * ROW_BLOCK * m * 8
