import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tsnmf.cli as cli
from tsnmf.dataio import read_matrix_csv, write_matrix_csv
from tsnmf.errors import ValidationError
from tsnmf.initialization import CURVE_KINDS, CURVE_PARAMS, time_vector
from tsnmf.synth import WEIGHT_ARGS, WeightModel

BOM = "\ufeff"

SYNTH_SPEC = """\
n=60
m=32
dt=5.0
seed=3
noise_rel=0.01
bathpulse tau_c=90 tau_h=8 amp=1 weights=walk:30,0.05
cooling tau_c=50 amp=1 weights=drift:8,-0.02
heating tau_h=25 amp=1 weights=periodic:2,6,20
"""

COMPONENTS = """\
mean
cooling tau_c=50
heating tau_h=25
"""


@pytest.fixture()
def dataset(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SYNTH_SPEC)
    out = tmp_path / "data"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def run_decompose(tmp_path, dataset, out_name, *extra):
    out = tmp_path / out_name
    code = cli.main(
        [
            "decompose",
            "--input",
            str(dataset / "dataset.csv"),
            "--k",
            "3",
            "--init",
            "nndsvd",
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, out


class TestSynthCommand:
    def test_noiseless_dataset_equals_truth_product(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC.replace("noise_rel=0.01", "noise=0.0"))
        out = tmp_path / "clean"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        data = read_matrix_csv(out / "truth_w.csv") @ read_matrix_csv(
            out / "truth_theta.csv"
        )
        from tsnmf.dataio import ingest_csv

        ts = ingest_csv(out / "dataset.csv")
        assert np.abs(ts.values - data).max() <= 1e-12 * np.abs(data).max()

    def test_seed_changes_dataset_not_curves(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec_a = tmp_path / "sa.txt"
        spec_a.write_text(SYNTH_SPEC)
        spec_b = tmp_path / "sb.txt"
        spec_b.write_text(SYNTH_SPEC.replace("seed=3", "seed=4"))
        assert cli.main(["synth", "--spec", str(spec_a), "--out", str(out_a)]) == 0
        assert cli.main(["synth", "--spec", str(spec_b), "--out", str(out_b)]) == 0
        assert (out_a / "dataset.csv").read_text() != (out_b / "dataset.csv").read_text()
        assert (out_a / "truth_theta.csv").read_text() == (
            out_b / "truth_theta.csv"
        ).read_text()

    def test_spec_error_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("n=5\nm=4\ndt=1.0\ncooling tau_c=3\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "weights=" in capsys.readouterr().err

    def test_equal_bath_pulse_constants_exit_2_on_one_line(self, tmp_path, capsys, caplog):
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC.replace("tau_c=90 tau_h=8", "tau_c=3 tau_h=3"))
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: line 6: bathpulse needs tau_c > tau_h, got tau_c = 3.0, tau_h = 3.0 "
            "(the curve would not stay non-negative)\n"
        )
        assert not caplog.records
        assert not out.exists()

    def test_success_stdout(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC.replace("noise_rel=0.01", "noise=0.0"))
        out = tmp_path / "clean"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 60x32 dataset with 3 components to {out} (0 noise clamp(s))\n"
        )

    @pytest.mark.parametrize(
        "noise,message",
        [
            ("noise=nan", "noise_sigma must be finite, got nan"),
            ("noise=inf", "noise_sigma must be finite, got inf"),
            ("noise_rel=nan", "noise_rel must be finite, got nan"),
            ("noise_rel=-0.1", "noise_rel must be >= 0, got -0.1"),
            ("noise_rel=1e308", "noise_rel = 1e+308 times the clean data range overflows"),
        ],
        ids=["noise=nan-nan", "noise=inf-inf", "noise_rel=nan-nan", "noise_rel=-0.1", "overflow"],
    )
    def test_non_finite_noise_exits_2(self, tmp_path, capsys, noise, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC.replace("noise_rel=0.01", noise))
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_relative_noise_draws_the_dataset_once(self, tmp_path, monkeypatch):
        # Each generate samples every component's weights once; SYNTH_SPEC has three.
        draws = []
        sample = WeightModel.sample

        def counted(model, n, rng):
            draws.append(model)
            return sample(model, n, rng)

        monkeypatch.setattr(WeightModel, "sample", counted)
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC)
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        assert len(draws) == 3

    def test_output_bytes_are_pinned(self, dataset):
        digests = {
            name: hashlib.sha256((dataset / name).read_bytes()).hexdigest()
            for name in ("dataset.csv", "truth_theta.csv", "truth_w.csv")
        }
        assert digests == {
            "dataset.csv": "373d83d51ce7449dafc45e679afe2ddb9fb692412016df1be361487e8eeb66b5",
            "truth_theta.csv": "94dcf45676ca629db0274a8015878aecddecf5e2d39b852853c243bf79eb0c8f",
            "truth_w.csv": "c3f949584a2cfc778c2bdca125b4c0853760aa3732f64e65adb9fae086ad6bd5",
        }

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("drift:8,-0.02", "constant:inf", "synthetic data is not finite at recording 0"),
            ("cooling tau_c=50 amp=1", "cooling tau_c=50 amp=inf", "synthetic data is not finite"),
            ("m=32\ndt=5.0", "m=4\ndt=1e308", "time grid overflows: dt = 1e+308 with m = 4"),
            ("n=60", "n=1e20", "n = 100000000000000000000 recordings by m = 32 samples"),
            ("m=32", "m=1e20", "m = 100000000000000000000 samples is too large"),
        ],
        ids=["inf-weights", "inf-amp", "grid-overflow", "huge-n", "huge-m"],
    )
    @pytest.mark.parametrize("noise", ["noise=0", "noise_rel=0.01"])
    def test_unrepresentable_data_exits_2(self, tmp_path, capsys, old, new, message, noise):
        # The sizes fail numpy's dimension check, so nothing is allocated.
        spec = tmp_path / "spec.txt"
        spec.write_text(SYNTH_SPEC.replace(old, new).replace("noise_rel=0.01", noise))
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    def test_missing_spec_exits_3(self, tmp_path):
        code = cli.main(
            ["synth", "--spec", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    # One sample spans no time; a span of 5e-324 puts t_end / 3 below the smallest double.
    @pytest.mark.parametrize("grid", ["m=1\ndt=1", "m=2\ndt=5e-324"])
    def test_spanless_grid_asks_for_the_time_constant(self, tmp_path, capsys, grid):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"n=3\n{grid}\ncooling amp=1 weights=constant:1\n")
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cooling: the recording span fixes no time constant; give tau_c\n"
        )
        assert not out.exists()

    # sigma passes its checks; sigma times a normal draw above about 1.8 does not.
    @pytest.mark.parametrize(
        "noise,code,stderr,stdout",
        [
            (
                "1e308",
                2,
                "error: synthetic data is not finite at recording 3, sample 0; "
                "the noise of sigma = 1e+308 overflows\n",
                "",
            ),
            ("1e200", 0, "", "(76 noise clamp(s))\n"),
        ],
        ids=["overflows", "finite"],
    )
    def test_overflowing_noise_is_blamed_on_the_noise(
        self, tmp_path, capsys, noise, code, stderr, stdout
    ):
        # Recording 3, sample 0 overflows to -inf: it is reported, not clamped.
        spec = tmp_path / "spec.txt"
        spec.write_text(
            f"n=40\nm=4\ndt=1\nseed=0\nnoise={noise}\ncooling tau_c=2 amp=1 weights=constant:1\n"
        )
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == stderr
        assert captured.out.endswith(stdout)
        assert out.exists() == (code == 0)

    def test_dataset_over_several_row_blocks_replays_one_noise_draw(self, tmp_path, capsys):
        # 5,000 rows are three row blocks, the last one shorter.
        text = (
            "n=5000\nm=32\ndt=5.0\nseed=12\nnoise_rel=0.02\n"
            "heating tau_h=20 amp=1 weights=walk:3,0.05\n"
            "cooling tau_c=45 amp=1 weights=drift:0.2,0.001\n"
        )
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        from tsnmf.dataio import ingest_csv
        from tsnmf.specfiles import parse_synthetic_spec
        from tsnmf.synth import generate, noise_sigma_for_range

        parsed = parse_synthetic_spec(text)
        truth = generate(parsed)
        written = ingest_csv(out / "dataset.csv").values
        assert written.tobytes() == truth.t_noisy.tobytes()
        # Weights first, then max(0, w @ theta + sigma * noise) from one N x M draw.
        rng = np.random.default_rng(parsed.seed)
        w = np.column_stack([c.weights.sample(parsed.n, rng) for c in parsed.components])
        t_clean = w @ truth.theta_true
        sigma = noise_sigma_for_range(t_clean, parsed.noise_rel)
        raw = t_clean + sigma * rng.standard_normal((parsed.n, parsed.grid.m))
        assert written.tobytes() == np.maximum(0.0, raw).tobytes()
        clamps = np.count_nonzero(raw < 0.0)
        assert clamps > 0
        assert capsys.readouterr().out.endswith(f"({clamps} noise clamp(s))\n")

    def test_production_scale_generation_under_one_second(self, tmp_path):
        import time

        spec = tmp_path / "big.txt"
        spec.write_text(
            "n=540\nm=32\ndt=5.0\nseed=2\nnoise_rel=0.01\n"
            "bathpulse tau_c=120 tau_h=7 amp=1 weights=walk:40,0.05\n"
            "cooling tau_c=60 amp=1 weights=drift:9,-0.01\n"
            "bathpulse tau_c=30 tau_h=6 amp=1 weights=periodic:2,8,45\n"
            "heating tau_h=35 amp=1 weights=walk:6,0.02\n"
        )
        start = time.perf_counter()
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "big")]) == 0
        assert time.perf_counter() - start < 1.0


class TestDecomposeCommand:
    def test_planted_knowledge_run(self, tmp_path, dataset):
        comp = tmp_path / "components.txt"
        comp.write_text(COMPONENTS)
        out = tmp_path / "run"
        code = cli.main(
            [
                "decompose",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "3",
                "--init",
                "knowledge",
                "--components",
                str(comp),
                "--normalize",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        theta = read_matrix_csv(out / "theta.csv")
        assert theta.shape == (3, 32)
        sums = theta.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9

        # Final cost beats the noise floor of the planted dataset.
        noisy = read_matrix_csv(out / "w.csv") @ theta  # shape check only
        assert noisy.shape == (60, 32)
        from tsnmf.dataio import ingest_csv

        ts = ingest_csv(dataset / "dataset.csv")
        clean = read_matrix_csv(dataset / "truth_w.csv") @ read_matrix_csv(
            dataset / "truth_theta.csv"
        )
        noise_floor = float(np.sum((ts.values - clean) ** 2))
        trace = (out / "trace.csv").read_text().splitlines()
        final_cost = float(trace[-1].split(",")[1])
        assert final_cost <= noise_floor

    def test_rank_too_large_exits_2(self, tmp_path, dataset, capsys):
        out = tmp_path / "run"
        code = cli.main(
            [
                "decompose",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "33",
                "--init",
                "random",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "min(N, M)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "curve, unset",
        [("cooling", "tau_c"), ("bathpulse", "tau_c and tau_h"), ("bathpulse tau_c=2", "tau_h")],
    )
    def test_one_sample_knowledge_init_asks_for_the_time_constant(
        self, tmp_path, capsys, curve, unset
    ):
        data, spec, out = tmp_path / "data.csv", tmp_path / "curves.txt", tmp_path / "o"
        data.write_text("1\n2\n3\n")
        spec.write_text(curve + "\n")
        paths = ["--input", str(data), "--components", str(spec), "--out", str(out)]
        assert cli.main(["decompose", *"--k 1 --dt 1 --init knowledge".split(), *paths]) == 2
        kind = curve.split()[0]
        assert capsys.readouterr().err == (
            f"error: {kind}: the recording span fixes no time constant; give {unset}\n"
        )
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, dataset):
        code1, out1 = run_decompose(tmp_path, dataset, "r1", "--seed", "5", "--plots")
        code2, out2 = run_decompose(tmp_path, dataset, "r2", "--seed", "5", "--plots")
        assert code1 == 0 and code2 == 0
        for name in ("theta.csv", "w.csv", "trace.csv", "theta.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_success_stdout(self, tmp_path, dataset, capsys):
        capsys.readouterr()
        code, out = run_decompose(tmp_path, dataset, "so", "--plots")
        assert code == 0
        lines = (out / "report.txt").read_text().splitlines()
        report = dict(line.split(" = ", 1) for line in lines)
        names = ["theta.csv", "w.csv", "trace.csv", "report.txt"]
        names += ["theta.svg", "w.svg", "trace.svg"]
        assert capsys.readouterr().out.splitlines() == [
            f"decomposed {dataset / 'dataset.csv'} with k=3 (nndsvd): "
            f"final cost {report['final_cost']} "
            f"after {report['iterations']} iteration(s)",
            *(f"wrote {out / name}" for name in names),
        ]

    def test_plots_emitted(self, tmp_path, dataset):
        code, out = run_decompose(tmp_path, dataset, "rp", "--plots")
        assert code == 0
        for name in ("theta.svg", "w.svg", "trace.svg"):
            assert (out / name).read_text().startswith("<svg")

    def test_negative_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n-3,4\n")
        code = cli.main(
            [
                "decompose",
                "--input",
                str(bad),
                "--k",
                "1",
                "--init",
                "random",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_failure_removes_partial_outputs(self, tmp_path, dataset, monkeypatch):
        out = tmp_path / "partial"

        def boom(path, costs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_trace_csv", boom)
        code = cli.main(
            [
                "decompose",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "2",
                "--init",
                "random",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()

    def test_failure_leaves_previous_outputs_untouched(
        self, tmp_path, dataset, monkeypatch
    ):
        code, out = run_decompose(tmp_path, dataset, "d", "--init", "random", "--seed", "1")
        assert code == 0
        names = ["report.txt", "theta.csv", "trace.csv", "w.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        before = {name: (out / name).read_bytes() for name in names}
        siblings = sorted(p.name for p in tmp_path.iterdir())

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_trace_csv", boom)
        # Another seed, so files the failed run wrote would differ.
        code, _ = run_decompose(tmp_path, dataset, "d", "--init", "random", "--seed", "2")
        assert code == 3
        assert sorted(p.name for p in out.iterdir()) == names
        assert {name: (out / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == siblings

    def test_report_names_stop_reason_after_iterations(self, tmp_path, dataset):
        code, out = run_decompose(tmp_path, dataset, "r", "--max-iters", "3", "--tol", "0")
        assert code == 0
        lines = (out / "report.txt").read_text().splitlines()
        at = lines.index("iterations = 3")
        assert lines[at + 1] == "stop_reason = max_iters"

    def test_report_counts_rejected_sweeps_after_stop_reason(self, tmp_path, dataset):
        code, out = run_decompose(tmp_path, dataset, "r", "--max-iters", "60", "--tol", "0")
        assert code == 0
        lines = (out / "report.txt").read_text().splitlines()
        at = lines.index("stop_reason = max_iters")
        key, _, value = lines[at + 1].partition(" = ")
        assert key == "rejected_sweeps" and int(value) >= 1
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        costs = [float(row.split(",")[1]) for row in rows]
        assert all(after <= before for before, after in zip(costs, costs[1:]))

    def test_config_file_with_cli_override(self, tmp_path, dataset):
        config = tmp_path / "run.conf"
        config.write_text(
            "\n".join(
                [
                    f"input = {dataset / 'dataset.csv'}",
                    "k = 2",
                    "init = random",
                    "seed = 9",
                    "# comment line",
                    f"out = {tmp_path / 'cfg_out'}",
                ]
            )
            + "\n"
        )
        code = cli.main(["decompose", "--config", str(config), "--k", "3"])
        assert code == 0
        theta = read_matrix_csv(tmp_path / "cfg_out" / "theta.csv")
        assert theta.shape == (3, 32)  # CLI --k overrode the config's k = 2

    def test_bad_config_value_exits_2(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("k = lots\n")
        assert cli.main(["decompose", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "line,message",
        [
            ("k 2", "expected 'key = value', got 'k 2'"),
            ("rank = 2", "unknown option 'rank'"),
            ("plots = maybe", "expected a boolean for 'plots', got 'maybe'"),
        ],
    )
    def test_bad_config_line_names_its_line(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.conf"
        config.write_text(f"# run settings\nk = 2\n{line}\n")
        assert cli.main(["decompose", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:3: {message}\n"

    def test_component_count_must_match_k(self, tmp_path, dataset, capsys):
        spec = tmp_path / "curves.txt"
        spec.write_text("mean\ncooling\n")
        code, out = run_decompose(
            tmp_path, dataset, "o", "--init", "knowledge", "--components", str(spec)
        )
        assert code == 2
        message = "component spec file defines 2 components but k = 3"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_seed_exits_2(self, tmp_path, dataset, capsys, via_config):
        config = tmp_path / "run.conf"
        config.write_text("seed = -1\n")
        extra = ["--config", str(config)] if via_config else ["--seed", "-1"]
        code, out = run_decompose(tmp_path, dataset, "o", "--init", "random", *extra)
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_dt_with_header_exits_2(self, tmp_path, dataset, capsys):
        code, out = run_decompose(tmp_path, dataset, "o", "--dt", "-1")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: time step must be positive, got dt = -1.0\n"
        )

    @pytest.mark.parametrize("init", cli.STRATEGIES)
    def test_subnormal_data_decomposes(self, tmp_path, init):
        # Squared norms of such data have no finite reciprocal.
        path = tmp_path / "tiny.csv"
        path.write_text("t=0,t=2\n5e-324,5e-324\n")
        argv = ["--input", str(path), "--k", "1", "--init", init, "--out", str(tmp_path / "o")]
        assert cli.main(["decompose", *argv]) == 0

    def test_missing_required_exits_2(self, capsys):
        assert cli.main(["decompose", "--k", "3"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_numerical_failure_exits_4(self, tmp_path, dataset, monkeypatch):
        from tsnmf.errors import NumericalError

        def blow_up(*args, **kwargs):
            raise NumericalError("jacobi did not converge")

        monkeypatch.setattr(cli, "solve", blow_up)
        code = cli.main(
            [
                "decompose",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "2",
                "--init",
                "random",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 4

    def test_lapack_failure_in_nndsvd_exits_4(self, tmp_path, dataset, monkeypatch, capsys):
        from tsnmf import nndsvd_init
        from tsnmf.errors import NumericalError

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        # LinAlgError is a ValueError: unmapped, it would leave main as a traceback (exit 1).
        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="^svd failed: did not converge$"):
            nndsvd_init(np.ones((4, 3)), 2)
        capsys.readouterr()
        code, _ = run_decompose(tmp_path, dataset, "o")
        assert code == 4
        assert capsys.readouterr().err == "numerical failure: svd failed: did not converge\n"

    @pytest.mark.parametrize(
        "row,init",
        [("1,1.7e308,1.7e308,1,1.7e308,1.7e308", "nndsvd"), ("1,1,0.5,0.5,1e300", "knowledge")],
        ids=["svd", "sum-of-squares"],
    )
    def test_overflow_in_one_row_exits_4(self, tmp_path, capsys, row, init):
        # pytest turns any warning into an error, so none may precede the exit.
        path = tmp_path / "row.csv"
        path.write_text(row + "\n")
        argv = ["decompose", "--input", str(path), "--k", "1", "--init", init, "--dt", "1"]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_data_exits_4_without_factor_files(self, tmp_path, dataset):
        from tsnmf.dataio import ingest_csv, write_matrix_csv

        data = ingest_csv(dataset / "dataset.csv")
        huge = tmp_path / "huge.csv"
        write_matrix_csv(huge, data.values * 1e300, grid=data.grid)
        out = tmp_path / "o"
        code = cli.main(
            [
                "decompose",
                "--input",
                str(huge),
                "--k",
                "2",
                "--init",
                "random",
                "--max-iters",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 4
        for name in ("theta.csv", "w.csv", "trace.csv", "report.txt"):
            assert not (out / name).exists()


# Each command's second writer and the call of it that fails; score writes one
# file, so it fails while writing its first row.
FAILING_WRITERS = {
    "decompose": ("write_matrix_csv", 2),
    "compare-inits": ("write_line_plot", 1),
    "synth": ("write_matrix_csv", 2),
    "score": ("format_number", 1),
}


@pytest.mark.parametrize("command", list(FAILING_WRITERS))
def test_failure_into_a_fresh_nested_path_leaves_no_directory(
    tmp_path, dataset, monkeypatch, capsys, command
):
    code, recovered = run_decompose(tmp_path, dataset, "recovered")
    assert code == 0
    root = tmp_path / "runs"
    root.mkdir()
    (root / "kept.txt").write_text("kept\n")
    out = str(root / "a" / "b" / "out")
    data = ["--input", str(dataset / "dataset.csv"), "--k", "3", "--out", out]
    argv = {
        "decompose": ["decompose", *data, "--init", "nndsvd"],
        "compare-inits": ["compare-inits", *data, "--strategies", "nndsvd"],
        "synth": ["synth", "--spec", str(tmp_path / "spec.txt"), "--out", out],
        "score": ["score", "--recovered", str(recovered), "--truth", str(dataset), "--out", out],
    }[command]
    name, failing_call = FAILING_WRITERS[command]
    writer, calls = getattr(cli, name), []

    def fails_once_reached(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise OSError("disk full")
        return writer(*args, **kwargs)

    monkeypatch.setattr(cli, name, fails_once_reached)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "i/o error: disk full\n"
    assert len(calls) == failing_call
    assert sorted(p.name for p in root.iterdir()) == ["kept.txt"]


def test_output_directory_that_cannot_be_made_leaves_no_parents(tmp_path, dataset, capsys):
    # The parents are made before the name that is too long fails.
    root = tmp_path / "runs"
    root.mkdir()
    out = root / "a" / "b" / ("x" * 300)
    assert cli.main(["synth", "--spec", str(tmp_path / "spec.txt"), "--out", str(out)]) == 3
    assert "File name too long" in capsys.readouterr().err
    assert not any(root.iterdir())


@pytest.mark.parametrize(
    "command,shared,flag_only",
    [
        ("decompose", ["--init", "random", "--seed", "4"], ["--normalize"]),
        ("compare-inits", ["--strategies", "nndsvd,random", "--seeds", "2"], []),
    ],
)
def test_config_entries_match_flags(tmp_path, dataset, command, shared, flag_only):
    """A config-file entry acts as its flag, a flag overrides the entry, and
    booleans may be written on/off (keys of the other command are ignored)."""
    data = str(dataset / "dataset.csv")
    flags = ["--input", data, "--k", "2", "--max-iters", "6", "--tol", "0"]
    config = tmp_path / "run.conf"
    config.write_text(
        f"input = {data}\nk = 2\nmax-iters = 6\ntol = 0\nnormalize = on\nplots = off\n"
    )
    override = tmp_path / "override.conf"
    override.write_text(f"input = {data}\nk = 3\nmax_iters = 40\ntol = 0.5\n")
    runs = {
        "flags": [*flags, *flag_only],
        "config": ["--config", str(config)],
        "override": ["--config", str(override), *flags, *flag_only],
    }
    outputs = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main([command, *shared, *argv, "--out", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["config"] == outputs["flags"]
    assert outputs["override"] == outputs["flags"]


@pytest.mark.parametrize(
    "command,extra", [("decompose", ["--init", "random"]), ("compare-inits", [])]
)
def test_k_below_one_rejected_before_ingest(tmp_path, capsys, command, extra):
    argv = ["--input", str(tmp_path / "missing.csv"), "--k", "0", *extra]
    assert cli.main([command, *argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "command,extra", [("decompose", ["--init", "random"]), ("compare-inits", [])]
)
@pytest.mark.parametrize(
    "option,message",
    [
        (["--out", ""], "missing required option(s): --out"),
        (["--max-iters", "0"], "max_iters must be >= 1, got 0"),
        (["--tol", "-1"], "rel_tol must be >= 0, got -1.0"),
    ],
)
def test_bad_option_rejected_before_ingest(tmp_path, capsys, command, extra, option, message):
    # The input does not exist: reading it first would exit 3.
    argv = ["--input", str(tmp_path / "missing.csv"), "--k", "2", *extra]
    argv += ["--out", str(tmp_path / "o"), *option]
    assert cli.main([command, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "config,message",
    [
        ("input =", "missing required option(s): --input"),
        ("init = bogus", "unknown strategy 'bogus'"),
    ],
)
def test_bad_decompose_config_entry_rejected_before_ingest(tmp_path, capsys, config, message):
    path = tmp_path / "run.conf"
    path.write_text(f"input = {tmp_path / 'missing.csv'}\nk = 2\ninit = random\n{config}\n")
    assert cli.main(["decompose", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "option,message",
    [
        (["--seeds", "0"], "need at least one random seed, got 0"),
        (["--strategies", "random,bogus"], "unknown strategy 'bogus'"),
        (["--strategies", "nndsvd,nndsvd"], "strategy 'nndsvd' requested twice"),
        (["--strategies", ","], "no strategies requested"),
    ],
)
def test_bad_compare_option_rejected_before_ingest(tmp_path, capsys, option, message):
    argv = ["--input", str(tmp_path / "missing.csv"), "--k", "2", "--out", str(tmp_path / "o")]
    assert cli.main(["compare-inits", *argv, *option]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "curve,message",
    [
        ("cooling tau_c=nan", "error: line 2: tau_c must be positive, got nan"),
        ("heatkernel r=nan", "error: line 2: r must be >= 0, got nan"),
        ("cooling amp=inf", "error: component 1 (cooling): the curve is not finite"),
    ],
)
def test_non_finite_curve_parameter_is_blamed_on_the_spec(
    tmp_path, dataset, capsys, caplog, curve, message
):
    spec = tmp_path / "curves.txt"
    spec.write_text(f"mean\n{curve}\n")
    code, out = run_decompose(
        tmp_path, dataset, "o", "--init", "knowledge", "--components", str(spec), "--k", "2"
    )
    assert code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not caplog.records  # no near-duplicate warning about the inf curve
    assert not out.exists()


def _help(command, monkeypatch, capsys) -> str:
    """The --help text of ``command``, whitespace collapsed, unwrapped."""
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("row", cli.OPTIONS, ids=lambda row: row[0])
def test_option_table_drives_help(monkeypatch, capsys, row):
    name, _, _, help_text, commands = row
    flag = re.compile(rf"(?<![\w-])--{name.replace('_', '-')}(?![\w-])")
    for command in ("decompose", "compare-inits"):
        text = _help(command, monkeypatch, capsys)
        assert bool(flag.search(text)) == (command in commands), command
        assert (" ".join(help_text.split()) in text) == (command in commands), command


@pytest.mark.parametrize("command", ["decompose", "compare-inits"])
def test_every_config_key_accepted(tmp_path, dataset, command):
    """A config file may set any OPTIONS key, whichever command reads it."""
    components = tmp_path / "components.txt"
    components.write_text(COMPONENTS)
    data = str(dataset / "dataset.csv")
    base = [f"input = {data}", f"out = {tmp_path / 'base'}", "k = 3", "init = random"]
    base += ["strategies = random", "seeds = 2", "max_iters = 3"]
    values = {
        "input": data,
        "k": "2",
        "init": "nndsvd",
        "seeds": "3",
        "strategies": "nndsvd,random",
        "components": str(components),
        "seed": "4",
        "tol": "0.5",
        "max_iters": "2",
        "dt": "5.0",
        "normalize": "on",
        "plots": "yes",
        "out": str(tmp_path / "other"),
    }
    assert set(values) == {row[0] for row in cli.OPTIONS}
    config = tmp_path / "run.conf"
    for name, value in values.items():
        # The last line sets the key; it overrides a base line of the same key.
        config.write_text("\n".join([*base, f"{name} = {value}"]) + "\n")
        assert cli.main([command, "--config", str(config)]) == 0, name


class TestByteOrderMark:
    """Spreadsheet "CSV UTF-8" exports begin text files with a byte-order mark."""

    def test_component_spec(self, tmp_path, dataset):
        outputs = []
        for name, prefix in (("plain", ""), ("marked", BOM)):
            spec = tmp_path / f"{name}.txt"
            spec.write_text(prefix + COMPONENTS, encoding="utf-8")
            code, out = run_decompose(
                tmp_path, dataset, name, "--init", "knowledge", "--components", str(spec)
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_synthetic_spec(self, tmp_path):
        outputs = []
        for name, prefix in (("plain", ""), ("marked", BOM)):
            spec = tmp_path / f"{name}.txt"
            spec.write_text(prefix + SYNTH_SPEC, encoding="utf-8")
            out = tmp_path / name
            assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_config_file(self, tmp_path, dataset):
        outputs = []
        for name, prefix in (("plain", ""), ("marked", BOM)):
            config = tmp_path / f"{name}.conf"
            out = tmp_path / name
            text = f"k = 2\ninput = {dataset / 'dataset.csv'}\ninit = random\nout = {out}\n"
            config.write_text(prefix + text, encoding="utf-8")
            assert cli.main(["decompose", "--config", str(config)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


@settings(max_examples=20, deadline=None)
@given(
    t=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 6)),
        elements=st.floats(0.0, 1e3),
    ),
    k=st.integers(1, 3),
)
def test_decompose_reruns_are_byte_identical(tmp_path_factory, t, k):
    k = min(k, *t.shape)
    root = tmp_path_factory.mktemp("rerun")
    write_matrix_csv(root / "data.csv", t, grid=time_vector(t.shape[1], 2.0))
    for init in cli.STRATEGIES:
        files = []
        for run in ("a", "b"):
            out = root / f"{init}-{run}"
            argv = ["--input", str(root / "data.csv"), "--k", str(k), "--init", init]
            assert cli.main(["decompose", *argv, "--out", str(out)]) == 0
            names = ("theta.csv", "w.csv", "trace.csv", "report.txt")
            files.append([(out / name).read_bytes() for name in names])
        assert files[0] == files[1], init


COMMANDS = [["decompose", "--init", init] for init in cli.STRATEGIES] + [
    ["compare-inits", "--seeds", "2"]
]


@settings(max_examples=300, deadline=None)
@given(
    t=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e300, 1.7e308]),
            st.floats(0.0, np.finfo(float).max),
        ),
    ),
    header=st.booleans(),
    command=st.sampled_from(COMMANDS),
    k=st.integers(1, 4),
)
def test_contract_holds_across_the_double_range(tmp_path_factory, t, header, command, k):
    # pytest turns any warning into an error, so a warning fails the example too.
    root = tmp_path_factory.mktemp("contract")
    write_matrix_csv(root / "data.csv", t, grid=time_vector(t.shape[1], 2.0) if header else None)
    out = root / "out"
    out.mkdir()
    (out / "report.txt").write_text("previous run\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    argv = [*command, "--input", str(root / "data.csv"), "--k", str(k), "--out", str(out)]
    code = cli.main(argv if header else [*argv, "--dt", "2"])
    assert code in (0, 2, 3, 4)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    if code:
        assert after == before
    else:
        for name, body in after.items():
            assert not re.search(rb"(?i)\b(nan|inf)\b", body), name


def mostly_ordinary(ordinary, edges):
    """Draws of which one in four is an edge: most files are valid and run to the end."""
    return st.integers(0, 3).flatmap(lambda i: ordinary if i else edges)


# Parameter values as spec and config files write them.
VALUES = mostly_ordinary(
    st.floats(0.01, 100).map(repr), st.sampled_from(["nan", "inf", "0", "5e-324", "1e308"])
)
CELLS = mostly_ordinary(st.floats(0.0, 100.0), st.sampled_from([0.0, 5e-324, 1e300, 1.7e308]))
# Config-file entries that override a valid base configuration, bad ones included.
CONFIG_VALUES = {
    "k": st.sampled_from(["0", "1", "2"]),
    "init": st.sampled_from([*cli.STRATEGIES, "bogus", ""]),
    "seed": st.sampled_from(["-1", "0", "3"]),
    "seeds": st.sampled_from(["0", "1", "2"]),
    "strategies": st.sampled_from(["knowledge,nndsvd", "random", "random,random", ","]),
    "tol": VALUES,
    "max_iters": st.sampled_from(["0", "1", "4"]),
    "dt": VALUES,
    "normalize": st.sampled_from(["on", "off"]),
    "out": st.just(""),
}


@st.composite
def curve_lines(draw, weights: bool) -> str:
    """One spec-file line; a synthetic one ends with a weights= clause."""
    kind = draw(st.sampled_from(CURVE_KINDS))
    words = [kind] + [f"{p}={draw(VALUES)}" for p in CURVE_PARAMS[kind] if draw(st.booleans())]
    if weights:
        model = draw(st.sampled_from(list(WEIGHT_ARGS)))
        words.append(f"weights={model}:" + ",".join(draw(VALUES) for _ in WEIGHT_ARGS[model]))
    return " ".join(words)


@st.composite
def datasets(draw) -> str:
    """A dataset file of up to 5x5 cells, with or without a time header, with
    blank lines anywhere."""
    t = draw(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=CELLS))
    lines = [",".join(map(repr, row)) for row in t.tolist()]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"t={2 * j}" for j in range(t.shape[1])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + "\n"


def assert_contract(argv, out, fresh=False) -> int:
    """Run ``argv`` against an output directory holding a previous run's file,
    or, if ``fresh``, against one that does not exist yet: the exit code is
    documented, an exit 0 writes only finite numbers, and any other exit
    leaves the directory as it was, or absent. pytest turns a warning into an
    error, so none may be emitted either."""
    if not fresh:
        out.mkdir(exist_ok=True)
        (out / "report.txt").write_text("previous run\n")
    before = listing(out)
    code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    after = listing(out)
    if code:
        assert after == before
    for name, body in (after or {}).items():
        if name == "match.csv":
            # A constant weight column has no correlation; score writes nan for it.
            body = re.sub(rb",nan$", b"", body, flags=re.M)
        assert not re.search(rb"(?i)\b(nan|inf)\b", body), name
    return code


def listing(out):
    """Each file's bytes by name, or None where ``out`` does not exist."""
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


@settings(max_examples=120, deadline=None)
@given(
    data=datasets(),
    curves=st.lists(curve_lines(weights=False), min_size=1, max_size=3),
    command=st.sampled_from(["decompose", "compare-inits"]),
    init=st.sampled_from(cli.STRATEGIES),
    config=st.lists(st.sampled_from(list(CONFIG_VALUES)), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: CONFIG_VALUES[key] for key in keys})
    ),
    truth=st.sampled_from(["recovered", "permuted", "wrong shape"]),
)
def test_contract_holds_for_spec_config_and_score_files(
    tmp_path_factory, data, curves, command, init, config, truth
):
    root = tmp_path_factory.mktemp("files")
    out = root / "out"
    (root / "data.csv").write_text(data)
    (root / "curves.txt").write_text("\n".join(curves) + "\n")
    base = {"input": root / "data.csv", "components": root / "curves.txt", "out": out}
    base |= {"k": len(curves), "init": init, "seeds": 2, "dt": 2}
    # A key's last line sets it, so the drawn entries override the base ones.
    lines = [f"{key} = {value}" for items in (base, config) for key, value in items.items()]
    (root / "run.conf").write_text("\n".join(lines) + "\n")
    if assert_contract([command, "--config", str(root / "run.conf")], out) or command != "decompose":
        return
    # score the factors just written against a truth made from them
    w, theta = read_matrix_csv(out / "w.csv"), read_matrix_csv(out / "theta.csv")
    if truth == "permuted":
        w, theta = w[:, ::-1], theta[::-1]
    elif truth == "wrong shape":
        w = w[:-1] if w.shape[0] > 1 else np.vstack([w, w])
    write_matrix_csv(root / "truth_w.csv", w)
    write_matrix_csv(root / "truth_theta.csv", theta)
    argv = ["score", "--recovered", str(out), "--truth", str(root), "--out", str(root / "score")]
    assert assert_contract(argv, root / "score") == (2 if truth == "wrong shape" else 0)


@settings(max_examples=80, deadline=None)
@given(
    directives=st.fixed_dictionaries(
        {"n": st.integers(1, 5), "m": st.integers(1, 5), "dt": VALUES, "seed": st.integers(0, 3)},
        optional={"noise": VALUES, "noise_rel": VALUES},
    ).filter(lambda d: not {"noise", "noise_rel"} <= set(d)),
    curves=st.lists(curve_lines(weights=True), min_size=1, max_size=2),
    fresh=st.booleans(),
)
# Noise that overflows at recording 3, sample 0, once dataset.csv is open, into a fresh path.
@example(
    directives={"n": 4, "m": 4, "dt": "1", "seed": 0, "noise": "1e308"},
    curves=["cooling tau_c=2 amp=1 weights=constant:1"],
    fresh=True,
)
def test_synth_contract_holds_across_the_double_range(tmp_path_factory, directives, curves, fresh):
    root = tmp_path_factory.mktemp("synth")
    lines = [f"{key}={value}" for key, value in directives.items()] + curves
    (root / "spec.txt").write_text("\n".join(lines) + "\n")
    out = root / "out"
    assert_contract(["synth", "--spec", str(root / "spec.txt"), "--out", str(out)], out, fresh)


@pytest.mark.parametrize("kind", ["dataset", "components", "config", "theta"])
@settings(max_examples=100, deadline=None)
@given(body=st.binary(max_size=64))
@example(body=b"1,\xe9\n")  # a Latin-1 byte, as in a sensor export
def test_no_input_file_crashes_the_cli(kind, body):
    """Any bytes as one input file, the others valid: a documented exit, no exception.
    The decompose flags override every config entry that could move its input or output."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_matrix_csv(root / "data.csv", np.arange(1.0, 13.0).reshape(3, 4))
        (root / "curves.txt").write_text("cooling\n")
        (root / "run.conf").write_text("seed = 1\n")
        for name in ("w.csv", "truth_w.csv"):
            write_matrix_csv(root / name, np.ones((3, 1)))
        for name in ("theta.csv", "truth_theta.csv"):
            write_matrix_csv(root / name, np.ones((1, 4)))
        names = {"dataset": "data.csv", "components": "curves.txt", "config": "run.conf"}
        (root / names.get(kind, "theta.csv")).write_bytes(body)
        if kind == "theta":
            argv = ["score", "--recovered", tmp, "--truth", tmp, "--out", str(root / "out")]
        else:
            argv = ["decompose", "--input", str(root / "data.csv"), "--out", str(root / "out")]
            argv += ["--k", "1", "--init", "knowledge", "--max-iters", "3", "--dt", "2"]
            argv += ["--components", str(root / "curves.txt"), "--config", str(root / "run.conf")]
        assert assert_contract(argv, root / "out") in (0, 2, 3, 4)



@pytest.mark.parametrize("kind", ["dataset", "score", "components", "synth", "config"])
def test_undecodable_file_is_named(tmp_path, capsys, kind):
    # A Latin-1 degree sign (byte 0xB0), as a sensor export may write it.
    bad = tmp_path / ("theta.csv" if kind == "score" else "bad.txt")
    bad.write_bytes(b"1,2\n# 20\xb0C\n")
    write_matrix_csv(tmp_path / "data.csv", np.arange(1.0, 13.0).reshape(3, 4))
    write_matrix_csv(tmp_path / "w.csv", np.ones((3, 1)))
    out = tmp_path / "out"
    argv = {
        "dataset": ["decompose", "--input", str(bad), "--k", "1", "--init", "random"],
        "score": ["score", "--recovered", str(tmp_path), "--truth", str(tmp_path)],
        "components": ["decompose", "--input", str(tmp_path / "data.csv"), "--k", "1"],
        "synth": ["synth", "--spec", str(bad)],
        "config": ["decompose", "--config", str(bad)],
    }[kind]
    if kind == "components":
        argv += ["--init", "knowledge", "--dt", "2", "--components", str(bad)]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xb0 in position ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["components", "input", "out"])
def test_nul_byte_in_a_config_path_exits_2(tmp_path, capsys, key):
    write_matrix_csv(tmp_path / "data.csv", np.arange(1.0, 13.0).reshape(3, 4))
    (tmp_path / "curves.txt").write_text("cooling\n")
    entries = {
        "k": "1",
        "init": "knowledge",
        "dt": "2",
        "input": str(tmp_path / "data.csv"),
        "components": str(tmp_path / "curves.txt"),
        "out": str(tmp_path / "out"),
    }
    entries[key] = "a\0b"
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{name} = {value}\n" for name, value in entries.items()))
    assert cli.main(["decompose", "--config", str(config)]) == 2
    line = list(entries).index(key) + 1
    assert capsys.readouterr().err == f"error: {config}:{line}: {key!r} holds a NUL byte\n"
    assert not (tmp_path / "out").exists()


# The acceptance curves; a spec takes the first K.
STREAM_CURVES = (
    "bathpulse tau_c=90 tau_h=8 amp=1 weights=walk:30,0.05",
    "cooling tau_c=50 amp=1 weights=drift:8,0.001",
    "heating tau_h=25 amp=1 weights=periodic:2,6,20",
    "bathpulse tau_c=30 tau_h=6 amp=1 weights=constant:0.5",
)


@settings(max_examples=30, deadline=None)
@given(
    # Row blocks hold 2,048 rows; one more leaves a one-row last block.
    n=st.integers(2, 5_000) | st.sampled_from([2_049, 4_097]),
    m=st.integers(4, 40),
    k=st.integers(1, 4),
    noise=st.one_of(
        st.floats(0.0, 5.0).map(lambda v: f"noise={v!r}"),
        st.floats(0.0, 0.5).map(lambda v: f"noise_rel={v!r}"),
    ),
    seed=st.integers(0, 2**16),
)
@example(n=2_049, m=32, k=4, noise="noise_rel=0.01", seed=7)
@example(n=4_097, m=32, k=2, noise="noise=5.0", seed=11)
def test_synth_streams_the_generated_dataset(tmp_path_factory, n, m, k, noise, seed):
    from tsnmf.dataio import ingest_csv
    from tsnmf.specfiles import parse_synthetic_spec
    from tsnmf.synth import generate, noise_sigma_for_range

    k = min(k, n)
    text = f"n={n}\nm={m}\ndt=5\nseed={seed}\n{noise}\n" + "\n".join(STREAM_CURVES[:k]) + "\n"
    root = tmp_path_factory.mktemp("stream")
    (root / "spec.txt").write_text(text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["synth", "--spec", str(root / "spec.txt"), "--out", str(root / "o")]) == 0
    written = ingest_csv(root / "o" / "dataset.csv").values
    parsed = parse_synthetic_spec(text)
    truth = generate(parsed)
    assert written.tobytes() == truth.t_noisy.tobytes()
    # Weights first, then max(0, w @ theta + sigma * noise), from one product and one draw.
    rng = np.random.default_rng(seed)
    w = np.column_stack([c.weights.sample(n, rng) for c in parsed.components])
    t_clean = w @ truth.theta_true
    sigma = parsed.noise_sigma
    if parsed.noise_rel is not None:
        sigma = noise_sigma_for_range(t_clean, parsed.noise_rel)
    raw = t_clean + sigma * rng.standard_normal((n, m))
    assert written.tobytes() == np.maximum(0.0, raw).tobytes()
    clamps = np.count_nonzero(raw < 0.0)
    assert truth.noise_clamps == clamps
    assert stdout.getvalue().endswith(f"({clamps} noise clamp(s))\n")


def test_noise_overflow_in_a_late_row_block_writes_nothing(tmp_path, capsys):
    # The first non-finite entry is in the third row block (rows 4,096 on).
    text = "n=6000\nm=4\ndt=1\nseed=19\nnoise={}\ncooling tau_c=2 amp=1 weights=constant:1\n"
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(text.format("0.5"))
    bad.write_text(text.format("4e307"))
    message = (
        "error: synthetic data is not finite at recording 5990, sample 2; "
        "the noise of sigma = 4e+307 overflows\n"
    )
    fresh = tmp_path / "fresh"
    assert cli.main(["synth", "--spec", str(bad), "--out", str(fresh)]) == 2
    assert capsys.readouterr().err == message
    assert not fresh.exists()
    previous = tmp_path / "previous"
    assert cli.main(["synth", "--spec", str(good), "--out", str(previous)]) == 0
    before = {p.name: p.read_bytes() for p in previous.iterdir()}
    capsys.readouterr()
    assert cli.main(["synth", "--spec", str(bad), "--out", str(previous)]) == 2
    assert capsys.readouterr().err == message
    assert {p.name: p.read_bytes() for p in previous.iterdir()} == before


# The benchmark's synth_tall spec (acceptance curves at 21,600 rows, 1% noise).
SYNTH_TALL_SPEC = """\
n=21600
m=32
dt=5
seed=7
noise_rel=0.01
bathpulse amp=1 tau_c=130 tau_h=7 weights=walk:45,0.0031622776601683794
cooling amp=1 tau_c=60 weights=drift:10,-0.00025
bathpulse amp=1 tau_c=25 tau_h=5 weights=periodic:2,20,45
heating amp=1 tau_h=40 weights=walk:8,0.0031622776601683794
"""


def synth_counting_passes(monkeypatch, tmp_path, text):
    """Run ``synth`` on spec ``text``; return its stdout, the written dataset,
    ``generate``'s truth for the spec and the number of noise passes drawn."""
    from tsnmf.dataio import ingest_csv
    from tsnmf.specfiles import parse_synthetic_spec
    from tsnmf.synth import DatasetStream, generate

    truth = generate(parse_synthetic_spec(text))
    calls = []
    blocks = DatasetStream.blocks

    def counted(self):
        calls.append(self)
        return blocks(self)

    monkeypatch.setattr(DatasetStream, "blocks", counted)
    (tmp_path / "spec.txt").write_text(text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        argv = ["synth", "--spec", str(tmp_path / "spec.txt"), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
    written = ingest_csv(tmp_path / "o" / "dataset.csv").values
    return stdout.getvalue(), written, truth, len(calls)


@pytest.mark.parametrize(
    "text,clamped",
    [
        (SYNTH_TALL_SPEC, False),
        ("n=5000\nm=32\ndt=5\nseed=12\nnoise_rel=0.5\n" + "\n".join(STREAM_CURVES[:2]), True),
        # Noise near the largest double that stays finite is drawn once too.
        (
            "n=2100\nm=4\ndt=1\nseed=5\nnoise=1e307\ncooling tau_c=2 amp=1 weights=constant:1\n",
            True,
        ),
    ],
    ids=["synth_tall", "noise_rel-0.5", "noise-1e307"],
)
def test_synth_draws_the_noise_once_when_it_cannot_overflow(monkeypatch, tmp_path, text, clamped):
    stdout, written, truth, passes = synth_counting_passes(monkeypatch, tmp_path, text)
    assert passes == 1
    assert written.tobytes() == truth.t_noisy.tobytes()
    assert (truth.noise_clamps > 0) == clamped
    assert stdout.endswith(f"({truth.noise_clamps} noise clamp(s))\n")


class TestCompareInitsCommand:
    def test_all_strategies(self, tmp_path, dataset):
        comp = tmp_path / "components.txt"
        comp.write_text(COMPONENTS)
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare-inits",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "3",
                "--seeds",
                "3",
                "--components",
                str(comp),
                "--tol",
                "0",
                "--max-iters",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,knowledge,nndsvd,random"
        assert len(lines) == 41  # fixed horizon: equal-length columns
        assert (out / "convergence.svg").read_text().startswith("<svg")
        assert "iterations_to_1pct" in (out / "report.txt").read_text()

    def test_success_stdout(self, tmp_path, dataset, capsys):
        capsys.readouterr()
        out = tmp_path / "cmp"
        argv = ["--input", str(dataset / "dataset.csv"), "--k", "3", "--seeds", "2"]
        argv += ["--strategies", "random,nndsvd", "--max-iters", "30"]
        argv += ["--out", str(out)]
        assert cli.main(["compare-inits", *argv]) == 0
        expected = []
        for line in (out / "report.txt").read_text().splitlines():
            name, rest = line.split(": iterations_to_1pct = ")
            expected.append(
                f"{name}: iterations to within 1% of final = {rest.split(',')[0]}"
            )
        assert [line.split(":")[0] for line in expected] == ["random", "nndsvd"]
        assert capsys.readouterr().out.splitlines() == expected

    def test_single_strategy_degenerates(self, tmp_path, dataset):
        out = tmp_path / "cmp1"
        code = cli.main(
            [
                "compare-inits",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "3",
                "--strategies",
                "nndsvd",
                "--max-iters",
                "20",
                "--tol",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header == "iteration,nndsvd"

    def test_unknown_strategy_exits_2(self, tmp_path, dataset):
        code = cli.main(
            [
                "compare-inits",
                "--input",
                str(dataset / "dataset.csv"),
                "--k",
                "3",
                "--strategies",
                "genetic",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "strategies,message",
        [
            ("random,bogus", "unknown strategy 'bogus'"),
            ("random,random", "strategy 'random' requested twice"),
        ],
    )
    def test_bad_strategies_rejected_before_any_solve(
        self, tmp_path, dataset, capsys, monkeypatch, strategies, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(cli, "solve", no_solve)
        argv = ["--input", str(dataset / "dataset.csv"), "--k", "3", "--seeds", "3"]
        argv += ["--strategies", strategies, "--out", str(tmp_path / "x")]
        assert cli.main(["compare-inits", *argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestScoreCommand:
    def test_permuted_factors_recovered(self, tmp_path, dataset):
        from tsnmf.dataio import write_matrix_csv

        w = read_matrix_csv(dataset / "truth_w.csv")
        theta = read_matrix_csv(dataset / "truth_theta.csv")
        perm = [2, 0, 1]
        rec = tmp_path / "rec"
        rec.mkdir()
        write_matrix_csv(rec / "w.csv", w[:, perm])
        write_matrix_csv(rec / "theta.csv", theta[perm])
        out = tmp_path / "scored"
        code = cli.main(
            ["score", "--recovered", str(rec), "--truth", str(dataset), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "match.csv").read_text().splitlines()
        assert lines[0] == "recovered,true,cosine,weight_correlation"
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs == [("1", "3"), ("2", "1"), ("3", "2")]
        cosines = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(abs(c - 1.0) <= 1e-12 for c in cosines)

    def test_success_stdout(self, tmp_path, dataset, capsys):
        rec = tmp_path / "rec"
        rec.mkdir()
        for name in ("w.csv", "theta.csv"):
            (rec / name).write_bytes((dataset / f"truth_{name}").read_bytes())
        out = tmp_path / "scored"
        capsys.readouterr()
        code = cli.main(
            ["score", "--recovered", str(rec), "--truth", str(dataset), "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out / 'match.csv'}\n"

    def test_bad_cell_names_its_file(self, tmp_path, dataset, capsys):
        rec = tmp_path / "rec"
        rec.mkdir()
        write_matrix_csv(rec / "w.csv", read_matrix_csv(dataset / "truth_w.csv"))
        (rec / "theta.csv").write_text("x\n")
        argv = ["score", "--recovered", str(rec), "--truth", str(dataset), "--out", str(rec)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {rec / 'theta.csv'}: non-numeric cell 'x' at line 1, column 1\n"

    def test_k_mismatch_exits_2(self, tmp_path, dataset):
        from tsnmf.dataio import write_matrix_csv

        rec = tmp_path / "rec"
        rec.mkdir()
        write_matrix_csv(rec / "w.csv", np.ones((60, 2)))
        write_matrix_csv(rec / "theta.csv", np.ones((2, 32)))
        code = cli.main(
            [
                "score",
                "--recovered",
                str(rec),
                "--truth",
                str(dataset),
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 2

    def test_factors_that_do_not_conform_exit_2(self, tmp_path, dataset, capsys):
        rec = tmp_path / "rec"
        rec.mkdir()
        write_matrix_csv(rec / "w.csv", read_matrix_csv(dataset / "truth_w.csv"))
        write_matrix_csv(rec / "theta.csv", np.ones((2, 32)))
        argv = ["score", "--recovered", str(rec), "--truth", str(dataset), "--out", str(rec)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: w is 60x3 but theta is 2x32\n"
        assert not (rec / "match.csv").exists()

    @pytest.mark.parametrize("name,shape", [("theta.csv", (3, 30)), ("w.csv", (50, 3))])
    def test_shape_mismatch_exits_2(self, tmp_path, dataset, capsys, name, shape):
        from tsnmf.dataio import write_matrix_csv

        rec = tmp_path / "rec"
        rec.mkdir()
        write_matrix_csv(rec / "w.csv", read_matrix_csv(dataset / "truth_w.csv"))
        write_matrix_csv(rec / "theta.csv", read_matrix_csv(dataset / "truth_theta.csv"))
        write_matrix_csv(rec / name, np.ones(shape))
        code = cli.main(
            ["score", "--recovered", str(rec), "--truth", str(dataset), "--out", str(rec)]
        )
        assert code == 2
        assert "mismatch" in capsys.readouterr().err
        assert not (rec / "match.csv").exists()


class TestHelpers:
    def test_iterations_to_within(self):
        assert cli.iterations_to_within([100.0, 50.0, 10.05, 9.9, 9.9]) == 4
        assert cli.iterations_to_within([100.0, 9.95, 9.9]) == 2
        assert cli.iterations_to_within([5.0]) == 1
        assert cli.iterations_to_within([4.0, 0.0]) == 2

    def test_default_component_specs_limit(self):
        assert len(cli.default_component_specs(4)) == 4
        with pytest.raises(ValidationError):
            cli.default_component_specs(5)
