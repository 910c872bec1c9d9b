import numpy as np
import pytest

import tsnmf.cli as cli
from tsnmf.dataio import read_matrix_csv
from tsnmf.errors import ValidationError

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

    def test_missing_spec_exits_3(self, tmp_path):
        code = cli.main(
            ["synth", "--spec", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert code == 3

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

    def test_byte_identical_reruns(self, tmp_path, dataset):
        code1, out1 = run_decompose(tmp_path, dataset, "r1", "--seed", "5", "--plots")
        code2, out2 = run_decompose(tmp_path, dataset, "r2", "--seed", "5", "--plots")
        assert code1 == 0 and code2 == 0
        for name in ("theta.csv", "w.csv", "trace.csv", "theta.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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
        assert not any(out.iterdir())

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
