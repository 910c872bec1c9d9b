"""Fast checks of the benchmark's own logic at a tiny shape.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
from tracer import Spans, Tracer, layer_metrics, self_times
from worker import Run, full_check
from workloads import WORKLOADS, CheckFailed, check_outputs, reference, write_inputs

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "compare": dataclasses.replace(WORKLOADS["compare_small"], n_seeds=2, max_iters=5),
    "decompose": dataclasses.replace(
        WORKLOADS["nndsvd_mid"], init="knowledge", rows=1080, max_iters=3
    ),
    "nndsvd": dataclasses.replace(WORKLOADS["nndsvd_mid"], rows=540, max_iters=3),
    "synth": dataclasses.replace(WORKLOADS["synth_tall"], rows=1080),
}


def tiny_run(tmp_path, key, trace, passes=4):
    wl = TINY[key]
    workdir = str(tmp_path / key)
    write_inputs(wl, 7, workdir)
    bench_run = Run(wl, workdir, trace)
    for index in range(passes):
        bench_run.one_pass(index)
    return bench_run


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(run.FOLLOWS) == set(WORKLOADS)


@pytest.mark.parametrize("key", sorted(TINY))
def test_metric_names_match_benchmark_json(tmp_path, key):
    bench_run = tiny_run(tmp_path, key, trace=True)
    result = bench_run.result()
    assert result["failed"] == 0, result["failures"]
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert per_layer <= set(result["layers"])
    result.update(setup_wall_s=[0.5], setup_ref_s=[0.05])
    assert {m["name"] for m in BENCH["end_to_end"]} <= set(run.end_to_end(result))


def test_exact_counts_repeat_and_quality_is_recorded(tmp_path):
    bench_run = tiny_run(tmp_path, "decompose", trace=True, passes=5)
    sweeps = {layers["nmf.sweeps"] for layers in bench_run.layers}
    assert sweeps == {3}
    quality = full_check(bench_run.wl, 7, str(tmp_path / "decompose"))["quality"]
    assert set(quality) == {"rel_residual", "mean_cosine"}
    assert 0.0 < quality["rel_residual"] < 0.1


def test_self_time_arithmetic():
    # root [0,10] holds a [1,4] (which holds g [2,3]) and b [5,6].
    spans = Spans(
        names=["cli.main", "dataio.ingest_csv", "initialization.time_vector", "nmf.solve"],
        parents=[-1, 0, 1, 0],
        starts=[0.0, 1.0, 2.0, 5.0],
        ends=[10.0, 4.0, 3.0, 6.0],
    )
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans.ends[0] - spans.starts[0]
    every_function = {name for needs in tracer.REQUIRES.values() for name in needs}
    metrics, absent = layer_metrics(spans, every_function, os.path.getsize)
    assert metrics["cli.self_s"] == 6.0
    assert metrics["dataio.ingest_s"] == 3.0
    assert absent == []


def test_overlapping_children_are_counted_once():
    spans = Spans(
        names=["cli.main", "nmf.cost", "nmf.cost"],
        parents=[-1, 0, 0],
        starts=[0.0, 1.0, 2.0],
        ends=[5.0, 3.0, 4.0],
    )
    assert self_times(spans)[0] == 2.0


def test_tracer_wraps_every_imported_name():
    import tsnmf
    import tsnmf.cli
    import tsnmf.initialization
    import tsnmf.nmf

    original = tsnmf.initialization.svd
    t = Tracer()
    t.install()
    try:
        for fn in (
            tsnmf.cli.ingest_csv,
            tsnmf.initialization.svd,
            tsnmf.nmf.cost,
            tsnmf.svd,
            tsnmf.linalg.svd,
        ):
            assert hasattr(fn, "__wrapped__")
        assert "dataio.format_number" not in t.wrapped
        tsnmf.initialization.nndsvd_init(np.random.default_rng(0).random((6, 4)), 2)
    finally:
        t.uninstall()
    assert tsnmf.initialization.svd is original
    spans = t.take()
    parent = spans.names.index("initialization.nndsvd_init")
    svd = spans.names.index("linalg.svd")
    assert spans.parents[svd] == parent


def test_missing_function_is_reported_absent(monkeypatch):
    import tsnmf
    import tsnmf.nmf

    monkeypatch.delattr(tsnmf.nmf, "hals_update_w_column")
    monkeypatch.delattr(tsnmf, "hals_update_w_column")
    t = Tracer()
    t.install()
    t.uninstall()
    metrics, absent = layer_metrics(t.take(), t.wrapped, os.path.getsize)
    assert "nmf.column_update_s" in absent
    assert "nmf.column_update_s" not in metrics
    assert "nmf.solve_s" in metrics


def test_corrupted_factor_fails_the_cost_check(tmp_path):
    bench_run = tiny_run(tmp_path, "decompose", trace=False, passes=1)
    w_path = os.path.join(bench_run.kept_dir, "w.csv")
    w = np.loadtxt(w_path, delimiter=",")
    w[0, 0] *= 1.5
    np.savetxt(w_path, w, delimiter=",")
    with pytest.raises(CheckFailed, match="final cost"):
        check_outputs(bench_run.wl, bench_run.kept_dir, reference(bench_run.wl, 7))
    assert "final cost" in full_check(bench_run.wl, 7, str(tmp_path / "decompose"))["failure"]


def test_rising_cost_fails_the_descent_check(tmp_path):
    bench_run = tiny_run(tmp_path, "decompose", trace=False, passes=1)
    trace_path = os.path.join(bench_run.kept_dir, "trace.csv")
    lines = Path(trace_path).read_text().splitlines()
    first = float(lines[1].split(",")[1])
    lines[2] = f"2,{first * 2}"
    Path(trace_path).write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="raised the cost"):
        check_outputs(bench_run.wl, bench_run.kept_dir, reference(bench_run.wl, 7))


@pytest.mark.parametrize("trace", [False, True])
def test_one_rising_random_solve_fails_every_pass(tmp_path, monkeypatch, trace):
    # convergence.csv holds only the median of the random solves, so this
    # rise shows only in the per-solve check the measuring process makes.
    import tsnmf.cli
    import tsnmf.nmf

    original = tsnmf.nmf.solve
    calls = []

    def rising(*args, **kwargs):
        factors, trace_ = original(*args, **kwargs)
        calls.append(None)
        if len(calls) % 4 == 3:  # the first random solve of each pass
            trace_.costs.append(trace_.costs[-1] * 2)
        return factors, trace_

    for module in (tsnmf.nmf, tsnmf.cli):
        monkeypatch.setattr(module, "solve", rising)
    bench_run = tiny_run(tmp_path, "compare", trace=trace, passes=2)
    assert bench_run.attempted == 2
    assert len(bench_run.failures) == 2
    assert all("solve 3 of the pass" in f for f in bench_run.failures)


def test_changed_output_and_bad_exit_count_as_failed_passes(tmp_path):
    bench_run = tiny_run(tmp_path, "synth", trace=False, passes=2)
    assert bench_run.failures == []
    dataset = os.path.join(bench_run.out_dir, "dataset.csv")
    with open(dataset, "a", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(CheckFailed, match="differ from the first pass"):
        bench_run.check([])
    bench_run.argv = bench_run.argv[:2] + [str(tmp_path / "no-such-spec.txt")] + bench_run.argv[3:]
    bench_run.one_pass(2)
    assert bench_run.attempted == 3
    assert len(bench_run.failures) == 1 and "exit code 3" in bench_run.failures[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare_small"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_by_benchmark_json(capsys):
    assert run.main(["--workload", "compare_small", "--seconds", "1"]) == 2
    assert "BENCHMARK.json" in capsys.readouterr().err
