import hashlib
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import tsnmf

from tsnmf.svgplot import render_line_plot, write_line_plot


def render_sample(log_y=False):
    x = np.arange(10.0)
    series = [np.linspace(1.0, 5.0, 10), np.linspace(4.0, 0.5, 10)]
    return render_line_plot(
        x,
        series,
        ["component 1", "component 2"],
        title="demo",
        x_label="time [s]",
        y_label="value",
        log_y=log_y,
    )


def test_deterministic_output():
    assert render_sample() == render_sample()


def test_structure():
    doc = render_sample()
    assert doc.startswith("<svg")
    assert 'viewBox="0 0 800 500"' in doc
    assert doc.count("<polyline") == 2
    assert "component 2" in doc
    assert doc.rstrip().endswith("</svg>")


def test_log_scale_handles_zeros():
    x = np.arange(5.0)
    doc = render_line_plot(
        x,
        [np.array([10.0, 1.0, 0.1, 0.0, 0.0])],
        ["cost"],
        title="trace",
        x_label="iteration",
        y_label="cost",
        log_y=True,
    )
    assert "<polyline" in doc
    assert "NaN" not in doc and "inf" not in doc


def test_constant_series_does_not_degenerate():
    doc = render_line_plot(
        [0.0, 1.0],
        [np.array([2.0, 2.0])],
        ["flat"],
        title="flat",
        x_label="x",
        y_label="y",
    )
    assert "<polyline" in doc


def test_write_line_plot(tmp_path):
    path = tmp_path / "plot.svg"
    write_line_plot(
        path,
        [0.0, 1.0],
        [np.array([1.0, 2.0])],
        ["a"],
        title="t",
        x_label="x",
        y_label="y",
    )
    assert path.read_text().startswith("<svg")


def test_ticks_closer_than_a_hundredth_get_distinct_labels():
    doc = render_line_plot(
        np.arange(4) * 1e-3, [[0.001, 0.002, 0.003, 0.004]], ["c"],
        title="t", x_label="x", y_label="y",
    )
    labels = re.findall(r'font-size="11"[^>]*>([^<]*)<', doc)
    assert labels == ["0", "0.001", "0.002", "0.003", "0.001", "0.002", "0.003", "0.004"]


def test_sample_bytes_are_pinned():
    # A change to any element's text changes these digests.
    digests = [hashlib.sha256(render_sample(log_y=log).encode()).hexdigest() for log in (False, True)]
    assert digests == [
        "a50940198d600fd73692a30ff3ebf5d443490a7f93eb1a10edc2b051b7aa9dfc",
        "2da67ef36c44c167922cf19cb132f7ad33ffe907e9f5da608153ae087119fc6d",
    ]


def _limit_memory():
    # A tick loop that never ends grows its list until this cap stops it.
    resource.setrlimit(resource.RLIMIT_DATA, (512 << 20, 512 << 20))


def _run_capped(args, cwd):
    """Run Python with ``args`` in a child, so that a plot that never ends
    fails the test (timeout or memory cap) instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(tsnmf.__file__))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


@pytest.mark.parametrize(
    "row",
    [
        # Adding the tick step (5000) to 1e20 leaves it unchanged: half an
        # ulp there is 8192.
        "1e20,1.0000000000000002e+20,1e20,1.0000000000000002e+20",
        # Widening the empty range by 1 is lost at 1e20.
        "1e20,1e20,1e20,1e20",
    ],
    ids=["near-flat", "flat"],
)
def test_profile_of_large_magnitude_plots(tmp_path, row):
    (tmp_path / "data.csv").write_text(f"{row}\n" * 6)
    (tmp_path / "mean.txt").write_text("mean\n")
    argv = ["decompose", "--input", "data.csv", "--k", "1", "--init", "knowledge"]
    argv += ["--components", "mean.txt", "--dt", "1", "--plots", "--out", "out"]
    _run_capped(["-m", "tsnmf.cli", *argv], tmp_path)
    for name in ("theta.svg", "w.svg", "trace.svg"):
        doc = (tmp_path / "out" / name).read_text()
        for anchor in ("middle", "end"):  # x-axis and y-axis tick labels
            pattern = f'text-anchor="{anchor}" font-family="sans-serif" font-size="11">([^<]*)<'
            labels = re.findall(pattern, doc)
            assert labels and len(set(labels)) == len(labels), (name, anchor, labels)


@pytest.mark.parametrize("x,y", [([1e17], [1.0]), ([0.0, 1.0], [1e20, 1e20])], ids=["x", "y"])
def test_flat_series_at_large_magnitude_renders(tmp_path, x, y):
    code = "import sys\nfrom tsnmf.svgplot import render_line_plot\n"
    code += f"doc = render_line_plot({x}, [{y}], ['a'], title='t', x_label='x', y_label='y')\n"
    code += "sys.stdout.write(doc)"
    doc = _run_capped(["-c", code], tmp_path)
    assert "<polyline" in doc and "nan" not in doc


@pytest.mark.parametrize(
    "x,y,message",
    [
        ([0.0, 1.0], [1.0, np.inf], "series 'cost' is not finite at index 1: inf"),
        ([0.0, 1.0], [np.nan, 1.0], "series 'cost' is not finite at index 0: nan"),
        ([0.0, -np.inf], [1.0, 2.0], "x is not finite at index 1: -inf"),
    ],
    ids=["inf-value", "nan-value", "inf-x"],
)
def test_non_finite_value_is_named(x, y, message):
    with pytest.raises(tsnmf.ValidationError) as exc:
        render_line_plot(x, [[1.0, 2.0], y], ["ok", "cost"], title="t", x_label="x", y_label="y")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "x,series,labels,message",
    [
        ([0.0, 1.0], [[1.0, 2.0], [np.inf, 1.0]], ["a"], "2 series but 1 labels"),
        ([0.0, 1.0], [[1.0, 2.0]], ["a", "b"], "1 series but 2 labels"),
        ([0.0, 1.0], [[1.0, 2.0], [1.0]], ["a", "b"], "series 'b' has 1 values but x has 2"),
        ([0.0, 1.0], [[1.0, 2.0, 3.0]], ["a"], "series 'a' has 3 values but x has 2"),
    ],
    ids=["unlabelled-series", "extra-label", "short-series", "long-series"],
)
def test_mismatched_series_are_named(x, series, labels, message):
    with pytest.raises(tsnmf.ValidationError) as exc:
        render_line_plot(x, series, labels, title="t", x_label="x", y_label="y")
    assert str(exc.value) == message
