"""Command-line front end.

Subcommands:

decompose      factor a dataset CSV into non-negative components
synth          generate a synthetic dataset from a spec file
compare-inits  benchmark convergence across initialization strategies
score          match recovered factors against planted truth

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure. All outputs are deterministic for a fixed (dataset, config, seed);
a command that fails leaves the files of its output directory as they were.

The component and synthetic spec-file grammars are documented in
:mod:`tsnmf.specfiles`; the dataset CSV format in :mod:`tsnmf.dataio`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .dataio import (
    TimeSeriesSet,
    format_number,
    ingest_csv,
    read_matrix_csv,
    write_matrix_csv,
    write_trace_csv,
)
from .errors import NumericalError, ValidationError
from .initialization import (
    BATH_PULSE,
    COOLING,
    HEATING,
    MEAN,
    ComponentSpec,
    InitResult,
    knowledge_init,
    nndsvd_init,
    random_init,
)
from .nmf import Factorization, SolverConfig, normalize, solve
from .specfiles import build_ground_truth, parse_component_specs, parse_synthetic_spec
from .svgplot import write_line_plot
from .synth import GroundTruth, match_components

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

STRATEGIES = ("knowledge", "nndsvd", "random")


@dataclass
class RunConfig:
    """Resolved options for one decompose run."""

    input: str
    out: str
    k: int
    init: str
    components: str | None = None
    seed: int = 0
    tol: float = SolverConfig.rel_tol
    max_iters: int = SolverConfig.max_iters
    dt: float | None = None
    normalize: bool = False
    plots: bool = False

    def __post_init__(self):
        if not self.input or not self.out:
            raise ValidationError("input and output paths must be non-empty")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.init not in STRATEGIES:
            raise ValidationError(
                f"unknown init strategy {self.init!r}, expected one of {STRATEGIES}"
            )


@dataclass
class Report:
    """Summary of one decompose run."""

    files: list[str]
    final_cost: float
    iterations: int
    stop_reason: str
    clamped: int
    revives: list[tuple[int, int]]
    l1_norms_before: list[float]
    zero_rows: list[int]


class _Outputs:
    """Writes a command's files so that a failing command changes none of them.

    Used as a context manager. :meth:`path` moves a previous run's file of
    that name into a temporary directory inside ``out_dir`` and returns the
    final path, which is what ``written`` lists. When the block succeeds the
    temporary directory is removed; on any exception, including interrupts,
    this run's files are deleted, the set-aside ones are moved back with
    ``os.replace``, and the exception propagates.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        final = os.path.join(self.out_dir, name)
        if os.path.exists(final):
            os.replace(final, os.path.join(self.aside, name))
        self.written.append(final)
        return final

    def __enter__(self) -> _Outputs:
        self.aside = tempfile.mkdtemp(prefix=".tsnmf-", dir=self.out_dir)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None:
                for final in self.written:
                    previous = os.path.join(self.aside, os.path.basename(final))
                    if os.path.exists(previous):
                        os.replace(previous, final)
                    elif os.path.exists(final):
                        os.unlink(final)
        finally:
            shutil.rmtree(self.aside, ignore_errors=True)


def default_component_specs(k: int) -> list[ComponentSpec]:
    """The stock curve set (mean, cooling, bath pulse, heating), truncated to k."""
    stock = [
        ComponentSpec(MEAN),
        ComponentSpec(COOLING),
        ComponentSpec(BATH_PULSE),
        ComponentSpec(HEATING),
    ]
    if k > len(stock):
        raise ValidationError(
            f"no default curve set for k = {k}; pass --components with {k} entries"
        )
    return stock[:k]


def _load_component_specs(path: str | None, k: int) -> list[ComponentSpec]:
    if path is None:
        return default_component_specs(k)
    with open(path, "r", encoding="utf-8") as fh:
        specs = parse_component_specs(fh.read())
    if len(specs) != k:
        raise ValidationError(
            f"component spec file defines {len(specs)} components but k = {k}"
        )
    return specs


def build_init(
    strategy: str, data: TimeSeriesSet, k: int, components: str | None, seed: int
) -> InitResult:
    if strategy == "random":
        return random_init(data.values, k, seed)
    if strategy == "nndsvd":
        return nndsvd_init(data.values, k)
    specs = _load_component_specs(components, k)
    return knowledge_init(data.values, data.grid, specs)


def run_decompose(cfg: RunConfig) -> Report:
    """Ingest, initialize, solve, and write the factor/report files."""
    data = ingest_csv(cfg.input, dt=cfg.dt)
    init = build_init(cfg.init, data, cfg.k, cfg.components, cfg.seed)
    solver = SolverConfig(max_iters=cfg.max_iters, rel_tol=cfg.tol)
    factors, trace = solve(
        data.values,
        (init.w_init, init.theta_init),
        solver,
        rng=np.random.default_rng(cfg.seed),
    )

    l1_before = np.sum(np.abs(factors.theta), axis=1)
    zero_rows = np.flatnonzero(l1_before == 0.0).tolist()
    if cfg.normalize:
        factors = normalize(factors)

    with _Outputs(cfg.out) as outputs:
        write_matrix_csv(outputs.path("theta.csv"), factors.theta)
        write_matrix_csv(outputs.path("w.csv"), factors.w)
        write_trace_csv(outputs.path("trace.csv"), trace.costs)
        report = Report(
            files=list(outputs.written),
            final_cost=trace.costs[-1],
            iterations=len(trace.costs),
            stop_reason=trace.stop_reason,
            clamped=int(init.diagnostics.get("clamped", 0)),
            revives=list(trace.revives),
            l1_norms_before=[float(v) for v in l1_before],
            zero_rows=zero_rows,
        )
        _write_report(outputs.path("report.txt"), cfg, init, report)
        if cfg.plots:
            _write_decompose_plots(outputs, data, factors, trace.costs)
        report.files = list(outputs.written)
    return report


def _write_report(path: str, cfg: RunConfig, init: InitResult, report: Report) -> None:
    lines = [
        f"input = {cfg.input}",
        f"k = {cfg.k}",
        f"init = {init.strategy_tag}",
        f"normalize = {str(cfg.normalize).lower()}",
        f"iterations = {report.iterations}",
        f"stop_reason = {report.stop_reason}",
        f"final_cost = {format_number(report.final_cost)}",
        f"clamped_init_entries = {report.clamped}",
        f"revived_components = {report.revives if report.revives else '[]'}",
        "theta_l1_norms_before_normalization = "
        + ", ".join(format_number(v) for v in report.l1_norms_before),
        f"zero_theta_rows = {report.zero_rows if report.zero_rows else '[]'}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_decompose_plots(
    outputs: _Outputs, data: TimeSeriesSet, factors: Factorization, costs
) -> None:
    k = factors.k
    labels = [f"component {j + 1}" for j in range(k)]
    write_line_plot(
        outputs.path("theta.svg"),
        data.grid.values,
        [factors.theta[j] for j in range(k)],
        labels,
        title="Component profiles",
        x_label="time [s]",
        y_label="profile value",
    )
    write_line_plot(
        outputs.path("w.svg"),
        np.arange(factors.w.shape[0]),
        [factors.w[:, j] for j in range(k)],
        labels,
        title="Component weights",
        x_label="recording index",
        y_label="weight",
    )
    write_line_plot(
        outputs.path("trace.svg"),
        np.arange(1, len(costs) + 1),
        [np.asarray(costs)],
        ["cost"],
        title="Solver descent",
        x_label="iteration",
        y_label="cost",
        log_y=True,
    )


def iterations_to_within(costs, fraction: float = 0.01) -> int:
    """First (1-based) iteration whose cost is within ``fraction`` of the final."""
    final = costs[-1]
    threshold = final * (1.0 + fraction)
    for i, value in enumerate(costs, start=1):
        if value <= threshold:
            return i
    return len(costs)


def _padded(costs: list[float], length: int) -> list[float]:
    # A converged trace keeps its final cost, so padding with it is faithful.
    return costs + [costs[-1]] * (length - len(costs))


def run_compare_inits(
    data: TimeSeriesSet,
    k: int,
    out_dir: str,
    *,
    strategies=STRATEGIES,
    components: str | None = None,
    n_seeds: int = 20,
    tol: float = SolverConfig.rel_tol,
    max_iters: int = SolverConfig.max_iters,
) -> dict:
    """Solve with each strategy and tabulate per-iteration costs.

    The random column is the per-iteration median over ``n_seeds`` seeded
    runs; its iterations-to-threshold figure is the median of the per-seed
    figures. Returns the summary dict that also lands in report.txt.
    """
    if n_seeds < 1:
        raise ValidationError(f"need at least one random seed, got {n_seeds}")
    solver = SolverConfig(max_iters=max_iters, rel_tol=tol)

    columns: dict[str, list[float]] = {}
    summary: dict[str, dict] = {}
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {strategy!r}, expected one of {STRATEGIES}"
            )
        if strategy == "random":
            traces = []
            iters = []
            for seed in range(n_seeds):
                init = random_init(data.values, k, seed)
                _, trace = solve(
                    data.values,
                    (init.w_init, init.theta_init),
                    solver,
                    rng=np.random.default_rng(seed),
                )
                traces.append(trace.costs)
                iters.append(iterations_to_within(trace.costs))
            longest = max(len(t) for t in traces)
            stacked = np.array([_padded(t, longest) for t in traces])
            median = np.median(stacked, axis=0)
            columns[strategy] = [float(v) for v in median]
            summary[strategy] = {
                "iterations_to_1pct": float(np.median(iters)),
                "final_cost": float(np.median(stacked[:, -1])),
                "seeds": n_seeds,
            }
        else:
            init = build_init(strategy, data, k, components, 0)
            _, trace = solve(
                data.values,
                (init.w_init, init.theta_init),
                solver,
                rng=np.random.default_rng(0),
            )
            columns[strategy] = trace.costs
            summary[strategy] = {
                "iterations_to_1pct": iterations_to_within(trace.costs),
                "final_cost": trace.costs[-1],
            }

    with _Outputs(out_dir) as outputs:
        longest = max(len(c) for c in columns.values())
        names = list(columns)
        table = np.column_stack([_padded(columns[name], longest) for name in names])
        write_trace_csv(outputs.path("convergence.csv"), table, names)
        write_line_plot(
            outputs.path("convergence.svg"),
            np.arange(1, longest + 1),
            list(table.T),
            names,
            title="Convergence by initialization",
            x_label="iteration",
            y_label="cost",
            log_y=True,
        )
        lines = []
        for name in names:
            info = summary[name]
            lines.append(
                f"{name}: iterations_to_1pct = {info['iterations_to_1pct']}, "
                f"final_cost = {format_number(info['final_cost'])}"
            )
        with open(outputs.path("report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return summary


def run_synth(spec_path: str, out_dir: str) -> GroundTruth:
    """Generate a dataset plus its planted factors from a spec file."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        parsed = parse_synthetic_spec(fh.read())
    spec, truth = build_ground_truth(parsed)
    with _Outputs(out_dir) as outputs:
        write_matrix_csv(outputs.path("dataset.csv"), truth.t_noisy, grid=spec.grid)
        write_matrix_csv(outputs.path("truth_w.csv"), truth.w_true)
        write_matrix_csv(outputs.path("truth_theta.csv"), truth.theta_true)
    return truth


def run_score(recovered_dir: str, truth_dir: str, out_dir: str) -> None:
    """Match recovered factors against planted truth and write match.csv."""
    recovered = Factorization(
        w=read_matrix_csv(os.path.join(recovered_dir, "w.csv")),
        theta=read_matrix_csv(os.path.join(recovered_dir, "theta.csv")),
    )
    w_true = read_matrix_csv(os.path.join(truth_dir, "truth_w.csv"))
    theta_true = read_matrix_csv(os.path.join(truth_dir, "truth_theta.csv"))
    clean = w_true @ theta_true
    truth = GroundTruth(
        w_true=w_true, theta_true=theta_true, t_clean=clean, t_noisy=clean
    )
    report = match_components(recovered, truth)

    with _Outputs(out_dir) as outputs:
        with open(outputs.path("match.csv"), "w", encoding="utf-8") as fh:
            fh.write("recovered,true,cosine,weight_correlation\n")
            for i, j in enumerate(report.permutation):
                fh.write(
                    f"{i + 1},{j + 1},{format_number(report.cosines[i])},"
                    f"{format_number(report.weight_correlations[i])}\n"
                )


# --- argument parsing ------------------------------------------------------

_CONFIG_TYPES = {
    "input": str,
    "out": str,
    "k": int,
    "init": str,
    "components": str,
    "seed": int,
    "tol": float,
    "max_iters": int,
    "dt": float,
    "normalize": bool,
    "plots": bool,
    "seeds": int,
    "strategies": str,
}


def _parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines (with # comments) into typed options."""
    options: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{line_no}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if key not in _CONFIG_TYPES:
                raise ValidationError(f"{path}:{line_no}: unknown option {key!r}")
            typ = _CONFIG_TYPES[key]
            if typ is bool:
                lowered = value.lower()
                if lowered in ("true", "1", "yes", "on"):
                    options[key] = True
                elif lowered in ("false", "0", "no", "off"):
                    options[key] = False
                else:
                    raise ValidationError(
                        f"{path}:{line_no}: expected a boolean for {key!r}, got {value!r}"
                    )
            else:
                try:
                    options[key] = typ(value)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{line_no}: bad value for {key!r}: {value!r}"
                    ) from None
    return options


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """CLI flags override config-file entries override defaults."""
    config = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = default
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnmf",
        description="Decompose non-negative sensor time series into "
        "interpretable non-negative components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="factor a dataset CSV")
    dec.add_argument("--input", help="dataset CSV path")
    dec.add_argument("--k", type=int, help="number of components")
    dec.add_argument("--init", choices=STRATEGIES, help="initialization strategy")
    dec.add_argument("--components", help="component spec file (knowledge init)")
    dec.add_argument("--seed", type=int, help="seed for random init and revival")
    dec.add_argument("--tol", type=float, help="relative cost-change stop threshold")
    dec.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
    dec.add_argument("--dt", type=float, help="sampling step when no time header")
    dec.add_argument(
        "--normalize", action="store_const", const=True, default=None,
        help="L1-normalize theta rows after solving",
    )
    dec.add_argument(
        "--plots", action="store_const", const=True, default=None,
        help="emit theta.svg, w.svg, trace.svg",
    )
    dec.add_argument("--out", help="output directory")
    dec.add_argument("--config", help="key = value config file")
    dec.set_defaults(func=_cmd_decompose)

    syn = sub.add_parser("synth", help="generate a synthetic dataset")
    syn.add_argument("--spec", required=True, help="synthetic spec file")
    syn.add_argument("--out", required=True, help="output directory")
    syn.set_defaults(func=_cmd_synth)

    cmp_ = sub.add_parser("compare-inits", help="benchmark initializations")
    cmp_.add_argument("--input", help="dataset CSV path")
    cmp_.add_argument("--k", type=int, help="number of components")
    cmp_.add_argument("--seeds", type=int, help="random seeds (default 20)")
    cmp_.add_argument(
        "--strategies", help="comma-separated subset of knowledge,nndsvd,random"
    )
    cmp_.add_argument("--components", help="component spec file (knowledge init)")
    cmp_.add_argument("--tol", type=float, help="relative cost-change stop threshold")
    cmp_.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
    cmp_.add_argument("--dt", type=float, help="sampling step when no time header")
    cmp_.add_argument("--out", help="output directory")
    cmp_.add_argument("--config", help="key = value config file")
    cmp_.set_defaults(func=_cmd_compare)

    sco = sub.add_parser("score", help="score recovered factors against truth")
    sco.add_argument("--recovered", required=True, help="directory with theta.csv, w.csv")
    sco.add_argument(
        "--truth", required=True, help="directory with truth_theta.csv, truth_w.csv"
    )
    sco.add_argument("--out", default=".", help="where to write match.csv")
    sco.set_defaults(func=_cmd_score)
    return parser


def _require(merged: dict, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise ValidationError(
            "missing required option(s): " + ", ".join(f"--{m}" for m in missing)
        )


def _cmd_decompose(args: argparse.Namespace) -> int:
    merged = _merge(
        args,
        {
            "input": None,
            "out": None,
            "k": None,
            "init": None,
            "components": None,
            "seed": 0,
            "tol": SolverConfig.rel_tol,
            "max_iters": SolverConfig.max_iters,
            "dt": None,
            "normalize": False,
            "plots": False,
        },
    )
    _require(merged, ("input", "out", "k", "init"))
    report = run_decompose(RunConfig(**merged))
    print(
        f"decomposed {merged['input']} with k={merged['k']} ({merged['init']}): "
        f"final cost {format_number(report.final_cost)} "
        f"after {report.iterations} iteration(s)"
    )
    for path in report.files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    truth = run_synth(args.spec, args.out)
    n, m = truth.t_noisy.shape
    print(
        f"wrote {n}x{m} dataset with {truth.theta_true.shape[0]} components "
        f"to {args.out} ({truth.noise_clamps} noise clamp(s))"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    merged = _merge(
        args,
        {
            "input": None,
            "out": None,
            "k": None,
            "components": None,
            "seeds": 20,
            "strategies": ",".join(STRATEGIES),
            "tol": SolverConfig.rel_tol,
            "max_iters": SolverConfig.max_iters,
            "dt": None,
        },
    )
    _require(merged, ("input", "out", "k"))
    strategies = tuple(
        s.strip() for s in merged["strategies"].split(",") if s.strip()
    )
    if not strategies:
        raise ValidationError("no strategies requested")
    data = ingest_csv(merged["input"], dt=merged["dt"])
    summary = run_compare_inits(
        data,
        merged["k"],
        merged["out"],
        strategies=strategies,
        components=merged["components"],
        n_seeds=merged["seeds"],
        tol=merged["tol"],
        max_iters=merged["max_iters"],
    )
    for name, info in summary.items():
        print(f"{name}: iterations to within 1% of final = {info['iterations_to_1pct']}")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    run_score(args.recovered, args.truth, args.out)
    print(f"wrote {os.path.join(args.out, 'match.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
