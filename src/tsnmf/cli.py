"""Command-line front end.

Subcommands:

decompose      factor a dataset CSV into non-negative components
synth          generate a synthetic dataset from a spec file
compare-inits  benchmark convergence across initialization strategies
score          match recovered factors against planted truth

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure. All outputs are deterministic for a fixed (dataset, config, seed);
a command that fails leaves the file system as it found it.

The component and synthetic spec-file grammars are documented in
:mod:`tsnmf.specfiles`; the dataset CSV format in :mod:`tsnmf.dataio`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile

import numpy as np

from .dataio import (
    TimeSeriesSet,
    format_number,
    ingest_csv,
    open_text,
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
from .nmf import ConvergenceTrace, Factorization, SolverConfig, normalize, solve
from .specfiles import content_lines, parse_component_specs, parse_synthetic_spec
from .svgplot import write_line_plot
from .synth import DatasetStream, GroundTruth, match_components

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

STRATEGIES = ("knowledge", "nndsvd", "random")


class _Outputs:
    """Writes a command's files so that a failing command leaves the file
    system as it found it. Used as a context manager; entering creates
    ``out_dir`` and its missing parents. :meth:`path` moves a previous run's
    file of that name into a temporary directory inside ``out_dir``, removed
    on exit, and returns the final path, which ``written`` lists. On any
    exception, interrupts included, this run's files are deleted, the
    set-aside ones moved back and the directories this run created removed.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        self.created: list[str] = []  # what os.makedirs is about to create, innermost first
        while out_dir and not os.path.exists(out_dir):
            self.created.append(out_dir)
            out_dir = os.path.dirname(out_dir)

    def path(self, name: str) -> str:
        final = os.path.join(self.out_dir, name)
        if os.path.exists(final):
            os.replace(final, os.path.join(self.aside, name))
        self.written.append(final)
        return final

    def __enter__(self) -> _Outputs:
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            self.aside = tempfile.mkdtemp(prefix=".tsnmf-", dir=self.out_dir)
        except BaseException:
            self._remove_created()
            raise
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
            if exc_type is not None:
                self._remove_created()

    def _remove_created(self) -> None:
        for path in self.created:  # os.rmdir removes only empty directories
            with contextlib.suppress(OSError):
                os.rmdir(path)


def default_component_specs(k: int) -> list[ComponentSpec]:
    """The stock curve set (mean, cooling, bath pulse, heating), truncated to k."""
    stock = [ComponentSpec(kind) for kind in (MEAN, COOLING, BATH_PULSE, HEATING)]
    if k > len(stock):
        raise ValidationError(
            f"no default curve set for k = {k}; pass --components with {k} entries"
        )
    return stock[:k]


def _load_component_specs(path: str | None, k: int) -> list[ComponentSpec]:
    if path is None:
        return default_component_specs(k)
    with open_text(path) as fh:
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


def _fit(
    strategy: str, data: TimeSeriesSet, k: int, components: str | None, seed: int, solver
) -> tuple[InitResult, Factorization, ConvergenceTrace]:
    """Seed with ``strategy``, then solve: every CLI fit runs through here.

    One ``seed`` drives both the random init and the solver's revival draws
    (``np.random.default_rng(seed)``), so a fit is fixed by its arguments.
    """
    init = build_init(strategy, data, k, components, seed)
    rng = np.random.default_rng(seed)
    return init, *solve(data.values, (init.w_init, init.theta_init), solver, rng=rng)


def run_decompose(args: argparse.Namespace) -> int:
    """Ingest, initialize, solve, and write the factor/report files."""
    cfg = _merge(args)
    data = ingest_csv(cfg.input, dt=cfg.dt)
    init, factors, trace = _fit(cfg.init, data, cfg.k, cfg.components, cfg.seed, cfg.solver)

    l1_before = np.sum(np.abs(factors.theta), axis=1)
    final_cost = format_number(trace.costs[-1])
    lines = [
        f"input = {cfg.input}",
        f"k = {cfg.k}",
        f"init = {init.strategy_tag}",
        f"normalize = {str(cfg.normalize).lower()}",
        f"iterations = {len(trace.costs)}",
        f"stop_reason = {trace.stop_reason}",
        f"rejected_sweeps = {len(trace.rejected)}",
        f"final_cost = {final_cost}",
        f"clamped_init_entries = {int(init.diagnostics.get('clamped', 0))}",
        f"revived_components = {trace.revives}",
        "theta_l1_norms_before_normalization = "
        + ", ".join(map(format_number, l1_before)),
        f"zero_theta_rows = {np.flatnonzero(l1_before == 0.0).tolist()}",
    ]
    if cfg.normalize:
        factors = normalize(factors)

    with _Outputs(cfg.out) as outputs:
        write_matrix_csv(outputs.path("theta.csv"), factors.theta)
        write_matrix_csv(outputs.path("w.csv"), factors.w)
        write_trace_csv(outputs.path("trace.csv"), trace.costs)
        with open(outputs.path("report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if cfg.plots:
            _write_decompose_plots(outputs, data, factors, trace.costs)
    print(
        f"decomposed {cfg.input} with k={cfg.k} ({cfg.init}): "
        f"final cost {final_cost} after {len(trace.costs)} iteration(s)"
    )
    for path in outputs.written:
        print(f"wrote {path}")
    return EXIT_OK


def _write_decompose_plots(
    outputs: _Outputs, data: TimeSeriesSet, factors: Factorization, costs
) -> None:
    labels = [f"component {j + 1}" for j in range(factors.k)]
    plots = (
        ("theta.svg", data.grid.values, factors.theta, labels,
         dict(title="Component profiles", x_label="time [s]", y_label="profile value")),
        ("w.svg", np.arange(factors.w.shape[0]), factors.w.T, labels,
         dict(title="Component weights", x_label="recording index", y_label="weight")),
        ("trace.svg", np.arange(1, len(costs) + 1), [costs], ["cost"],
         dict(title="Solver descent", x_label="iteration", y_label="cost", log_y=True)),
    )
    for name, x, series, names, text in plots:
        write_line_plot(outputs.path(name), x, series, names, **text)


def iterations_to_within(costs) -> int:
    """First (1-based) iteration whose cost is within 1% of the final."""
    threshold = costs[-1] * 1.01
    for i, value in enumerate(costs, start=1):
        if value <= threshold:
            return i
    return len(costs)


def _padded(costs: list[float], length: int) -> list[float]:
    # A converged trace keeps its final cost, so padding with it is faithful.
    return costs + [costs[-1]] * (length - len(costs))


def _check_strategies(strategies, n_seeds: int = 1) -> None:
    if not strategies:
        raise ValidationError("no strategies requested")
    if n_seeds < 1:
        raise ValidationError(f"need at least one random seed, got {n_seeds}")
    for i, strategy in enumerate(strategies):
        if strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {strategy!r}, expected one of {STRATEGIES}"
            )
        if strategy in strategies[:i]:
            raise ValidationError(f"strategy {strategy!r} requested twice")


def run_compare_inits(
    data: TimeSeriesSet,
    k: int,
    out_dir: str,
    *,
    strategies=STRATEGIES,
    components: str | None,
    n_seeds: int,
    tol: float,
    max_iters: int,
) -> dict:
    """Solve with each strategy and tabulate per-iteration costs.

    Each column is the per-iteration median over the strategy's runs: seeds
    0..n_seeds-1 for random, seed 0 otherwise. The random iterations figure is
    the per-seed median. Returns the summary dict that also lands in report.txt.
    """
    _check_strategies(strategies, n_seeds)
    solver = SolverConfig(max_iters=max_iters, rel_tol=tol)

    columns: dict[str, list[float]] = {}
    summary: dict[str, dict] = {}
    for strategy in strategies:
        traces = []
        for seed in range(n_seeds) if strategy == "random" else [0]:
            _, _, trace = _fit(strategy, data, k, components, seed, solver)
            traces.append(trace.costs)
        iters = [iterations_to_within(costs) for costs in traces]
        longest = max(len(t) for t in traces)
        stacked = np.array([_padded(t, longest) for t in traces])
        columns[strategy] = [float(v) for v in np.median(stacked, axis=0)]
        if strategy == "random":
            summary[strategy] = {
                "iterations_to_1pct": float(np.median(iters)),
                "final_cost": float(np.median(stacked[:, -1])),
                "seeds": n_seeds,
            }
        else:
            summary[strategy] = {
                "iterations_to_1pct": iters[0],
                "final_cost": traces[0][-1],
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
        lines = [
            f"{name}: iterations_to_1pct = {summary[name]['iterations_to_1pct']}, "
            f"final_cost = {format_number(summary[name]['final_cost'])}"
            for name in names
        ]
        with open(outputs.path("report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return summary


def run_synth(args: argparse.Namespace) -> int:
    """Generate a dataset plus its planted factors from a spec file."""
    with open_text(args.spec) as fh:
        spec = parse_synthetic_spec(fh.read())
    data = DatasetStream(spec)
    with _Outputs(args.out) as outputs:
        write_matrix_csv(outputs.path("dataset.csv"), data.blocks(), grid=spec.grid)
        write_matrix_csv(outputs.path("truth_w.csv"), data.w)
        write_matrix_csv(outputs.path("truth_theta.csv"), data.theta)
    print(
        f"wrote {spec.n}x{spec.grid.m} dataset with {len(spec.components)} components "
        f"to {args.out} ({data.clamps} noise clamp(s))"
    )
    return EXIT_OK


def run_score(args: argparse.Namespace) -> int:
    """Match recovered factors against planted truth and write match.csv."""
    recovered = Factorization(
        w=read_matrix_csv(os.path.join(args.recovered, "w.csv")),
        theta=read_matrix_csv(os.path.join(args.recovered, "theta.csv")),
    )
    w_true = read_matrix_csv(os.path.join(args.truth, "truth_w.csv"))
    theta_true = read_matrix_csv(os.path.join(args.truth, "truth_theta.csv"))
    truth = GroundTruth(w_true, theta_true, t_clean=None, t_noisy=None)
    report = match_components(recovered, truth)

    with _Outputs(args.out) as outputs:
        with open(outputs.path("match.csv"), "w", encoding="utf-8") as fh:
            fh.write("recovered,true,cosine,weight_correlation\n")
            for i, j in enumerate(report.permutation):
                fh.write(
                    f"{i + 1},{j + 1},{format_number(report.cosines[i])},"
                    f"{format_number(report.weight_correlations[i])}\n"
                )
    print(f"wrote {outputs.written[0]}")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

_DEC, _CMP = ("decompose",), ("compare-inits",)
_BOTH = _DEC + _CMP
# One row per decompose/compare-inits option: name, type (a tuple of strings
# is a choice list), default, help text and the commands that take it. The
# parser, the config-file reader and the defaults all come from here; row
# order is --help order. Config files accept every key for both commands.
OPTIONS = (
    ("input", str, None, "dataset CSV path", _BOTH),
    ("k", int, None, "number of components", _BOTH),
    ("init", STRATEGIES, None, "initialization strategy", _DEC),
    ("seeds", int, 20, "random seeds (default 20)", _CMP),
    ("strategies", str, ",".join(STRATEGIES),
     "comma-separated subset of knowledge,nndsvd,random", _CMP),
    ("components", str, None, "component spec file (knowledge init)", _BOTH),
    ("seed", int, 0, "seed for random init and revival", _DEC),
    ("tol", float, SolverConfig.rel_tol, "relative cost-change stop threshold", _BOTH),
    ("max_iters", int, SolverConfig.max_iters, "iteration cap", _BOTH),
    ("dt", float, None, "sampling step when no time header", _BOTH),
    ("normalize", bool, False, "L1-normalize theta rows after solving", _DEC),
    ("plots", bool, False, "emit theta.svg, w.svg, trace.svg", _DEC),
    ("out", str, None, "output directory", _BOTH),
)
_REQUIRED = ("input", "out", "k", "init")  # in the order a missing one is named
_BOOLEANS = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(
    ("false", "0", "no", "off"), False
)


def _parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines (with # comments) into typed options."""
    types = {name: str if isinstance(t, tuple) else t for name, t, *_ in OPTIONS}
    options: dict = {}
    with open_text(path) as fh:
        for line_no, line in content_lines(fh):
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{line_no}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if key not in types:
                raise ValidationError(f"{path}:{line_no}: unknown option {key!r}")
            if "\0" in value:  # no path holds one, and open() would raise a bare ValueError
                raise ValidationError(f"{path}:{line_no}: {key!r} holds a NUL byte")
            typ = types[key]
            if typ is bool and value.lower() not in _BOOLEANS:
                raise ValidationError(
                    f"{path}:{line_no}: expected a boolean for {key!r}, got {value!r}"
                )
            try:
                options[key] = _BOOLEANS[value.lower()] if typ is bool else typ(value)
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: bad value for {key!r}: {value!r}"
                ) from None
    return options


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """The options of ``args.command``, all checked before the dataset is read:
    flags override config-file entries override defaults; ``solver`` is added."""
    config = _parse_config_file(args.config) if args.config else {}
    merged = {}
    for name, _, default, _, commands in OPTIONS:
        if args.command in commands:
            flag = getattr(args, name)
            merged[name] = config.get(name, default) if flag is None else flag
    missing = [key for key in _REQUIRED if key in merged and merged[key] in (None, "")]
    if missing:
        raise ValidationError(
            "missing required option(s): " + ", ".join(f"--{m}" for m in missing)
        )
    if merged["k"] < 1:
        raise ValidationError(f"k must be >= 1, got {merged['k']}")
    if merged.get("seed", 0) < 0:
        raise ValidationError(f"seed must be >= 0, got {merged['seed']}")
    if "init" in merged:
        _check_strategies((merged["init"],))
    else:
        names = (s.strip() for s in merged["strategies"].split(","))
        merged["strategies"] = tuple(s for s in names if s)
        _check_strategies(merged["strategies"], merged["seeds"])
    merged["solver"] = SolverConfig(max_iters=merged["max_iters"], rel_tol=merged["tol"])
    return argparse.Namespace(**merged)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnmf",
        description="Decompose non-negative sensor time series into "
        "interpretable non-negative components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="factor a dataset CSV")
    dec.set_defaults(func=run_decompose)

    syn = sub.add_parser("synth", help="generate a synthetic dataset")
    syn.add_argument("--spec", required=True, help="synthetic spec file")
    syn.add_argument("--out", required=True, help="output directory")
    syn.set_defaults(func=run_synth)

    cmp_ = sub.add_parser("compare-inits", help="benchmark initializations")
    cmp_.set_defaults(func=_cmd_compare)

    for command, cmd_parser in (("decompose", dec), ("compare-inits", cmp_)):
        for name, typ, _, help_text, commands in OPTIONS:
            if command not in commands:
                continue
            if typ is bool:
                kind = {"action": "store_const", "const": True}
            elif isinstance(typ, tuple):
                kind = {"choices": typ}
            else:
                kind = {"type": typ}
            cmd_parser.add_argument(
                "--" + name.replace("_", "-"), help=help_text, **kind
            )
        cmd_parser.add_argument("--config", help="key = value config file")

    sco = sub.add_parser("score", help="score recovered factors against truth")
    sco.add_argument("--recovered", required=True, help="directory with theta.csv, w.csv")
    sco.add_argument(
        "--truth", required=True, help="directory with truth_theta.csv, truth_w.csv"
    )
    sco.add_argument("--out", default=".", help="where to write match.csv")
    sco.set_defaults(func=run_score)
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    data = ingest_csv(cfg.input, dt=cfg.dt)
    summary = run_compare_inits(
        data,
        cfg.k,
        cfg.out,
        strategies=cfg.strategies,
        components=cfg.components,
        n_seeds=cfg.seeds,
        tol=cfg.solver.rel_tol,
        max_iters=cfg.solver.max_iters,
    )
    for name, info in summary.items():
        print(f"{name}: iterations to within 1% of final = {info['iterations_to_1pct']}")
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
