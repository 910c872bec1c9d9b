"""Span tracer over the tsnmf package, applied from outside it.

`Tracer.install` replaces every public module-level function of each tsnmf
module with a wrapper, both where the function is defined and under every
name another tsnmf module imported it as (`tsnmf.cli.ingest_csv`,
`tsnmf.initialization.svd`, ...). Each call records its name, start, end and
parent span in memory; nothing is written while a pass runs. `uninstall`
puts the original functions back, so untraced passes run the program as is.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

PACKAGE = "tsnmf"
MODULES = (
    "cli",
    "dataio",
    "initialization",
    "linalg",
    "nmf",
    "specfiles",
    "svgplot",
    "synth",
)

# Called once per CSV cell written: a span would cost more than the call it
# times and would swamp the write spans it sits in.
NOT_WRAPPED = frozenset({"dataio.format_number"})


def nominal_hals_flops(n: int, m: int, k: int) -> int:
    """Nominal operation count of one HALS sweep on an n x m problem of rank k.

    4nmk for the two data products T Theta^T and T^T W, plus 4k^2(n+m) for the
    Gram products and the k column updates of each half (Cichocki and Phan
    2009). The cost evaluation is left out. Computed, not measured.
    """
    return 4 * n * m * k + 4 * k * k * (n + m)


def iterations_to_1pct(costs) -> int:
    """First (1-based) sweep whose cost is within 1% of the final cost."""
    threshold = costs[-1] * 1.01
    for i, value in enumerate(costs, start=1):
        if value <= threshold:
            return i
    return len(costs)


def _solve_attrs(result) -> dict:
    factors, trace = result
    costs = list(trace.costs)
    n, k = factors.w.shape
    return {
        "shape": (n, factors.theta.shape[1], k),
        "sweeps": len(costs),
        "revivals": len(trace.revives),
        "sweeps_to_1pct": iterations_to_1pct(costs),
    }


def _knowledge_attrs(result) -> dict:
    return {"clamped": int(result.diagnostics.get("clamped", 0))}


# Counts read off a function's return value when its span closes, and the
# metrics built from them.
RESULT_ATTRS = {
    "nmf.solve": _solve_attrs,
    "initialization.knowledge_init": _knowledge_attrs,
}
FROM_RESULT = {
    "nmf.solve": (
        "nmf.sweeps",
        "nmf.ms_per_sweep",
        "nmf.flops_per_sweep_computed",
        "nmf.gflops",
        "nmf.sweeps_to_1pct",
        "nmf.useful_sweep_ratio",
        "nmf.revivals",
    ),
    "initialization.knowledge_init": ("initialization.clamped",),
}


def modules() -> dict:
    """The tsnmf modules, by short name."""
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def replace_everywhere(fn, wrapper) -> list[tuple[object, str, object]]:
    """Put ``wrapper`` in place of ``fn`` under every name the package holds it.

    Returns the patches, for `restore`.
    """
    patches = []
    for holder in (importlib.import_module(PACKAGE), *modules().values()):
        for name, value in list(vars(holder).items()):
            if value is fn:
                patches.append((holder, name, fn))
                setattr(holder, name, wrapper)
    return patches


def restore(patches) -> None:
    for holder, name, fn in reversed(patches):
        setattr(holder, name, fn)


@dataclass
class Spans:
    """The spans of one traced pass, in the order they opened.

    ``parents[i]`` is the index of the span that was open when span ``i``
    opened, or -1 for a root. Times are ``perf_counter`` seconds.
    """

    names: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.names)


class Tracer:
    """Records a span for every call of a wrapped tsnmf function."""

    def __init__(self):
        self.spans = Spans()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def install(self) -> None:
        self.wrapped = set()
        for short, module in modules().items():
            for attr, fn in list(vars(module).items()):
                qualname = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or qualname in NOT_WRAPPED
                ):
                    continue
                self._patches += replace_everywhere(fn, self._wrap(qualname, fn))
                self.wrapped.add(qualname)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, Spans()
        del self._stack[1:]  # the wrappers hold this list, so reset it in place
        return spans

    def _wrap(self, qualname: str, fn):
        params = list(inspect.signature(fn).parameters)
        records_path = bool(params) and params[0] == "path"
        on_result = RESULT_ATTRS.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            sid = len(spans.names)
            spans.names.append(qualname)
            spans.parents.append(stack[-1])
            spans.starts.append(0.0)
            spans.ends.append(0.0)
            stack.append(sid)
            spans.starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[sid] = clock()
                stack.pop()
            if records_path:
                path = args[0] if args else kwargs.get("path")
                spans.attrs.setdefault(sid, {})["path"] = str(path)
            if on_result is not None:
                try:
                    spans.attrs.setdefault(sid, {}).update(on_result(result))
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    spans.attrs.setdefault(sid, {})["unreadable"] = True
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for sid, parent in enumerate(spans.parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    result = []
    for sid in range(len(spans)):
        lo, hi = spans.starts[sid], spans.ends[sid]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(sid, ()), key=spans.starts.__getitem__):
            start = max(spans.starts[child], reach)
            end = min(spans.ends[child], hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo) - covered)
    return result


# Per-layer metrics and the wrapped functions each one needs. A metric whose
# function a later version of the program no longer has is reported absent.
REQUIRES = {
    "dataio.ingest_s": ("dataio.ingest_csv",),
    "dataio.ingest_mb_per_s": ("dataio.ingest_csv",),
    "dataio.write_s": ("dataio.write_matrix_csv", "dataio.write_trace_csv"),
    "dataio.write_mb_per_s": ("dataio.write_matrix_csv", "dataio.write_trace_csv"),
    "linalg.svd_s": ("linalg.svd",),
    "linalg.svd_calls": ("linalg.svd",),
    "linalg.pinv_s": ("linalg.pinv",),
    "initialization.knowledge_s": ("initialization.knowledge_init",),
    "initialization.nndsvd_self_s": ("initialization.nndsvd_init", "linalg.svd"),
    "initialization.random_s": ("initialization.random_init",),
    "initialization.clamped": ("initialization.knowledge_init",),
    "nmf.solve_s": ("nmf.solve",),
    "nmf.solves": ("nmf.solve",),
    "nmf.sweeps": ("nmf.solve",),
    "nmf.ms_per_sweep": ("nmf.solve",),
    "nmf.sweep_s": ("nmf.hals_sweep",),
    "nmf.cost_s": ("nmf.cost",),
    "nmf.column_update_s": ("nmf.hals_update_w_column",),
    "nmf.flops_per_sweep_computed": ("nmf.solve",),
    "nmf.gflops": ("nmf.solve",),
    "nmf.sweeps_to_1pct": ("nmf.solve",),
    "nmf.useful_sweep_ratio": ("nmf.solve",),
    "nmf.revivals": ("nmf.solve",),
    "synth.generate_s": ("synth.generate",),
    "svgplot.write_s": ("svgplot.write_line_plot",),
    "cli.self_s": ("cli.main",),
}

# Counts that must come out the same on every traced pass of a run, and in
# every run of the same program, seed and benchmark.
EXACT = ("nmf.sweeps", "nmf.revivals", "initialization.clamped", "linalg.svd_calls")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: Spans, wrapped: set[str], file_size) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and the names of absent ones.

    ``file_size(path)`` gives the bytes of a file a dataio span read or wrote.
    """
    durations = [end - start for start, end in zip(spans.starts, spans.ends)]
    own = self_times(spans)

    def total(*names):
        return sum(d for n, d in zip(spans.names, durations) if n in names)

    def ids(name):
        return [i for i, n in enumerate(spans.names) if n == name]

    def paths_bytes(*names):
        return sum(
            file_size(spans.attrs[i]["path"])
            for i, n in enumerate(spans.names)
            if n in names and "path" in spans.attrs.get(i, {})
        )

    writers = ("dataio.write_matrix_csv", "dataio.write_trace_csv")
    ingest_s = total("dataio.ingest_csv")
    write_s = total(*writers)

    svd_calls = ids("linalg.svd")
    nndsvd_self = 0.0
    for i in ids("initialization.nndsvd_init"):
        nndsvd_self += durations[i] - sum(
            durations[c] for c in svd_calls if spans.parents[c] == i
        )

    solves = [spans.attrs.get(i, {}) for i in ids("nmf.solve")]
    solve_s = total("nmf.solve")
    sweeps = sum(a.get("sweeps", 0) for a in solves)
    flops = sum(nominal_hals_flops(*a["shape"]) * a["sweeps"] for a in solves if "shape" in a)
    to_1pct = sum(a.get("sweeps_to_1pct", 0) for a in solves)

    metrics = {
        "dataio.ingest_s": ingest_s,
        "dataio.ingest_mb_per_s": _ratio(paths_bytes("dataio.ingest_csv") / 1e6, ingest_s),
        "dataio.write_s": write_s,
        "dataio.write_mb_per_s": _ratio(paths_bytes(*writers) / 1e6, write_s),
        "linalg.svd_s": total("linalg.svd"),
        "linalg.svd_calls": len(svd_calls),
        "linalg.pinv_s": total("linalg.pinv"),
        "initialization.knowledge_s": total("initialization.knowledge_init"),
        "initialization.nndsvd_self_s": nndsvd_self,
        "initialization.random_s": total("initialization.random_init"),
        "initialization.clamped": sum(
            spans.attrs.get(i, {}).get("clamped", 0)
            for i in ids("initialization.knowledge_init")
        ),
        "nmf.solve_s": solve_s,
        "nmf.solves": len(solves),
        "nmf.sweeps": sweeps,
        "nmf.ms_per_sweep": _ratio(1e3 * solve_s, sweeps),
        "nmf.sweep_s": total("nmf.hals_sweep"),
        "nmf.cost_s": total("nmf.cost"),
        "nmf.column_update_s": total("nmf.hals_update_w_column"),
        "nmf.flops_per_sweep_computed": _ratio(flops, sweeps),
        "nmf.gflops": _ratio(flops / 1e9, solve_s),
        "nmf.sweeps_to_1pct": to_1pct,
        "nmf.useful_sweep_ratio": _ratio(to_1pct, sweeps),
        "nmf.revivals": sum(a.get("revivals", 0) for a in solves),
        "synth.generate_s": total("synth.generate"),
        "svgplot.write_s": total("svgplot.write_line_plot"),
        "cli.self_s": sum(t for n, t in zip(spans.names, own) if n.startswith("cli.")),
    }
    absent = {
        name for name, needs in REQUIRES.items() if not all(n in wrapped for n in needs)
    }
    for i, name in enumerate(spans.names):
        if spans.attrs.get(i, {}).get("unreadable"):
            absent.update(FROM_RESULT[name])
    for name in absent:
        del metrics[name]
    return metrics, sorted(absent)


def layer_self_times(spans: Spans) -> dict[str, float]:
    """Self time summed per module: the share of a pass each layer holds."""
    totals: dict[str, float] = {}
    for name, own in zip(spans.names, self_times(spans)):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def pass_checks(spans: Spans) -> list[str]:
    """Spans of one pass that do not nest inside their parent."""
    problems = []
    for i, name in enumerate(spans.names):
        parent = spans.parents[i]
        if parent >= 0 and not (
            spans.starts[parent] <= spans.starts[i] <= spans.ends[i] <= spans.ends[parent]
        ):
            problems.append(f"span {i} ({name}) is not inside its parent")
    return problems


def to_json(spans: Spans) -> dict:
    """Columnar form of one pass's spans; times in ns from the first span."""
    origin = spans.starts[0] if len(spans) else 0.0
    table = sorted(set(spans.names))
    index = {name: i for i, name in enumerate(table)}
    return {
        "names": table,
        "name": [index[n] for n in spans.names],
        "parent": spans.parents,
        "start_ns": [round((s - origin) * 1e9) for s in spans.starts],
        "end_ns": [round((e - origin) * 1e9) for e in spans.ends],
        "attrs": {str(i): a for i, a in spans.attrs.items()},
    }
