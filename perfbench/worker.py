"""Child process of the benchmark; run.py starts it, one process per step.

    worker.py setup WORKLOAD SEED WORKDIR
        Generate the workload's input files into WORKDIR, then print the
        time.monotonic() at which that finished and the time of the
        reference loop (calibrate.py) run right after.
    worker.py measure WORKLOAD SEED WORKDIR SECONDS TRACE RESULT TRACEFILE
        Run passes of the CLI one after another for SECONDS, check every
        pass and write the samples and counts to RESULT (JSON). The outputs
        of the first good pass are kept in WORKDIR/kept. With TRACE 1, every
        other pass is traced and its spans are written to TRACEFILE (gzipped
        JSON) when the run ends.
    worker.py check WORKLOAD SEED WORKDIR
        Check the kept outputs in full against the planted or generated
        truth; print the quality figures or the failure as JSON.

The full check runs in a process of its own so that the measuring process
holds only the CLI passes, and its peak memory is the program's.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tsnmf.cli as cli  # noqa: E402
from calibrate import calibrated, reference_s  # noqa: E402
from tracer import (  # noqa: E402
    EXACT,
    Tracer,
    layer_metrics,
    layer_self_times,
    modules,
    pass_checks,
    replace_everywhere,
    restore,
    self_times,
    to_json,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    Workload,
    check_outputs,
    digest,
    reference,
    require_descent,
    write_inputs,
)

# Timed passes a run needs at least, whatever --seconds says.
MIN_PASSES = 3
# A run stops starting passes after this long, so it ends within 180 s.
HARD_STOP_S = 120.0
# Floor of the check that spans account for a traced pass.
UNACCOUNTED_FLOOR_S = 1e-3
KEPT = "kept"


def run_pass(argv) -> str | None:
    """One CLI invocation in this process; returns what went wrong, if anything."""
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed pass, not the end of the run
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def keep_costs(costs: list) -> list:
    """Wrap nmf.solve wherever the package holds it, so that the cost trace of
    every solve lands in ``costs``; returns the patches for `restore`.

    Only a list append runs inside the timed pass; the traces are checked
    after it. compare-inits writes just the per-sweep median of its random
    solves, so a rising random solve shows only here.
    """
    solve = getattr(modules()["nmf"], "solve", None)
    if solve is None:
        return []

    def kept(*args, **kwargs):
        result = solve(*args, **kwargs)
        costs.append(result[1].costs)
        return result

    return replace_everywhere(solve, kept)


def _median_or_same(values):
    """A value every pass agrees on as it is (counts stay ints), else the median."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


class Run:
    """The passes of one workload run and what they measured."""

    def __init__(self, wl: Workload, workdir: str, trace: bool):
        self.wl = wl
        self.argv = wl.argv(workdir)
        self.out_dir = os.path.join(workdir, "out")
        self.kept_dir = os.path.join(workdir, KEPT)
        self.tracer = Tracer() if trace else None
        self.verified: dict | None = None
        self.walls = {"plain": [], "traced": []}
        # Reference-loop time around each sample: the mean of the loops run
        # right before and right after its pass.
        self.refs = {"plain": [], "traced": []}
        self.last_ref: float | None = None
        self.layers: list[dict] = []
        self.shares: list[dict] = []
        self.unaccounted: list[float] = []
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self.failures: list[str] = []
        self.attempted = 0

    def one_pass(self, index: int) -> None:
        traced = self.tracer is not None and index % 2 == 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.last_ref is None:
            self.last_ref = reference_s()
        if traced:
            self.tracer.install()
        costs: list = []
        patches = keep_costs(costs)
        start = time.perf_counter()
        error = run_pass(self.argv)
        wall = time.perf_counter() - start
        restore(patches)
        if traced:
            self.tracer.uninstall()
            spans = self.tracer.take()
        before, self.last_ref = self.last_ref, reference_s()
        self.attempted += 1
        try:
            if error is not None:
                raise CheckFailed(error)
            self.check(costs)
            if traced:
                self.record_spans(spans, wall)
        except CheckFailed as exc:
            self.failures.append(f"pass {index}: {exc}")
            return
        if index > 0:  # the first pass warms caches and is not a sample
            kind = "traced" if traced else "plain"
            self.walls[kind].append(wall)
            self.refs[kind].append((before + self.last_ref) / 2)

    def check(self, costs: list) -> None:
        """Every solve's cost trace, then byte identity with the first good
        pass, whose outputs are kept for the full check (`full_check`)."""
        if len(costs) != self.wl.solves_per_pass:
            raise CheckFailed(
                f"expected {self.wl.solves_per_pass} solves in a pass, saw {len(costs)}"
            )
        for number, trace in enumerate(costs, start=1):
            require_descent(trace, f"solve {number} of the pass")
        digests = digest(self.out_dir, self.wl.outputs)
        if self.verified is None:
            os.rename(self.out_dir, self.kept_dir)
            self.verified = digests
        elif digests != self.verified:
            changed = sorted(n for n in digests if digests[n] != self.verified[n])
            raise CheckFailed(f"outputs differ from the first pass: {', '.join(changed)}")

    def record_spans(self, spans, wall: float) -> None:
        problems = pass_checks(spans)
        if problems:
            raise CheckFailed("; ".join(problems[:3]))
        metrics, absent = layer_metrics(spans, self.tracer.wrapped, os.path.getsize)
        if self.layers:
            first = self.layers[0]
            moved = [m for m in EXACT if m in metrics and metrics[m] != first.get(m)]
            if moved:
                raise CheckFailed(
                    "counts changed between traced passes: "
                    + ", ".join(f"{m} {first.get(m)} -> {metrics[m]}" for m in moved)
                )
        self.layers.append(metrics)
        self.absent.update(absent)
        self.shares.append(layer_self_times(spans))
        self.unaccounted.append(wall - sum(self_times(spans)))
        self.spans.append(to_json(spans))

    def enough(self, elapsed: float, seconds: float) -> bool:
        if elapsed >= HARD_STOP_S:
            return True
        if elapsed < seconds:
            return False
        wanted = [len(self.walls["plain"])]
        if self.tracer is not None:
            wanted.append(len(self.walls["traced"]))
        return min(wanted) >= MIN_PASSES or elapsed >= 3 * seconds

    def result(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "plain_wall_s": self.walls["plain"],
            "plain_ref_s": self.refs["plain"],
            "traced_wall_s": self.walls["traced"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rows_per_pass": self.wl.rows_per_pass,
            "layer": self.wl.layer,
            "numpy": np.__version__,
            "working_set_bytes": self.wl.working_set_bytes,
        }
        if self.tracer is None:
            return out
        medians = {
            name: _median_or_same([pass_[name] for pass_ in self.layers])
            for name in (self.layers[0] if self.layers else {})
        }
        plain, traced = (
            list(map(calibrated, self.walls[kind], self.refs[kind])) for kind in ("plain", "traced")
        )
        if plain and traced:
            medians["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            # Self times plus child spans must account for each traced pass.
            allowed = max(medians["trace.overhead_s"], UNACCOUNTED_FLOOR_S)
            for gap in self.unaccounted:
                if gap > allowed:
                    self.failures.append(
                        f"spans leave {gap:.6f} s of a traced pass unaccounted, "
                        f"more than {allowed:.6f} s"
                    )
            out["failed"] = len(self.failures)
        layers = sorted({name for share in self.shares for name in share})
        out.update(
            layers=medians,
            layer_self_s={
                name: statistics.median(s.get(name, 0.0) for s in self.shares)
                for name in layers
            },
            absent=sorted(self.absent),
            unaccounted_s=max(self.unaccounted, default=0.0),
            traced_passes=len(self.layers),
        )
        return out


def full_check(wl: Workload, seed: int, workdir: str) -> dict:
    """Check the kept outputs against the truth; ``{"quality": ...}`` or
    ``{"failure": ...}``."""
    try:
        return {"quality": check_outputs(wl, os.path.join(workdir, KEPT), reference(wl, seed))}
    except CheckFailed as exc:
        return {"failure": str(exc)}


def measure(wl, seed, workdir, seconds, trace, result_path, trace_path) -> None:
    run = Run(wl, workdir, trace)
    start = time.perf_counter()
    index = 0
    while True:
        run.one_pass(index)
        index += 1
        if run.enough(time.perf_counter() - start, seconds):
            break
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(run.result(), fh)
    if trace:
        with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": seed, "passes": run.spans}, fh)


def main(argv) -> int:
    step, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    wl = WORKLOADS[name]
    if step == "setup":
        write_inputs(wl, seed, workdir)
        print(repr(time.monotonic()), repr(reference_s()))
    elif step == "check":
        print(json.dumps(full_check(wl, seed, workdir)))
    else:
        seconds, trace, result_path, trace_path = argv[4:8]
        measure(wl, seed, workdir, float(seconds), trace == "1", result_path, trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
