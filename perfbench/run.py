"""Benchmark of the tsnmf command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_small --seed 7 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload (listed, with why it was chosen, in BENCHMARK.json) runs in
child processes. The input set-up runs SETUP_REPEATS times, each in a fresh
interpreter. Then one process runs passes of the CLI in a closed loop, one
pass after another with no threads of its own, for run_seconds of
BENCHMARK.json; the first pass warms caches and is not a sample. A last
process checks the outputs of the first good pass in full. BLAS thread
variables are recorded and left as found. --seconds is accepted because
callers pass it, but only with BENCHMARK.json's value: two runs to be
compared must measure for the same time.

Every pass and every set-up is bracketed by a fixed reference loop
(calibrate.py), and the gated times are calibrated: pass_s is the median over
passes of pass time over reference-loop time, in seconds at calibrate.REF_S
per loop, rows_per_s is rows per pass over pass_s, and setup_s is the median
calibrated set-up. On a shared 2-core host, raw pass times swing up to 2x for
stretches that can outlast a run; over ten seeds the raw fastest pass spread
by up to 0.44 of its median. The raw figures (wall_s median, wall_s_min,
wall_s_tail, setup_wall_s) are printed and recorded but not in the JSON.
With --trace 1 every other pass runs with every public tsnmf function wrapped
in a span, and the per-layer metrics come from the spans; trace.overhead_s is
the traced minus the untraced median calibrated pass.

Every pass is checked: its exit code, every solve's cost trace, and that its
outputs are byte-identical to those of the first good pass, which are checked
in full (see workloads.check_outputs). Counts that must repeat exactly
(tracer.EXACT, rel_residual, mean_cosine) are compared between passes and
with earlier runs of the same sources and seed.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when a check failed and 2
when the benchmark cannot run, for example outside a tsnmf checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrated, reference_s
from tracer import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Which per-layer metric each end-to-end metric is expected to follow, per
# workload, as measured on the traced run of the seed commit.
FOLLOWS = {
    "compare_small": {
        "pass_s": "nmf.solve_s (most), linalg.svd_s, initialization.*, "
        "svgplot.write_s, cli.self_s",
        "rows_per_s": "nmf.solve_s, nmf.sweeps, nmf.useful_sweep_ratio",
        "setup_s": "dataio.write_s (small input)",
        "peak_rss_mb": "flat",
    },
    "nndsvd_mid": {
        "pass_s": "linalg.svd_s (most), dataio.ingest_s, initialization.nndsvd_self_s, "
        "nmf.ms_per_sweep",
        "rows_per_s": "linalg.svd_s, dataio.ingest_mb_per_s",
        "setup_s": "dataio.write_s",
        "peak_rss_mb": "dataio.ingest_s (ingest builds a Python float per cell)",
    },
    "synth_tall": {
        "pass_s": "dataio.write_s (most), synth.generate_s",
        "rows_per_s": "dataio.write_mb_per_s",
        "setup_s": "flat (the input is a spec file)",
        "peak_rss_mb": "synth.generate_s",
    },
}


def source_hash() -> str:
    """Hash of the program and benchmark sources, keying exact-repeat records."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/tsnmf/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            text = fh.read().strip()
        l3 = int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "l3_bytes": l3,
    }


def child(args, timeout) -> str:
    """Run worker.py to the end; return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        timeout=timeout,
        capture_output=True,
        text=True,
    )
    sys.stderr.write(proc.stderr)
    proc.check_returncode()
    return proc.stdout


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up and measure one workload in child processes; return raw results."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    result_path = workdir / "result.json"
    trace_path = OUT / f"trace-{name}-seed{seed}.json.gz"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            # The child reports when it finished on the same monotonic clock:
            # waiting with a timeout polls in steps of up to 50 ms.
            before = reference_s()
            start = time.monotonic()
            done, after = child(["setup", name, seed, workdir], deadline - time.monotonic()).split()
            setups.append(float(done) - start)
            setup_refs.append((before + float(after)) / 2)
        child(
            ["measure", name, seed, workdir, seconds, int(trace), result_path, trace_path],
            deadline - time.monotonic(),
        )
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        verdict = json.loads(child(["check", name, seed, workdir], deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_wall_s"] = setups
    result["setup_ref_s"] = setup_refs
    result["quality"] = verdict.get("quality", {})
    if "failure" in verdict:
        # Every good pass wrote the same bytes as the one that failed here.
        result["failures"].append(f"first good pass, full check: {verdict['failure']}")
        result["failed"] = result["attempted"]
    return result


def check_exact(name: str, seed: int, result: dict) -> list[str]:
    """Compare counts that must repeat exactly with earlier runs of this code."""
    exact = {k: repr(v) for k, v in result["quality"].items()}
    exact.update(
        {k: repr(v) for k, v in result.get("layers", {}).items() if k in EXACT}
    )
    record = OUT / "exact" / f"{name}-seed{seed}-{source_hash()}.json"
    earlier = {}
    if record.exists():
        with open(record, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)
    moved = [k for k in exact if k in earlier and earlier[k] != exact[k]]
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({**earlier, **exact}, fh, indent=1, sort_keys=True)
    return [f"{k} was {earlier[k]} in an earlier run, now {exact[k]}" for k in moved]


def end_to_end(result: dict) -> dict:
    """The gated metrics (calibrated), then the raw times beside them."""
    walls = result["plain_wall_s"] or [float("nan")]
    pass_s = statistics.median(map(calibrated, walls, result["plain_ref_s"] or walls))
    return {
        "pass_s": pass_s,
        "rows_per_s": result["rows_per_pass"] / pass_s,
        "setup_s": statistics.median(
            map(calibrated, result["setup_wall_s"], result["setup_ref_s"])
        ),
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": statistics.median(walls),
        "wall_s_min": min(walls),
        "wall_s_tail": max(walls),
        "setup_wall_s": statistics.median(result["setup_wall_s"]),
    }


def summarize(name, seed, trace, result, env, problems) -> dict:
    """One run's numbers, each with its sample count, and its environment."""
    n = len(result["plain_wall_s"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": {**env, "numpy": result["numpy"]},
        "working_set_bytes": result["working_set_bytes"],
        "quality": result["quality"],
        "pass_wall_s": result["plain_wall_s"],
        "pass_ref_s": result["plain_ref_s"],
        "setup_wall_s": result["setup_wall_s"],
        "setup_ref_s": result["setup_ref_s"],
        "attempted": result["attempted"],
        # Counts that moved since an earlier run fail the run as a whole.
        "failed": min(result["attempted"], result["failed"] + bool(problems)),
        "failures": result["failures"] + problems,
    }
    if not trace:
        record["metrics"] = end_to_end(result)
        record["samples"] = {
            "pass_s": f"median of {n} calibrated passes",
            "rows_per_s": f"{result['rows_per_pass']} rows per pass / pass_s",
            "setup_s": f"median of {len(result['setup_wall_s'])} calibrated set-ups",
            "wall_s": f"raw, median of {n} passes",
            "wall_s_min": f"raw, fastest of {n} passes",
            "wall_s_tail": f"raw, slowest of {n} passes",
            "setup_wall_s": f"raw, median of {len(result['setup_wall_s'])} set-ups",
            "peak_rss_mb": "ru_maxrss of the measuring process, which runs the CLI "
            "passes and hashes their outputs",
        }
        return record
    shares = result["layer_self_s"]
    record.update(
        metrics=result["layers"],
        samples=f"medians of {result['traced_passes']} traced passes, "
        f"{len(result['plain_wall_s'])} untraced",
        absent=result["absent"],
        layer_self_s=shares,
        largest_layer=max(shares, key=shares.get) if shares else None,
        chosen_layer=result["layer"],
        unaccounted_s=result["unaccounted_s"],
    )
    return record


def show(record: dict, units: dict) -> None:
    """Print a run record for a reader: every metric with unit and sample count."""
    env = record["env"]
    ws, l3 = record["working_set_bytes"], env["l3_bytes"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']})")
    print(
        f"env: nproc {env['nproc']}, cpu {env['cpu']!r}, python {env['python']}, "
        f"numpy {env['numpy']}, BLAS threads {env['blas_threads']}"
    )
    if l3:
        fits = ws < l3
        print(
            f"working set: T is {ws / 1e6:.2f} MB, {'fits in' if fits else 'exceeds'} "
            f"the {l3 / 1e6:.1f} MB L3"
            + ("; per-sweep figures are not a DRAM-bandwidth measurement" if fits else "")
        )
    follows = FOLLOWS.get(record["workload"], {})
    samples = record["samples"]
    for key, value in record["metrics"].items():
        # The one traced metric outside BENCHMARK.json is in seconds.
        line = f"  {key:<34}{value:>14.6g} {units.get(key, 's'):<8}"
        if isinstance(samples, dict):
            line += samples[key]
        if key in follows:
            line += f"; follows {follows[key]}"
        print(line)
    if record["trace"]:
        print(f"  ({samples})")
        if record["absent"]:
            print(f"  absent (function not in this version): {', '.join(record['absent'])}")
        shares = record["layer_self_s"]
        total = sum(shares.values()) or 1.0
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + ", ".join(f"{k} {v / total:.0%}" for k, v in ranked))
        print(
            f"  largest layer {record['largest_layer']}, "
            f"chosen to stress {record['chosen_layer']}"
        )
        print(f"  unaccounted by spans: {record['unaccounted_s']:.6f} s (worst traced pass)")
    print(f"  {'fail_ratio':<34}{record['failed']}/{record['attempted']} passes")
    for key, value in record["quality"].items():
        print(f"  {key:<34}{value!r} (must repeat exactly)")
    for line in record["failures"]:
        print(f"  FAILED: {line}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tsnmf CLI benchmark")
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--seconds", type=int, help="must be run_seconds of BENCHMARK.json, if given"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tsnmf" / "__init__.py").is_file():
        print(f"perfbench: no tsnmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    seconds = bench["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"perfbench: runs measure for {seconds} s (BENCHMARK.json)", file=sys.stderr)
        return 2

    env = environment()
    attempted = failed = 0
    combined = {}
    for name in selected:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"perfbench: {name} did not run: {exc}", file=sys.stderr)
            return 2
        problems = check_exact(name, args.seed, result)
        record = summarize(name, args.seed, bool(args.trace), result, env, problems)
        with open(OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        show(record, units)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(selected) == 1 else f"{name}."
        combined.update(
            {
                prefix + k: {"value": v, "unit": units[k]}
                for k, v in record["metrics"].items()
                if k in units and math.isfinite(v)  # no good pass leaves no sample
            }
        )
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
