"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/spread.py --workloads compare_small,synth_tall --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --save perfbench/baseline.json

Runs are sequential, one benchmark process at a time. For each workload and
metric it prints the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median beside the metric's bound in BENCHMARK.json. With --save
it writes those figures and every run's record (each timing with its sample
count, and the environment) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread_of(values: list[float]) -> dict:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(mid) if mid else 0.0,
        "runs": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the figures and run records here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = (
        [w["name"] for w in bench["workloads"]]
        if args.workloads == "all"
        else args.workloads.split(",")
    )
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    worst = 0
    for name in names:
        values: dict[str, list[float]] = {}
        records = []
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            worst = max(worst, proc.returncode)
            if not last["correct"]:
                print(proc.stdout, file=sys.stderr)
            for key, metric in last["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            with open(OUT / f"run-{name}-seed{seed}-trace{args.trace}.json") as fh:
                records.append(json.load(fh))
        print(f"== {name}: {len(records)} runs of {seconds} s")
        figures = {}
        for key, vals in values.items():
            figures[key] = spread_of(vals)
            bound = bounds.get(key)
            note = ""
            if bound is not None:
                ok = figures[key]["spread"] < bound / 3
                note = f"  bound {bound} ({'under a third' if ok else 'OVER a third'})"
            f = figures[key]
            print(
                f"  {key:<34} median {f['median']:<12.6g} q1 {f['q1']:<12.6g} "
                f"q3 {f['q3']:<12.6g} spread {f['spread']:.3f}{note}"
            )
        summary["workloads"][name] = {"figures": figures, "runs": records}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
