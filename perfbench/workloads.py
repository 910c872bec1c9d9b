"""The benchmark's workloads: their inputs, one pass's command line, and the
checks a pass's outputs must pass.

Every input is made from the workload seed; the program sees only the files
written here. The planted dataset is the one of the acceptance tests (540 x 32,
four heat-transfer components, 1% noise), tiled by rows for the larger
workloads.

synth_tall writes 21 600 rows, a fifth of the 108 000 first planned, so that
a pass takes about 1.3 s on a 2-core machine; the CSV writer is linear in the
row count, so its share of a pass holds at this size. nndsvd_mid reads the
acceptance data tiled 20x: the Jacobi SVD grows faster than linearly and
dominates from there on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from tsnmf import (
    BATH_PULSE,
    COOLING,
    HEATING,
    ComponentSpec,
    Factorization,
    GroundTruth,
    PlantedComponent,
    SyntheticSpec,
    WeightModel,
    generate,
    match_components,
    noise_sigma_for_range,
    time_vector,
)
from tsnmf.dataio import write_matrix_csv
from tsnmf.specfiles import build_ground_truth, parse_synthetic_spec

ACCEPTANCE_ROWS = 540
GRID = time_vector(32, 5.0)
K = 4

# The planted problem of acceptance criteria 4, 5, 6 and 8.
RECOVERY_COMPONENTS = (
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=130.0, tau_h=7.0),
        WeightModel("walk", base=45.0, step=0.02),
    ),
    PlantedComponent(
        ComponentSpec(COOLING, amp=1.0, tau_c=60.0),
        WeightModel("drift", base=10.0, slope=-0.01),
    ),
    PlantedComponent(
        ComponentSpec(BATH_PULSE, amp=1.0, tau_c=25.0, tau_h=5.0),
        WeightModel("periodic", base=2.0, amp=20.0, period=45.0),
    ),
    PlantedComponent(
        ComponentSpec(HEATING, amp=1.0, tau_h=40.0),
        WeightModel("walk", base=8.0, step=0.02),
    ),
)
# The criterion-5 knowledge curves: the data mean plus rough physical guesses.
COMPONENTS_FILE = "mean\ncooling tau_c=60\nbathpulse tau_c=30 tau_h=6\nheating tau_h=35\n"

# Tolerances of the output checks, as in the acceptance criteria.
COST_MATCH_RTOL = 1e-9
DESCENT_SLACK = 1e-12  # relative rise a sweep may make, criterion 1


class CheckFailed(Exception):
    """A pass produced output that breaks one of the checks."""


@dataclass(frozen=True)
class Workload:
    """One CLI command on one generated input.

    ``layer`` is the module the workload was chosen to stress; the traced run
    reports whether its self time is the largest.
    """

    name: str
    command: str  # "compare-inits", "decompose" or "synth"
    rows: int
    layer: str
    init: str = "knowledge"
    max_iters: int | None = None  # None keeps the CLI's default cap
    n_seeds: int = 20

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.command == "compare-inits":
            return ("convergence.csv", "convergence.svg", "report.txt")
        if self.command == "decompose":
            return ("theta.csv", "w.csv", "trace.csv", "report.txt")
        return ("dataset.csv", "truth_w.csv", "truth_theta.csv")

    @property
    def solves_per_pass(self) -> int:
        if self.command == "compare-inits":
            return 2 + self.n_seeds  # knowledge, nndsvd and the random seeds
        return int(self.command == "decompose")

    @property
    def working_set_bytes(self) -> int:
        """Bytes of the data matrix T as float64."""
        return self.rows * GRID.m * 8

    @property
    def rows_per_pass(self) -> int:
        """Recordings processed by one pass: rows times the number of solves."""
        return self.rows * max(1, self.solves_per_pass)

    def argv(self, workdir: str) -> list[str]:
        out = os.path.join(workdir, "out")
        data = os.path.join(workdir, "dataset.csv")
        components = os.path.join(workdir, "components.txt")
        if self.command == "synth":
            return ["synth", "--spec", os.path.join(workdir, "spec.txt"), "--out", out]
        argv = [self.command, "--input", data, "--k", str(K), "--out", out]
        if self.command == "compare-inits":
            argv += ["--seeds", str(self.n_seeds)]
        else:
            argv += ["--init", self.init, "--tol", "0"]
        if self.max_iters is not None:
            argv += ["--max-iters", str(self.max_iters)]
        if self.init == "knowledge":
            argv += ["--components", components]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare_small", "compare-inits", ACCEPTANCE_ROWS, layer="nmf"),
        Workload(
            "nndsvd_mid",
            "decompose",
            20 * ACCEPTANCE_ROWS,
            layer="linalg",
            init="nndsvd",
            max_iters=20,
        ),
        Workload("synth_tall", "synth", 40 * ACCEPTANCE_ROWS, layer="dataio"),
    )
}


def planted(seed: int, rows: int) -> GroundTruth:
    """The acceptance dataset for ``seed``, tiled by rows to ``rows`` recordings."""
    spec = SyntheticSpec(
        n=ACCEPTANCE_ROWS,
        grid=GRID,
        components=RECOVERY_COMPONENTS,
        noise_sigma=0.0,
        seed=seed,
    )
    sigma = noise_sigma_for_range(generate(spec).t_clean, 0.01)
    truth = generate(dataclasses.replace(spec, noise_sigma=sigma))
    tiles = (rows // ACCEPTANCE_ROWS, 1)
    return GroundTruth(
        w_true=np.tile(truth.w_true, tiles),
        theta_true=truth.theta_true,
        t_clean=np.tile(truth.t_clean, tiles),
        t_noisy=np.tile(truth.t_noisy, tiles),
        noise_clamps=truth.noise_clamps * tiles[0],
    )


def synth_spec_text(seed: int, rows: int) -> str:
    """The acceptance curves and weights as a synth spec over ``rows`` recordings.

    The drift slope is scaled by 540/rows and the walk steps by its square
    root, so the weights span what they span over 540 rows and stay
    non-negative for every seed.
    """
    shrink = ACCEPTANCE_ROWS / rows
    step = 0.02 * math.sqrt(shrink)
    return "\n".join(
        [
            f"n={rows}",
            "m=32",
            "dt=5",
            f"seed={seed}",
            "noise_rel=0.01",
            f"bathpulse amp=1 tau_c=130 tau_h=7 weights=walk:45,{step!r}",
            f"cooling amp=1 tau_c=60 weights=drift:10,{-0.01 * shrink!r}",
            "bathpulse amp=1 tau_c=25 tau_h=5 weights=periodic:2,20,45",
            f"heating amp=1 tau_h=40 weights=walk:8,{step!r}",
        ]
    ) + "\n"


def write_inputs(wl: Workload, seed: int, workdir: str) -> None:
    """Generate the workload's input files into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    if wl.command == "synth":
        with open(os.path.join(workdir, "spec.txt"), "w", encoding="utf-8") as fh:
            fh.write(synth_spec_text(seed, wl.rows))
        return
    truth = planted(seed, wl.rows)
    write_matrix_csv(os.path.join(workdir, "dataset.csv"), truth.t_noisy, grid=GRID)
    with open(os.path.join(workdir, "components.txt"), "w", encoding="utf-8") as fh:
        fh.write(COMPONENTS_FILE)


def reference(wl: Workload, seed: int) -> GroundTruth:
    """What the outputs are checked against: the planted or generated truth."""
    if wl.command == "synth":
        return build_ground_truth(parse_synthetic_spec(synth_spec_text(seed, wl.rows)))[1]
    return planted(seed, wl.rows)


def digest(out_dir: str, names) -> dict[str, str]:
    """SHA-256 of each output file; a missing file is a failed check."""
    digests = {}
    for name in names:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        except OSError as exc:
            raise CheckFailed(f"missing output {name}: {exc}") from None
    return digests


def _report_fields(path: str) -> dict[str, str]:
    """The ``key = value`` lines of a decompose report.txt."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                fields[key.strip()] = value.strip()
    return fields


def require_descent(costs, what: str) -> None:
    """Fail when a sweep raised the cost by more than the criterion-1 slack."""
    costs = list(costs)
    slack = DESCENT_SLACK * costs[0] if costs else 0.0
    bad = sum(after > before + slack for before, after in zip(costs, costs[1:]))
    if bad:
        raise CheckFailed(
            f"{what}: {bad} sweep(s) raised the cost by more than {DESCENT_SLACK} relative"
        )


def _load(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_outputs(wl: Workload, out_dir: str, truth: GroundTruth) -> dict[str, float]:
    """Check one pass's outputs in full; return the quality figures.

    Raises CheckFailed on the first broken check, or when an output cannot be
    read. The quality figures are ``rel_residual`` (||T - W Theta||_F /
    ||T||_F) and ``mean_cosine`` (recovery of the planted profiles), where the
    workload has them. compare-inits writes only the per-sweep median of its
    random solves; the measuring process checks every solve's own cost trace
    on every pass.
    """
    try:
        if wl.command == "compare-inits":
            return _check_compare(out_dir, truth.t_noisy)
        if wl.command == "decompose":
            return _check_decompose(wl, out_dir, truth)
        return _check_synth(out_dir, truth)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from None


def _check_compare(out_dir: str, t: np.ndarray) -> dict[str, float]:
    with open(os.path.join(out_dir, "convergence.csv"), "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
    table = np.loadtxt(
        os.path.join(out_dir, "convergence.csv"), delimiter=",", skiprows=1, ndmin=2
    )
    norm2 = float(np.sum(t * t))
    residuals = []
    for col, name in enumerate(names, start=1):
        require_descent(table[:, col], f"convergence.csv column {name}")
        reported = _final_cost(out_dir, name)
        last = float(table[-1, col])
        if abs(reported - last) > COST_MATCH_RTOL * abs(last):
            raise CheckFailed(
                f"report.txt final_cost {reported!r} for {name} is not the "
                f"last convergence.csv cost {last!r}"
            )
        residuals.append(math.sqrt(reported / norm2))
    if os.path.getsize(os.path.join(out_dir, "convergence.svg")) == 0:
        raise CheckFailed("convergence.svg is empty")
    return {"rel_residual": max(residuals)}


def _final_cost(out_dir: str, strategy: str) -> float:
    with open(os.path.join(out_dir, "report.txt"), "r", encoding="utf-8") as fh:
        for line in fh:
            name, _, rest = line.partition(": ")
            if name == strategy:
                return float(rest.rsplit("final_cost = ", 1)[1])
    raise CheckFailed(f"report.txt has no line for {strategy}")


def _check_decompose(wl: Workload, out_dir: str, truth: GroundTruth) -> dict[str, float]:
    t = truth.t_noisy
    fields = _report_fields(os.path.join(out_dir, "report.txt"))
    costs = np.loadtxt(os.path.join(out_dir, "trace.csv"), delimiter=",", skiprows=1, ndmin=2)[:, 1]
    if len(costs) != wl.max_iters or int(fields["iterations"]) != wl.max_iters:
        raise CheckFailed(f"expected {wl.max_iters} sweeps, trace has {len(costs)}")
    require_descent(costs, "trace.csv")
    w = _load(os.path.join(out_dir, "w.csv"))
    theta = _load(os.path.join(out_dir, "theta.csv"))
    if w.shape != (t.shape[0], K) or theta.shape != (K, t.shape[1]):
        raise CheckFailed(f"factor shapes {w.shape} and {theta.shape} do not fit the data")
    if np.any(w < 0.0) or np.any(theta < 0.0):
        raise CheckFailed("a written factor has negative entries")
    diff = t - w @ theta
    recomputed = float(np.sum(diff * diff))
    reported = float(fields["final_cost"])
    if abs(recomputed - reported) > COST_MATCH_RTOL * abs(reported):
        raise CheckFailed(
            f"final cost from w.csv and theta.csv is {recomputed!r}, "
            f"report.txt says {reported!r}"
        )
    match = match_components(Factorization(w=w, theta=theta), truth)
    return {
        "rel_residual": math.sqrt(recomputed / float(np.sum(t * t))),
        "mean_cosine": match.mean_cosine,
    }


def _check_synth(out_dir: str, truth: GroundTruth) -> dict[str, float]:
    path = os.path.join(out_dir, "dataset.csv")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    times = np.array([float(cell.removeprefix("t=")) for cell in header])
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    pairs = (
        ("dataset.csv", data, truth.t_noisy),
        ("truth_w.csv", _load(os.path.join(out_dir, "truth_w.csv")), truth.w_true),
        ("truth_theta.csv", _load(os.path.join(out_dir, "truth_theta.csv")), truth.theta_true),
    )
    for name, written, generated in pairs:
        if not np.array_equal(written, generated):
            raise CheckFailed(f"{name} does not re-read bit-identically to generate()")
    if times.shape != (GRID.m,) or not np.array_equal(times, GRID.values):
        raise CheckFailed("dataset.csv time header does not match the spec grid")
    return {}
