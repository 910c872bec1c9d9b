"""Parsers for the component and synthetic spec file grammars.

Component spec file: one component per line, ``kind key=value ...`` with
``#`` comments and blank lines ignored. Kinds are ``mean`` (no
parameters), ``cooling`` (tau_c, amp), ``heating`` (tau_h, amp),
``bathpulse`` (tau_c, tau_h, amp), ``heatkernel`` (r, amp); omitted
parameters fall back to grid-derived defaults.

Synthetic spec file: the same component lines, each extended with a
mandatory ``weights=MODEL:args`` clause, plus ``key=value`` directive
lines. Directives: ``n`` (recordings), ``m`` (time points), ``dt``
(seconds), ``seed`` (``n``, ``m`` and ``seed`` integral, ``seed`` >= 0),
and either ``noise`` (absolute Gaussian sigma) or ``noise_rel`` (fraction
of the clean data range). Weight models: ``constant:VALUE``,
``drift:BASE,SLOPE``, ``periodic:BASE,AMP,PERIOD``, ``walk:BASE,STEP``.
The parser returns the :class:`synth.SyntheticSpec` that ``generate`` takes.
"""

from __future__ import annotations

from .errors import SpecFileError, ValidationError
from .initialization import CURVE_PARAMS, ComponentSpec, time_vector
from .synth import WEIGHT_ARGS, GroundTruth, PlantedComponent, SyntheticSpec, WeightModel, generate


def content_lines(lines):
    """``(line_no, line)`` for each of ``lines`` (numbered from 1) that is not
    blank once its ``#`` comment is cut off; ``line`` is stripped."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _build(make, line_no: int, **fields):
    """``make(**fields)``, its :class:`ValidationError` reported on line ``line_no``."""
    try:
        return make(**fields)
    except ValidationError as exc:
        raise SpecFileError(str(exc), line=line_no) from None


def _parse_float(raw: str, line_no: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise SpecFileError(f"{what} is not a number: {raw!r}", line=line_no) from None


def _parse_component_tokens(tokens: list[str], line_no: int) -> tuple[ComponentSpec, str | None]:
    kind = _build(ComponentSpec, line_no, kind=tokens[0]).kind
    params: dict[str, float] = {}
    weights_clause = None
    for token in tokens[1:]:
        if "=" not in token:
            raise SpecFileError(f"expected key=value, got {token!r}", line=line_no)
        key, raw = token.split("=", 1)
        key = key.strip().lower()
        if key in params or key == "weights" and weights_clause is not None:
            raise SpecFileError(f"{key!r} given twice", line=line_no)
        if key == "weights":
            weights_clause = raw.strip()
            continue
        if key not in CURVE_PARAMS[kind]:
            allowed = ", ".join(CURVE_PARAMS[kind]) or "none"
            raise SpecFileError(
                f"parameter {key!r} not valid for {kind!r} (allowed: {allowed})",
                line=line_no,
            )
        params[key] = _parse_float(raw.strip(), line_no, key)
    return _build(ComponentSpec, line_no, kind=kind, **params), weights_clause


def parse_component_specs(text: str) -> list[ComponentSpec]:
    """Parse a component spec file body into curve specs, in file order."""
    specs = []
    for line_no, line in content_lines(text.splitlines()):
        spec, weights = _parse_component_tokens(line.split(), line_no)
        if weights is not None:
            raise SpecFileError(
                "weights= clauses belong in synthetic spec files", line=line_no
            )
        specs.append(spec)
    if not specs:
        raise SpecFileError("no components defined")
    return specs


def _parse_weight_model(clause: str, line_no: int) -> WeightModel:
    head, _, rest = clause.partition(":")
    kind = _build(WeightModel, line_no, kind=head).kind
    names = WEIGHT_ARGS[kind]
    args = rest.split(",") if rest.strip() else []
    if len(args) != len(names):
        raise SpecFileError(
            f"weight model {kind!r} takes {len(names)} argument(s) "
            f"({':'.join((kind, ','.join(names)))}), got {len(args)}",
            line=line_no,
        )
    values = {
        name: _parse_float(arg.strip(), line_no, f"{kind} {name}")
        for name, arg in zip(names, args)
    }
    return _build(WeightModel, line_no, kind=kind, **values)


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Parse a synthetic spec file body (directives plus component lines)."""
    directives: dict[str, float] = {}
    directive_lines: dict[str, int] = {}
    components: list[PlantedComponent] = []
    for line_no, line in content_lines(text.splitlines()):
        tokens = line.split()
        if len(tokens) == 1 and "=" in tokens[0]:
            key, _, value = tokens[0].partition("=")
            key = key.strip().lower()
            if key not in ("n", "m", "dt", "seed", "noise", "noise_rel"):
                raise SpecFileError(f"unknown directive {key!r}", line=line_no)
            if key in directives:
                raise SpecFileError(
                    f"directive {key!r} already set on line {directive_lines[key]}",
                    line=line_no,
                )
            number = directives[key] = _parse_float(value.strip(), line_no, key)
            if key in ("n", "m", "seed") and not number.is_integer():
                raise SpecFileError(
                    f"{key} must be an integer, got {value!r}", line=line_no
                )
            if key == "seed" and number < 0:
                raise SpecFileError(f"seed must be >= 0, got {value!r}", line=line_no)
            directive_lines[key] = line_no
            continue
        spec, weights_clause = _parse_component_tokens(tokens, line_no)
        if weights_clause is None:
            raise SpecFileError(
                "synthetic components need a weights= clause", line=line_no
            )
        components.append(
            PlantedComponent(curve=spec, weights=_parse_weight_model(weights_clause, line_no))
        )

    for required in ("n", "m", "dt"):
        if required not in directives:
            raise SpecFileError(f"missing required directive {required!r}")
    if not components:
        raise SpecFileError("no components defined")
    if "noise" in directives and "noise_rel" in directives:
        raise SpecFileError("give either noise or noise_rel, not both")
    return SyntheticSpec(
        n=int(directives["n"]),
        grid=time_vector(int(directives["m"]), directives["dt"]),
        components=tuple(components),
        noise_sigma=directives.get("noise", 0.0),
        seed=int(directives.get("seed", 0)),
        noise_rel=directives.get("noise_rel"),
    )


def build_ground_truth(spec: SyntheticSpec) -> tuple[SyntheticSpec, GroundTruth]:
    """``(spec, generate(spec))``, kept because the benchmark harness
    (``perfbench/workloads.py``) calls ``build_ground_truth(parse_synthetic_spec(text))[1]``."""
    return spec, generate(spec)
