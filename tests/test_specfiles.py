import dataclasses

import numpy as np
import pytest

from tsnmf import SpecFileError, ValidationError, WeightModel, generate, noise_sigma_for_range
from tsnmf.initialization import (
    CURVE_PARAMS,
    ComponentSpec,
    component_curve,
    resolve_spec,
    time_vector,
)
from tsnmf.specfiles import build_ground_truth, parse_component_specs, parse_synthetic_spec

COMPONENT_FILE = """\
# stock curves with explicit parameters
mean
cooling tau_c=50 amp=30
bathpulse tau_c=60 tau_h=12 amp=25   # pulse
heating tau_h=15 amp=30
heatkernel r=1.5 amp=10
"""

SYNTH_FILE = """\
n=40
m=16
dt=2.0
seed=3
noise=0.05
bathpulse tau_c=20 tau_h=4 amp=1 weights=constant:30
cooling tau_c=12 amp=1 weights=drift:8,-0.05
heating tau_h=6 amp=1 weights=periodic:2,4,10
"""


# A value for every curve parameter, valid together (the bath pulse needs tau_c > tau_h).
PARAM_VALUES = {"amp": 2.0, "tau_c": 9.0, "tau_h": 3.0, "r": 0.5}


@pytest.mark.parametrize("kind", list(CURVE_PARAMS))
def test_curve_table_drives_resolution_building_and_parsing(kind):
    """Each kind's listed parameters are exactly the ones resolve_spec fills,
    component_curve needs, and a spec-file line may set."""
    grid = time_vector(12, 1.5)
    names = CURVE_PARAMS[kind]
    mean = np.linspace(1.0, 2.0, grid.m)

    resolved = resolve_spec(ComponentSpec(kind), grid)
    assert [getattr(resolved, n) for n in names].count(None) == 0
    curve = component_curve(resolved, grid, mean)
    assert curve.shape == (grid.m,) and np.all(np.isfinite(curve)) and np.all(curve >= 0.0)

    needed = [n for n in names if n != "r"]  # an unset r is the source point, r = 0
    if needed:
        message = f"{kind} curve needs {' and '.join(needed)}; resolve the spec first"
        with pytest.raises(ValidationError, match=message):
            component_curve(ComponentSpec(kind), grid)

    line = " ".join([kind, *(f"{n}={PARAM_VALUES[n]}" for n in names)])
    (spec,) = parse_component_specs(line)
    assert spec == ComponentSpec(kind, **{n: PARAM_VALUES[n] for n in names})
    component_curve(spec, grid, mean)
    allowed = ", ".join(names) or "none"
    for other in sorted(set(PARAM_VALUES) - set(names)):
        with pytest.raises(SpecFileError) as info:
            parse_component_specs(f"{kind} {other}=1")
        assert f"parameter {other!r} not valid for {kind!r} (allowed: {allowed})" in str(info.value)


def test_unresolved_heat_kernel_builds_at_the_source_point():
    grid = time_vector(12, 1.5)
    unset = component_curve(ComponentSpec("heatkernel", amp=1.0), grid)
    at_zero = component_curve(ComponentSpec("heatkernel", amp=1.0, r=0.0), grid)
    assert unset.tobytes() == at_zero.tobytes()


class TestComponentSpecs:
    def test_parses_all_kinds(self):
        specs = parse_component_specs(COMPONENT_FILE)
        assert [s.kind for s in specs] == [
            "mean",
            "cooling",
            "bathpulse",
            "heating",
            "heatkernel",
        ]
        assert specs[1].tau_c == 50.0
        assert specs[2].tau_h == 12.0
        assert specs[4].r == 1.5

    def test_defaults_left_unset(self):
        specs = parse_component_specs("cooling\n")
        assert specs[0].tau_c is None
        assert specs[0].amp is None

    def test_unknown_kind_reports_line(self):
        with pytest.raises(SpecFileError, match="line 2"):
            parse_component_specs("mean\nsigmoid tau=3\n")

    def test_bad_parameter_for_kind(self):
        with pytest.raises(SpecFileError, match="tau_h"):
            parse_component_specs("cooling tau_h=4\n")

    def test_mean_takes_no_parameters(self):
        with pytest.raises(SpecFileError):
            parse_component_specs("mean amp=3\n")

    def test_non_numeric_value(self):
        with pytest.raises(SpecFileError, match="line 1"):
            parse_component_specs("cooling tau_c=fast\n")

    def test_weights_clause_rejected(self):
        with pytest.raises(SpecFileError, match="synthetic"):
            parse_component_specs("cooling tau_c=5 weights=constant:1\n")

    def test_empty_file(self):
        with pytest.raises(SpecFileError, match="no components"):
            parse_component_specs("# nothing here\n")


class TestSyntheticSpecs:
    def test_full_parse(self):
        parsed = parse_synthetic_spec(SYNTH_FILE)
        assert (parsed.n, parsed.grid.m, parsed.grid.dt, parsed.seed) == (40, 16, 2.0, 3)
        assert parsed.noise_sigma == 0.05
        assert parsed.noise_rel is None
        assert len(parsed.components) == 3
        assert parsed.components[0].weights.kind == "constant"
        assert parsed.components[1].weights.slope == -0.05
        assert parsed.components[2].weights.period == 10.0

    def test_missing_directive(self):
        with pytest.raises(SpecFileError, match="'m'"):
            parse_synthetic_spec("n=5\ndt=1.0\ncooling weights=constant:1\n")

    def test_duplicate_directive_reports_both_lines(self):
        text = "n=5\nm=4\ndt=1.0\nn=6\ncooling weights=constant:1\n"
        with pytest.raises(SpecFileError, match="line 4"):
            parse_synthetic_spec(text)

    def test_unknown_directive(self):
        with pytest.raises(SpecFileError, match="rows"):
            parse_synthetic_spec("rows=5\n")

    def test_component_without_weights(self):
        with pytest.raises(SpecFileError, match="weights="):
            parse_synthetic_spec("n=5\nm=4\ndt=1.0\ncooling tau_c=3\n")

    def test_weight_argument_count(self):
        with pytest.raises(SpecFileError, match="periodic"):
            parse_synthetic_spec("n=5\nm=4\ndt=1.0\ncooling weights=periodic:1,2\n")

    def test_unknown_weight_model(self):
        with pytest.raises(SpecFileError, match="sawtooth"):
            parse_synthetic_spec("n=5\nm=4\ndt=1.0\ncooling weights=sawtooth:1\n")

    @pytest.mark.parametrize(
        "directive,message",
        [
            ("n=60.9", "n must be an integer, got '60.9'"),
            ("m=32.5", "m must be an integer, got '32.5'"),
            ("n=nan", "n must be an integer, got 'nan'"),
            ("n=1e400", "n must be an integer, got '1e400'"),
            ("seed=2.5", "seed must be an integer, got '2.5'"),
            ("seed=-1", "seed must be >= 0, got '-1'"),
        ],
    )
    def test_non_integer_directive_names_line(self, directive, message):
        lines = {"n": "n=5", "m": "m=4", "dt": "dt=1.0", "seed": "seed=0"}
        key = directive.split("=")[0]
        lines[key] = directive
        text = "\n".join([*lines.values(), "cooling weights=constant:1"])
        with pytest.raises(SpecFileError) as info:
            parse_synthetic_spec(text)
        assert str(info.value) == f"line {list(lines).index(key) + 1}: {message}"

    def test_integral_float_directives_accepted(self):
        parsed = parse_synthetic_spec(
            "n=5.0\nm=4e0\ndt=1.0\nseed=0\ncooling weights=constant:1\n"
        )
        assert (parsed.n, parsed.grid.m, parsed.seed) == (5, 4, 0)

    def test_blank_and_comment_lines_ignored(self):
        text = "\n# planted curves\n" + SYNTH_FILE.replace("\n", "\n\n   # note\n", 3)
        assert parse_synthetic_spec(text) == parse_synthetic_spec(SYNTH_FILE)

    def test_noise_and_noise_rel_conflict(self):
        text = "n=5\nm=4\ndt=1.0\nnoise=0.1\nnoise_rel=0.01\ncooling weights=constant:1\n"
        with pytest.raises(SpecFileError, match="not both"):
            parse_synthetic_spec(text)


class TestBuildGroundTruth:
    def test_absolute_noise(self):
        spec, truth = build_ground_truth(parse_synthetic_spec(SYNTH_FILE))
        assert spec.noise_sigma == 0.05
        assert truth.t_noisy.shape == (40, 16)

    def test_relative_noise_resolves_against_clean_range(self):
        # noise_rel gives the bytes of noise_sigma = noise_rel * the clean range.
        text = SYNTH_FILE.replace("noise=0.05", "noise_rel=0.01")
        spec, truth = build_ground_truth(parse_synthetic_spec(text))
        sigma = noise_sigma_for_range(truth.t_clean, 0.01)
        absolute = generate(dataclasses.replace(spec, noise_sigma=sigma, noise_rel=None))
        for name in ("w_true", "theta_true", "t_clean", "t_noisy"):
            assert getattr(truth, name).tobytes() == getattr(absolute, name).tobytes()
        assert truth.noise_clamps == absolute.noise_clamps

    def test_relative_noise_keeps_clean_data(self):
        base_text = SYNTH_FILE.replace("noise=0.05", "noise=0.0")
        rel_text = SYNTH_FILE.replace("noise=0.05", "noise_rel=0.01")
        _, base = build_ground_truth(parse_synthetic_spec(base_text))
        _, rel = build_ground_truth(parse_synthetic_spec(rel_text))
        assert np.array_equal(base.t_clean, rel.t_clean)
        assert not np.array_equal(rel.t_noisy, rel.t_clean)


@pytest.mark.parametrize(
    "line,message",
    [
        ("cooling tau_c=nan", "tau_c must be positive, got nan"),
        ("heating amp=nan", "amp must be positive, got nan"),
        ("heatkernel r=nan", "r must be >= 0, got nan"),
    ],
)
def test_nan_parameter_is_a_spec_error_naming_its_line(line, message):
    with pytest.raises(SpecFileError, match=rf"^line 2: {message}$"):
        parse_component_specs(f"mean\n{line}\n")


HEADER = "n=5\nm=4\ndt=1\n"


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_component_specs, "mean\ncooling tau_c\n", "line 2: expected key=value, got 'tau_c'"),
        (parse_synthetic_spec, HEADER + "cooling weights=periodic:1,2,0\n",
         "line 4: period must be positive, got 0.0"),
        (parse_synthetic_spec, HEADER + "cooling weights=periodic:1,2,nan\n",
         "line 4: period must be positive, got nan"),
        (parse_synthetic_spec, HEADER, "no components defined"),
        (parse_component_specs, "mean\nSigmoid tau=3\n",
         "line 2: unknown component kind 'Sigmoid'; "
         "expected one of mean, cooling, heating, bathpulse, heatkernel"),
        (parse_synthetic_spec, HEADER + "cooling weights=Sawtooth:1\n",
         "line 4: unknown weight model 'Sawtooth'; expected one of constant, drift, periodic, walk"),
        (parse_component_specs, "cooling tau_h=4\n",
         "line 1: parameter 'tau_h' not valid for 'cooling' (allowed: amp, tau_c)"),
        (parse_component_specs, "mean amp=3\n",
         "line 1: parameter 'amp' not valid for 'mean' (allowed: none)"),
        (parse_component_specs, "cooling tau_c=fast\n", "line 1: tau_c is not a number: 'fast'"),
        (parse_synthetic_spec, HEADER + "cooling weights=walk:1,x\n",
         "line 4: walk step is not a number: 'x'"),
        (parse_synthetic_spec, HEADER + "cooling weights=periodic:1,2\n",
         "line 4: weight model 'periodic' takes 3 argument(s) (periodic:base,amp,period), got 2"),
        (parse_component_specs, "cooling tau_c=5 weights=constant:1\n",
         "line 1: weights= clauses belong in synthetic spec files"),
        (parse_component_specs, "bathpulse tau_c=3 tau_h=5\n",
         "line 1: bathpulse needs tau_c > tau_h, got tau_c = 3.0, tau_h = 5.0 "
         "(the curve would not stay non-negative)"),
        (parse_component_specs, "cooling tau_c=5 tau_c=60\n", "line 1: 'tau_c' given twice"),
        (parse_component_specs, "cooling TAU_C=5 tau_c=60\n", "line 1: 'tau_c' given twice"),
        (parse_synthetic_spec, HEADER + "cooling weights=constant:1 weights=constant:2\n",
         "line 4: 'weights' given twice"),
        (parse_synthetic_spec, HEADER + "cooling weights=drift:1,,2\n",
         "line 4: weight model 'drift' takes 2 argument(s) (drift:base,slope), got 3"),
        (parse_synthetic_spec, HEADER + "cooling weights=drift:\n",
         "line 4: weight model 'drift' takes 2 argument(s) (drift:base,slope), got 0"),
    ],
    ids=["token-without-equals", "periodic-zero-period", "periodic-nan-period", "no-components",
         "unknown-kind", "unknown-weight-model", "parameter-not-taken", "mean-parameter",
         "non-numeric-parameter", "non-numeric-weight-argument", "weight-argument-count",
         "weights-in-component-file", "bath-pulse-order", "repeated-key", "repeated-key-any-case",
         "repeated-weights", "empty-weight-argument", "empty-weights-clause"],
)
def test_spec_defect_is_named(parse, text, message):
    """The full message of each spec-file defect, its line included."""
    with pytest.raises(SpecFileError) as info:
        parse(text)
    assert str(info.value) == message


def test_kinds_are_checked_by_the_types_in_any_case():
    """The library reads a kind as a spec file does: in any case, and an unknown
    kind with the file's message less its line."""
    assert ComponentSpec("Cooling") == ComponentSpec("cooling")
    assert WeightModel("DRIFT", slope=1.0) == WeightModel("drift", slope=1.0)
    cases = [(ComponentSpec, "Sigmoid", parse_component_specs, "mean\nSigmoid tau=3\n"),
             (WeightModel, "Sawtooth", parse_synthetic_spec, HEADER + "cooling weights=Sawtooth:1")]
    for make, kind, parse, text in cases:
        with pytest.raises(ValidationError) as library:
            make(kind)
        with pytest.raises(SpecFileError) as spec_file:
            parse(text)
        assert str(spec_file.value) == f"line {spec_file.value.line}: {library.value}"
