"""Non-negative decomposition of sensor time series.

Batches of non-negative recordings (one curve per row) are factored into a
small set of non-negative component profiles and per-recording weights via
exact coordinate descent, seeded either with idealized heat-transfer
curves, an SVD-derived non-negative start, or scaled random draws. A
synthetic-data harness plants known components and scores their recovery.
"""

from .errors import NumericalError, ShapeError, SpecFileError, ValidationError
from .initialization import (
    BATH_PULSE,
    COOLING,
    CURVE_KINDS,
    HEAT_KERNEL,
    HEATING,
    MEAN,
    ComponentSpec,
    InitResult,
    TimeGrid,
    bath_pulse_peak_time,
    component_curve,
    knowledge_init,
    nndsvd_init,
    random_init,
    resolve_spec,
    time_vector,
)
from .linalg import SvdResult, pinv, split_sections, svd
from .nmf import (
    ConvergenceTrace,
    Factorization,
    SolverConfig,
    cost,
    hals_sweep,
    normalize,
    reconstruct,
    revive_dead_component,
    solve,
)
from .synth import (
    GroundTruth,
    MatchReport,
    PlantedComponent,
    SyntheticSpec,
    WeightModel,
    generate,
    match_components,
    noise_sigma_for_range,
)

__version__ = "0.1.0"

__all__ = [
    "BATH_PULSE",
    "COOLING",
    "CURVE_KINDS",
    "ComponentSpec",
    "ConvergenceTrace",
    "Factorization",
    "GroundTruth",
    "HEATING",
    "HEAT_KERNEL",
    "InitResult",
    "MEAN",
    "MatchReport",
    "NumericalError",
    "PlantedComponent",
    "ShapeError",
    "SolverConfig",
    "SpecFileError",
    "SvdResult",
    "SyntheticSpec",
    "TimeGrid",
    "ValidationError",
    "WeightModel",
    "bath_pulse_peak_time",
    "component_curve",
    "cost",
    "generate",
    "hals_sweep",
    "knowledge_init",
    "match_components",
    "nndsvd_init",
    "noise_sigma_for_range",
    "normalize",
    "pinv",
    "random_init",
    "reconstruct",
    "resolve_spec",
    "revive_dead_component",
    "solve",
    "split_sections",
    "svd",
    "time_vector",
]
