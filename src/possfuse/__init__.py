"""Possibilistic single-target filtering and track fusion.

The package implements a Bernoulli filter whose uncertainty is carried by
possibility functions instead of probability densities: spatial states are
max-mixtures of Gaussian-shaped possibilities, presence is a two-cell
possibility assignment, and every recursion step renormalises suprema to
one.  On top of the filter sit two fusion rules for combining posteriors
from different sensors, a Chernoff-style geometric rule that is robust to
unknown correlation and an independent product rule that assumes none.
"""

from .bernoulli import (
    BernoulliPossState,
    DetectionPossibility,
    Estimate,
    MeasurementModel,
    MotionModel,
    ReductionConfig,
    TransitionPossibilityMatrix,
    extract,
    predict,
    probability_interval_to_possibility,
    reduce,
    update,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    default_experiment,
    load_experiment,
    parse_experiment,
    serialize_experiment,
)
from .fusion import (
    FusionResult,
    fuse_chernoff,
    fuse_independent,
    select_omega,
    selftest,
)
from .gaussmax import (
    GaussianMaxMixture,
    sup_linear_gaussian_product,
)
from .metrics import AggregateResult, RunRecord, SeriesTrack, ospa
from .runner import (
    ExperimentResult,
    NumericsError,
    run_fusion_dependent,
    run_fusion_independent,
    run_once,
    run_single,
)
from .simulate import (
    BirthConfig,
    Rect,
    Scan,
    ScenarioConfig,
    SensorConfig,
    build_birth_mixture,
    cv_process_noise,
    cv_transition,
    generate_truth,
    ignorance_mixture,
    position_observation,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliPossState",
    "DetectionPossibility",
    "Estimate",
    "MeasurementModel",
    "MotionModel",
    "ReductionConfig",
    "TransitionPossibilityMatrix",
    "extract",
    "predict",
    "probability_interval_to_possibility",
    "reduce",
    "update",
    "ConfigError",
    "ExperimentConfig",
    "default_experiment",
    "load_experiment",
    "parse_experiment",
    "serialize_experiment",
    "FusionResult",
    "fuse_chernoff",
    "fuse_independent",
    "select_omega",
    "selftest",
    "GaussianMaxMixture",
    "sup_linear_gaussian_product",
    "AggregateResult",
    "RunRecord",
    "SeriesTrack",
    "ospa",
    "ExperimentResult",
    "NumericsError",
    "run_fusion_dependent",
    "run_fusion_independent",
    "run_once",
    "run_single",
    "BirthConfig",
    "Rect",
    "Scan",
    "ScenarioConfig",
    "SensorConfig",
    "build_birth_mixture",
    "cv_process_noise",
    "cv_transition",
    "generate_truth",
    "ignorance_mixture",
    "position_observation",
    "__version__",
]
