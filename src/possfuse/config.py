"""Experiment configuration: defaults, strict JSON parsing, round-tripping.

A configuration file is a JSON object mirroring ExperimentConfig.  Every
section is optional and falls back to the built-in two-sensor benchmark
scenario, but unknown keys anywhere are errors, reported with their full
path, so typos cannot silently disable a setting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .bernoulli import ReductionConfig
from .fusion import parse_omega_strategy
from .simulate import Rect, ScenarioConfig, SensorConfig

__all__ = [
    "ConfigError",
    "BirthSettings",
    "FilterSettings",
    "FusionSettings",
    "MetricSettings",
    "ExperimentConfig",
    "default_experiment",
    "parse_experiment",
    "serialize_experiment",
    "load_experiment",
]

FUSION_MODES = ("chernoff", "independent", "both")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class BirthSettings:
    """Birth-component covariance settings for the filter.

    pos_var None means "derive from the sensor": noise variance plus one.
    """

    pos_var: Optional[float] = None
    vel_var: float = 0.25

    def __post_init__(self) -> None:
        if self.pos_var is not None and self.pos_var <= 0.0:
            raise ValueError(f"pos_var must be positive, got {self.pos_var}")
        if self.vel_var <= 0.0:
            raise ValueError(f"vel_var must be positive, got {self.vel_var}")


@dataclass(frozen=True)
class FilterSettings:
    """Assumed-model settings shared by every filter instance."""

    pd_interval: tuple[float, float] = (0.5, 1.0)
    phi: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.01), (0.01, 1.0))
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    birth: BirthSettings = field(default_factory=BirthSettings)

    def __post_init__(self) -> None:
        lo, hi = self.pd_interval
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"pd_interval must satisfy 0 <= low <= high <= 1, got {self.pd_interval}")
        if len(self.phi) != 2 or any(len(row) != 2 for row in self.phi):
            raise ValueError("phi must be a 2x2 matrix")
        for i, row in enumerate(self.phi):
            if any(not (0.0 <= v <= 1.0) for v in row):
                raise ValueError(f"phi row {i} entries must lie in [0, 1], got {row}")
            if max(row) != 1.0:
                raise ValueError(f"phi row {i} must have max 1, got {row}")


@dataclass(frozen=True)
class FusionSettings:
    mode: str = "both"
    omega_strategy: str = "fixed(0.5)"

    def __post_init__(self) -> None:
        if self.mode not in FUSION_MODES:
            raise ValueError(f"mode must be one of {FUSION_MODES}, got {self.mode!r}")
        parse_omega_strategy(self.omega_strategy)


@dataclass(frozen=True)
class MetricSettings:
    ospa_cutoff: float = 10.0
    ospa_order: float = 1.0

    def __post_init__(self) -> None:
        if self.ospa_cutoff <= 0.0:
            raise ValueError(f"ospa_cutoff must be positive, got {self.ospa_cutoff}")
        if self.ospa_order < 1.0:
            raise ValueError(f"ospa_order must be at least 1, got {self.ospa_order}")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    filter: FilterSettings = field(default_factory=FilterSettings)
    fusion: FusionSettings = field(default_factory=FusionSettings)
    metrics: MetricSettings = field(default_factory=MetricSettings)
    runs: int = 100
    master_seed: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if int(self.runs) < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if int(self.master_seed) < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")


def default_experiment() -> ExperimentConfig:
    """The built-in benchmark: 60x60 km region, 50 steps of 2 s, one
    target born at step 1, two sensors with detection probabilities 0.8
    and 0.6, and 4 uniform clutter points per scan on average."""
    return ExperimentConfig()


# --- strict parsing ---------------------------------------------------------


def _as_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(obj).__name__}")
    value = float(obj)
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    return value


def _integer(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _string(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _number_list(obj: Any, path: str, length: Optional[int] = None) -> list[float]:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {type(obj).__name__}")
    if length is not None and len(obj) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(obj)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _build(path: str, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_region(obj: Any, path: str) -> Rect:
    obj = _as_mapping(obj, path)
    allowed = {"xmin", "xmax", "ymin", "ymax"}
    _check_keys(obj, allowed, path)
    kwargs = {k: _number(obj[k], f"{path}.{k}") for k in obj}
    return _build(path, Rect, **{**{"xmin": 0.0, "xmax": 60.0, "ymin": 0.0, "ymax": 60.0}, **kwargs})


def _parse_sensor(obj: Any, path: str) -> SensorConfig:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"pd_true", "noise_var", "clutter_rate"}, path)
    kwargs = {k: _number(obj[k], f"{path}.{k}") for k in obj}
    return _build(path, SensorConfig, **kwargs)


def _parse_scenario(obj: Any, path: str) -> ScenarioConfig:
    obj = _as_mapping(obj, path)
    allowed = {
        "region", "steps", "dt", "psd", "initial_state", "birth_step",
        "death_step", "sensors", "p_birth", "p_survive",
    }
    _check_keys(obj, allowed, path)
    kwargs: dict[str, Any] = {}
    if "region" in obj:
        kwargs["region"] = _parse_region(obj["region"], f"{path}.region")
    for key in ("dt", "psd", "p_birth", "p_survive"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"{path}.{key}")
    for key in ("steps", "birth_step", "death_step"):
        if key in obj:
            kwargs[key] = _integer(obj[key], f"{path}.{key}")
    if "initial_state" in obj:
        kwargs["initial_state"] = tuple(
            _number_list(obj["initial_state"], f"{path}.initial_state", length=4)
        )
    if "sensors" in obj:
        sensors = obj["sensors"]
        if not isinstance(sensors, list):
            raise ConfigError(f"{path}.sensors", "expected a list")
        kwargs["sensors"] = tuple(
            _parse_sensor(s, f"{path}.sensors[{i}]") for i, s in enumerate(sensors)
        )
    return _build(path, ScenarioConfig, **kwargs)


def _parse_reduction(obj: Any, path: str) -> ReductionConfig:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"prune_ratio", "merge_mahalanobis", "max_components"}, path)
    kwargs: dict[str, Any] = {}
    if "prune_ratio" in obj:
        kwargs["prune_ratio"] = _number(obj["prune_ratio"], f"{path}.prune_ratio")
    if "merge_mahalanobis" in obj:
        kwargs["merge_mahalanobis"] = _number(obj["merge_mahalanobis"], f"{path}.merge_mahalanobis")
    if "max_components" in obj:
        kwargs["max_components"] = _integer(obj["max_components"], f"{path}.max_components")
    return _build(path, ReductionConfig, **kwargs)


def _parse_birth(obj: Any, path: str) -> BirthSettings:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"pos_var", "vel_var"}, path)
    kwargs: dict[str, Any] = {}
    if "pos_var" in obj:
        kwargs["pos_var"] = None if obj["pos_var"] is None else _number(obj["pos_var"], f"{path}.pos_var")
    if "vel_var" in obj:
        kwargs["vel_var"] = _number(obj["vel_var"], f"{path}.vel_var")
    return _build(path, BirthSettings, **kwargs)


def _parse_filter(obj: Any, path: str) -> FilterSettings:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"pd_interval", "phi", "reduction", "birth"}, path)
    kwargs: dict[str, Any] = {}
    if "pd_interval" in obj:
        kwargs["pd_interval"] = tuple(_number_list(obj["pd_interval"], f"{path}.pd_interval", length=2))
    if "phi" in obj:
        rows = obj["phi"]
        if not isinstance(rows, (list, tuple)) or len(rows) != 2:
            raise ConfigError(f"{path}.phi", "expected a 2x2 matrix")
        kwargs["phi"] = tuple(
            tuple(_number_list(row, f"{path}.phi[{i}]", length=2)) for i, row in enumerate(rows)
        )
    if "reduction" in obj:
        kwargs["reduction"] = _parse_reduction(obj["reduction"], f"{path}.reduction")
    if "birth" in obj:
        kwargs["birth"] = _parse_birth(obj["birth"], f"{path}.birth")
    return _build(path, FilterSettings, **kwargs)


def _parse_fusion(obj: Any, path: str) -> FusionSettings:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"mode", "omega_strategy"}, path)
    kwargs: dict[str, Any] = {}
    if "mode" in obj:
        mode = _string(obj["mode"], f"{path}.mode")
        if mode not in FUSION_MODES:
            raise ConfigError(f"{path}.mode", f"must be one of {FUSION_MODES}, got {mode!r}")
        kwargs["mode"] = mode
    if "omega_strategy" in obj:
        strategy = _string(obj["omega_strategy"], f"{path}.omega_strategy")
        try:
            parse_omega_strategy(strategy)
        except ValueError as exc:
            raise ConfigError(f"{path}.omega_strategy", str(exc)) from None
        kwargs["omega_strategy"] = strategy
    return _build(path, FusionSettings, **kwargs)


def _parse_metrics(obj: Any, path: str) -> MetricSettings:
    obj = _as_mapping(obj, path)
    _check_keys(obj, {"ospa_cutoff", "ospa_order"}, path)
    kwargs = {k: _number(obj[k], f"{path}.{k}") for k in obj}
    return _build(path, MetricSettings, **kwargs)


def parse_experiment(data: Any) -> ExperimentConfig:
    """Parse a JSON-compatible mapping into an ExperimentConfig.

    Missing sections use the benchmark defaults; unknown keys raise
    ConfigError with the offending path.
    """
    data = _as_mapping(data, "<config>")
    allowed = {"scenario", "filter", "fusion", "metrics", "runs", "master_seed", "output_dir"}
    _check_keys(data, allowed, "")
    kwargs: dict[str, Any] = {}
    if "scenario" in data:
        kwargs["scenario"] = _parse_scenario(data["scenario"], "scenario")
    if "filter" in data:
        kwargs["filter"] = _parse_filter(data["filter"], "filter")
    if "fusion" in data:
        kwargs["fusion"] = _parse_fusion(data["fusion"], "fusion")
    if "metrics" in data:
        kwargs["metrics"] = _parse_metrics(data["metrics"], "metrics")
    if "runs" in data:
        runs = _integer(data["runs"], "runs")
        if runs < 1:
            raise ConfigError("runs", f"must be at least 1, got {runs}")
        kwargs["runs"] = runs
    if "master_seed" in data:
        seed = _integer(data["master_seed"], "master_seed")
        if seed < 0:
            raise ConfigError("master_seed", f"must not be negative, got {seed}")
        kwargs["master_seed"] = seed
    if "output_dir" in data:
        kwargs["output_dir"] = _string(data["output_dir"], "output_dir")
    return _build("<config>", ExperimentConfig, **kwargs)


def serialize_experiment(cfg: ExperimentConfig) -> dict:
    """Plain-JSON form of a configuration; parse_experiment inverts it."""
    sc = cfg.scenario
    return {
        "scenario": {
            "region": {
                "xmin": sc.region.xmin,
                "xmax": sc.region.xmax,
                "ymin": sc.region.ymin,
                "ymax": sc.region.ymax,
            },
            "steps": sc.steps,
            "dt": sc.dt,
            "psd": sc.psd,
            "initial_state": list(sc.initial_state),
            "birth_step": sc.birth_step,
            "death_step": sc.death_step,
            "sensors": [
                {"pd_true": s.pd_true, "noise_var": s.noise_var, "clutter_rate": s.clutter_rate}
                for s in sc.sensors
            ],
            "p_birth": sc.p_birth,
            "p_survive": sc.p_survive,
        },
        "filter": {
            "pd_interval": list(cfg.filter.pd_interval),
            "phi": [list(row) for row in cfg.filter.phi],
            "reduction": {
                "prune_ratio": cfg.filter.reduction.prune_ratio,
                "merge_mahalanobis": cfg.filter.reduction.merge_mahalanobis,
                "max_components": cfg.filter.reduction.max_components,
            },
            "birth": {
                "pos_var": cfg.filter.birth.pos_var,
                "vel_var": cfg.filter.birth.vel_var,
            },
        },
        "fusion": {
            "mode": cfg.fusion.mode,
            "omega_strategy": cfg.fusion.omega_strategy,
        },
        "metrics": {
            "ospa_cutoff": cfg.metrics.ospa_cutoff,
            "ospa_order": cfg.metrics.ospa_order,
        },
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "output_dir": cfg.output_dir,
    }


def load_experiment(path) -> ExperimentConfig:
    """Read and parse a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from None
    return parse_experiment(data)
