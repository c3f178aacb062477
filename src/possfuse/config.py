"""Experiment configuration: defaults, strict JSON parsing, round-tripping.

A configuration file is a JSON object mirroring ExperimentConfig.  Every
section is optional and falls back to the built-in two-sensor benchmark
scenario, but unknown keys anywhere are errors, reported with their full
path, so typos cannot silently disable a setting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .bernoulli import (
    ReductionConfig,
    TransitionPossibilityMatrix,
    probability_interval_to_possibility,
)
from .fusion import parse_omega_strategy
from .simulate import ScenarioConfig, _check_finite, _check_int

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

class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # A pool worker hands its error to the parent by pickle, which
        # rebuilds it from these arguments.
        return type(self), (self.path, self.message)


@dataclass(frozen=True)
class BirthSettings:
    """Birth-component covariance settings for the filter.

    pos_var None means "derive from the sensor": noise variance plus one.
    """

    pos_var: Optional[float] = None
    vel_var: float = 0.25

    def __post_init__(self) -> None:
        if self.pos_var is not None:
            _check_finite("pos_var", self.pos_var)
        _check_finite("vel_var", self.vel_var)
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
        # The filter's own constructors hold the rules for both settings;
        # building them here applies those rules before any run starts.
        try:
            probability_interval_to_possibility(*self.pd_interval)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pd_interval: {exc}") from None
        try:
            TransitionPossibilityMatrix.from_matrix(self.phi)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"phi: {exc}") from None


@dataclass(frozen=True)
class FusionSettings:
    omega_strategy: str = "fixed(0.5)"

    def __post_init__(self) -> None:
        parse_omega_strategy(self.omega_strategy)


@dataclass(frozen=True)
class MetricSettings:
    ospa_cutoff: float = 10.0

    def __post_init__(self) -> None:
        _check_finite("ospa_cutoff", self.ospa_cutoff)
        if self.ospa_cutoff <= 0.0:
            raise ValueError(f"ospa_cutoff must be positive, got {self.ospa_cutoff}")


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
        _check_int("runs", self.runs)
        _check_int("master_seed", self.master_seed)
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")


def default_experiment() -> ExperimentConfig:
    """The built-in benchmark: 60x60 km region, 50 steps of 2 s, one
    target born at step 1, two sensors with detection probabilities 0.8
    and 0.6, and 4 uniform clutter points per scan on average."""
    return ExperimentConfig()


# --- strict parsing ---------------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Repeated(dict):
    """A JSON object that repeats key; _parse rejects it at its path."""


def _json_object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        obj = _Repeated(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _parse(obj: Any, tp: Any, default: Any, path: str) -> Any:
    """Parse the JSON value obj as type tp, reporting errors at path.

    Dataclass sections start from default (or the class defaults when
    default is None) and change only the keys the document gives.
    """
    if isinstance(obj, _Repeated):
        raise ConfigError(_join(path, obj.key), "repeated key")
    if is_dataclass(tp):
        return _parse_section(obj, tp, default, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        if obj is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _parse(obj, inner, default, path)
    if origin is tuple:
        if not isinstance(obj, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {type(obj).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(obj)
        elif len(obj) != len(args):
            raise ConfigError(path, f"expected {len(args)} entries, got {len(obj)}")
        return tuple(_parse(v, t, None, f"{path}[{i}]") for i, (v, t) in enumerate(zip(obj, args)))
    if tp is float:
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ConfigError(path, f"expected a number, got {type(obj).__name__}")
        try:
            value = float(obj)
        except OverflowError:
            raise ConfigError(path, "expected a finite number, got an integer no float holds") from None
        if not math.isfinite(value):
            raise ConfigError(path, f"expected a finite number, got {value}")
        return value
    if tp is int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ConfigError(path, f"expected an integer, got {type(obj).__name__}")
        return obj
    if tp is str:
        if not isinstance(obj, str):
            raise ConfigError(path, f"expected a string, got {type(obj).__name__}")
        return obj
    raise TypeError(f"no parser for {tp!r} at {path}")


def _parse_section(obj: Any, cls: type, default: Any, path: str) -> Any:
    if not isinstance(obj, dict):
        raise ConfigError(path or "<config>", f"expected an object, got {type(obj).__name__}")
    base = cls() if default is None else default
    hints = get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(_join(path, unknown[0]), "unknown key")
    changes = {k: _parse(v, hints[k], getattr(base, k), _join(path, k)) for k, v in obj.items()}
    try:
        return replace(base, **changes)
    except ValueError as exc:
        # The section's __post_init__ holds every range check.  Blame the
        # first field it rejects on its own with the same message; a
        # constraint between fields belongs to the section.
        for key, value in changes.items():
            try:
                replace(base, **{key: value})
            except ValueError as own:
                if str(own) == str(exc):
                    raise ConfigError(_join(path, key), str(own)) from None
        raise ConfigError(path or "<config>", str(exc)) from None


def parse_experiment(data: Any) -> ExperimentConfig:
    """Parse a JSON-compatible mapping into an ExperimentConfig.

    Missing sections and keys keep the benchmark defaults; unknown keys,
    wrong types, non-finite numbers and out-of-range values raise
    ConfigError with the offending field's path.
    """
    return _parse(data, ExperimentConfig, None, "")


def serialize_experiment(cfg: Any) -> Any:
    """Plain-JSON form of a configuration, or of any part of one;
    parse_experiment inverts it for a whole configuration."""
    if is_dataclass(cfg):
        return {f.name: serialize_experiment(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, tuple):
        return [serialize_experiment(v) for v in cfg]
    return cfg


def load_experiment(path) -> ExperimentConfig:
    """Read and parse a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from None
    return parse_experiment(data)
