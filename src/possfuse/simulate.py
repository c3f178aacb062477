"""Scenario simulation: truth trajectories, noisy scans, and birth mixtures.

Ground truth follows a nearly-constant-velocity model on a planar region,
with the state ordered (x, x_velocity, y, y_velocity) in km and km/s.
Each sensor reports position measurements corrupted by Gaussian noise and
mixed with uniformly scattered Poisson clutter.

Generation is a pure function of (configuration, seed).  Random streams
are split per purpose: the trajectory, the detection coin flips, the
measurement noise, the clutter, and the within-scan ordering each draw
from their own generator, so changing the clutter rate cannot perturb the
trajectory and vice versa.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .gaussmax import GaussianMaxMixture, _conditioned_covariance, _frozen, _readonly

__all__ = [
    "Rect",
    "SensorConfig",
    "ScenarioConfig",
    "Scan",
    "BirthConfig",
    "cv_transition",
    "cv_process_noise",
    "position_observation",
    "generate_truth",
    "generate_labeled_measurements",
    "ignorance_mixture",
    "build_birth_mixture",
]

# Sub-stream tags for per-purpose random generators.
_TRUTH, _DETECT, _NOISE, _CLUTTER, _ORDER = 0, 1, 2, 3, 4


def _check_int(name: str, value) -> None:
    """Reject a bool or non-integer value for the integer field name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_finite(name: str, value) -> None:
    """Reject a NaN or infinite value for the float field name."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), purpose)))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangular surveillance region, in km."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self) -> None:
        for name in ("xmin", "xmax", "ymin", "ymax"):
            _check_finite(name, getattr(self, name))
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError(f"region must have positive extent, got {self}")
        # The squared half extent of each axis is the ignorance mixture's
        # position variance.
        for axis, extent in (("x", self.width), ("y", self.height)):
            if not 0.0 < (extent / 2.0) * (extent / 2.0) < math.inf:
                raise ValueError(f"{axis} extent {extent!r} gives no positive finite position variance")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))


@dataclass(frozen=True)
class SensorConfig:
    """One sensor: true detection probability, noise variance (km^2) on
    each position axis, and mean clutter count per scan."""

    pd_true: float = 0.8
    noise_var: float = 2.0
    clutter_rate: float = 4.0

    def __post_init__(self) -> None:
        for name in ("pd_true", "noise_var", "clutter_rate"):
            _check_finite(name, getattr(self, name))
        if not (0.0 <= self.pd_true <= 1.0):
            raise ValueError(f"pd_true must lie in [0, 1], got {self.pd_true}")
        if self.noise_var <= 0.0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")
        if self.clutter_rate < 0.0:
            raise ValueError(f"clutter_rate must be nonnegative, got {self.clutter_rate}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full scenario description for a Monte Carlo run."""

    region: Rect = Rect(0.0, 60.0, 0.0, 60.0)
    steps: int = 50
    dt: float = 2.0
    psd: float = 1e-5
    initial_state: tuple[float, float, float, float] = (10.0, 0.3, 55.0, -0.35)
    birth_step: int = 1
    death_step: int = 50
    sensors: tuple[SensorConfig, ...] = (
        SensorConfig(pd_true=0.8),
        SensorConfig(pd_true=0.6),
    )

    def __post_init__(self) -> None:
        for name in ("steps", "birth_step", "death_step"):
            _check_int(name, getattr(self, name))
        for name in ("dt", "psd"):
            _check_finite(name, getattr(self, name))
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if not (1 <= self.birth_step <= self.death_step <= self.steps):
            raise ValueError(
                f"need 1 <= birth_step <= death_step <= steps, got "
                f"{self.birth_step}, {self.death_step}, {self.steps}"
            )
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.psd < 0.0:
            raise ValueError(f"psd must be nonnegative, got {self.psd}")
        # Truth sampling factorises the process noise when psd > 0.
        try:
            Q = cv_process_noise(self.dt, self.psd)
            if self.psd > 0.0:
                np.linalg.cholesky(Q)
            usable = np.isfinite(Q).all()
        except (OverflowError, np.linalg.LinAlgError):
            usable = False
        if not usable:
            raise ValueError(f"dt {self.dt!r} with psd {self.psd!r} gives a process noise "
                             "that overflows or has no Cholesky factor")
        if len(self.initial_state) != 4:
            raise ValueError("initial_state must have 4 entries (x, vx, y, vy)")
        for i, v in enumerate(self.initial_state):
            _check_finite(f"initial_state[{i}]", v)
        if not self.sensors:
            raise ValueError("at least one sensor is required")


def cv_transition(dt: float) -> np.ndarray:
    """Constant-velocity transition matrix for (x, vx, y, vy)."""
    return np.array(
        [
            [1.0, dt, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, dt],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def cv_process_noise(dt: float, psd: float) -> np.ndarray:
    """White-acceleration process noise for the constant-velocity model."""
    a = psd * dt**3 / 3.0
    b = psd * dt**2 / 2.0
    c = psd * dt
    return np.array(
        [
            [a, b, 0.0, 0.0],
            [b, c, 0.0, 0.0],
            [0.0, 0.0, a, b],
            [0.0, 0.0, b, c],
        ]
    )


def position_observation() -> np.ndarray:
    """Observation matrix picking the two position coordinates."""
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class Scan:
    """One sensor scan: unordered position measurements at one time step."""

    time_index: int
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2:
            raise ValueError(f"scan points must have shape (n, 2), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("scan points must be finite")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "time_index", int(self.time_index))


def generate_truth(cfg: ScenarioConfig, seed: int) -> list[Optional[np.ndarray]]:
    """Sampled target trajectory, indexed so entry k-1 is time step k.

    The state equals cfg.initial_state exactly at the birth step and is
    None outside [birth_step, death_step].  Propagation applies the
    constant-velocity model plus sampled process noise.
    """
    rng = _stream(seed, _TRUTH)
    F = cv_transition(cfg.dt)
    Q = cv_process_noise(cfg.dt, cfg.psd)
    L = np.linalg.cholesky(Q) if cfg.psd > 0.0 else np.zeros((4, 4))
    out: list[Optional[np.ndarray]] = [None] * cfg.steps
    x = np.array(cfg.initial_state, dtype=float)
    out[cfg.birth_step - 1] = x.copy()
    for step in range(cfg.birth_step + 1, cfg.death_step + 1):
        x = F @ x + L @ rng.standard_normal(4)
        out[step - 1] = x.copy()
    return out


def generate_labeled_measurements(
    truth: list[Optional[np.ndarray]],
    sensor: SensorConfig,
    region: Rect,
    seed: int,
) -> list[tuple[Scan, np.ndarray]]:
    """Scans plus a boolean clutter label per point (the labels feed scans.csv).

    At each step the target, when present, is detected with probability
    pd_true and observed at its position plus isotropic Gaussian noise;
    a Poisson number of clutter points is scattered uniformly over the
    region; the scan order is then shuffled so position in the scan
    carries no information.
    """
    H = position_observation()
    det_rng = _stream(seed, _DETECT)
    noise_rng = _stream(seed, _NOISE)
    clutter_rng = _stream(seed, _CLUTTER)
    order_rng = _stream(seed, _ORDER)
    sigma = float(np.sqrt(sensor.noise_var))
    out: list[tuple[Scan, np.ndarray]] = []
    for step, state in enumerate(truth, start=1):
        coin = det_rng.random()
        # The target's detection, if any, is row 0; clutter follows.
        parts: list[np.ndarray] = []
        if state is not None and coin < sensor.pd_true:
            parts.append((H @ state + sigma * noise_rng.standard_normal(2))[None, :])
        n_clutter = int(clutter_rng.poisson(sensor.clutter_rate))
        if n_clutter:
            cx = clutter_rng.uniform(region.xmin, region.xmax, size=n_clutter)
            cy = clutter_rng.uniform(region.ymin, region.ymax, size=n_clutter)
            parts.append(np.column_stack((cx, cy)))
        if parts:
            stacked = np.concatenate(parts)
            lab = np.ones(stacked.shape[0], dtype=bool)
            lab[: stacked.shape[0] - n_clutter] = False
            perm = order_rng.permutation(stacked.shape[0])
            out.append((Scan(step, stacked[perm]), lab[perm]))
        else:
            out.append((Scan(step, np.zeros((0, 2))), np.zeros(0, dtype=bool)))
    return out


@dataclass(frozen=True)
class BirthConfig:
    """Covariance parameters for measurement-driven birth components.

    pos_var: position variance (km^2) around a previous-scan measurement,
    sensible default is the sensor noise variance plus one.
    vel_var: velocity variance ((km/s)^2) about the zero velocity prior.

    The constants every birth mixture is built from (the conditioned
    component covariance and the ignorance mixture) are computed on first
    use and kept on the instance.
    """

    region: Rect
    pos_var: float = 3.0
    vel_var: float = 0.25

    def __post_init__(self) -> None:
        for name in ("pos_var", "vel_var"):
            _check_finite(name, getattr(self, name))
        if self.pos_var <= 0.0 or self.vel_var <= 0.0:
            raise ValueError("birth variances must be positive")

    @cached_property
    def covariance(self) -> np.ndarray:
        """The conditioned covariance every measurement-driven component
        shares."""
        return _frozen(
            _conditioned_covariance(np.diag([self.pos_var, self.vel_var, self.pos_var, self.vel_var]))
        )

    @cached_property
    def ignorance(self) -> GaussianMaxMixture:
        """The region-covering mixture birth falls back to."""
        return ignorance_mixture(self.region, self.vel_var)


def ignorance_mixture(region: Rect, vel_var: float = 0.25) -> GaussianMaxMixture:
    """Single weight-1 component covering the whole region.

    Centred on the region with a position standard deviation of half the
    extent per axis, meaning any in-region location is plausible.
    """
    cx, cy = region.center
    half_w = region.width / 2.0
    half_h = region.height / 2.0
    cov = np.diag([half_w**2, vel_var, half_h**2, vel_var])
    return GaussianMaxMixture(
        weights=np.array([1.0]),
        means=np.array([[cx, 0.0, cy, 0.0]]),
        covariances=cov[None, :, :],
    )


def build_birth_mixture(
    previous_scan: Optional[Scan], birth_cfg: BirthConfig
) -> GaussianMaxMixture:
    """Birth mixture from the previous scan, one component per measurement.

    Each measurement z spawns a component with mean (z_x, 0, z_y, 0) and
    diagonal covariance built from pos_var and vel_var; all weights are 1,
    since any one of these explanations is fully plausible as the birth
    location.  When there is no previous scan, or it is empty, the single
    region-covering ignorance component of birth_cfg is returned (the same
    mixture each time) so that birth is never impossible.
    """
    if previous_scan is None or previous_scan.points.shape[0] == 0:
        return birth_cfg.ignorance
    pts = previous_scan.points
    n = pts.shape[0]
    means = np.zeros((n, 4))
    means[:, 0] = pts[:, 0]
    means[:, 2] = pts[:, 1]
    return GaussianMaxMixture._derived(
        np.ones(n), means, np.broadcast_to(birth_cfg.covariance, (n, 4, 4))
    )
