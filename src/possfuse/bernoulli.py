"""Bernoulli filtering with Gaussian max mixtures.

The filter tracks at most one target whose existence is itself uncertain.
Its state is a triple: a possibility q_absent that no target exists, a
possibility q_present that one does, and a spatial Gaussian max mixture
describing where it is if present.  Both binary possibilities live in
[0, 1] with max(q_absent, q_present) = 1, so total ignorance is the valid
state q_absent = q_present = 1; there is no additivity constraint to
repair after every step.

The recursion alternates:

* predict: binary possibilities combine with a two-state transitional
  possibility matrix by max-product; the spatial mixture is the pointwise
  max of a measurement-driven birth branch and a survival branch pushed
  through the linear motion model.
* update: each measurement either confirms the target (a Kalman-updated
  component per measurement and prior component, weighted by a clutter
  ratio) or everything was clutter (a non-detection copy of the prior
  components).  The normaliser theta is exact because the supremum of a
  linear-Gaussian product has a closed form, so no integral is needed.

Detection is described by a pair of possibilities rather than one
probability: an interval [low, high] of plausible detection probabilities
maps to a detection possibility high and a non-detection possibility
1 - low, rescaled so the larger is 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussmax import (
    NORM_TOL,
    SYMMETRY_TOL,
    GaussianMaxMixture,
    _conditioned_covariance,
    _log_sup_product,
    _readonly,
)
from .simulate import Rect, Scan, _check_finite, _check_int

__all__ = [
    "TransitionPossibilityMatrix",
    "DetectionPossibility",
    "MotionModel",
    "MeasurementModel",
    "BernoulliPossState",
    "ReductionConfig",
    "Estimate",
    "probability_interval_to_possibility",
    "predict",
    "update",
    "reduce",
    "extract",
]

# Most entries (rows x components) in one block of reduce's Mahalanobis
# table; a mixture of up to 256 components fits in one block.
MERGE_TABLE_BUDGET = 2**16


@dataclass(frozen=True, eq=False)
class TransitionPossibilityMatrix:
    """Two-state transitional possibility matrix for target existence.

    Entries are possibilities of moving between "absent" and "present"
    over one step.  Each row describes the transitions out of one state
    and must have max 1: at least one outcome per origin is fully
    plausible.
    """

    stay_absent: float
    become_present: float
    become_absent: float
    stay_present: float

    def __post_init__(self) -> None:
        vals = (self.stay_absent, self.become_present, self.become_absent, self.stay_present)
        for v in vals:
            if not (0.0 <= float(v) <= 1.0):
                raise ValueError(f"transition possibilities must lie in [0, 1], got {v}")
        if abs(max(self.stay_absent, self.become_present) - 1.0) > NORM_TOL:
            raise ValueError("row for the absent state must have max 1")
        if abs(max(self.become_absent, self.stay_present) - 1.0) > NORM_TOL:
            raise ValueError("row for the present state must have max 1")

    @classmethod
    def from_matrix(cls, phi) -> "TransitionPossibilityMatrix":
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {phi.shape}")
        return cls(
            stay_absent=float(phi[0, 0]),
            become_present=float(phi[0, 1]),
            become_absent=float(phi[1, 0]),
            stay_present=float(phi[1, 1]),
        )


@dataclass(frozen=True, eq=False)
class DetectionPossibility:
    """Possibilities of detection and non-detection for a present target."""

    nondetection: float
    detection: float

    def __post_init__(self) -> None:
        for v in (self.nondetection, self.detection):
            if not (0.0 < float(v) <= 1.0):
                raise ValueError(f"detection possibilities must lie in (0, 1], got {v}")
        if abs(max(self.nondetection, self.detection) - 1.0) > NORM_TOL:
            raise ValueError("max of detection and non-detection possibility must be 1")


def probability_interval_to_possibility(low: float, high: float) -> DetectionPossibility:
    """Turn an interval of plausible detection probabilities into possibilities.

    A detection probability known only to lie in [low, high] supports
    detection with possibility high and non-detection with possibility
    1 - low; the pair is rescaled so its max is exactly 1.  Total
    ignorance [0, 1] maps to (1, 1); a sharp probability p maps to
    (1 - p, p) rescaled.
    """
    low = float(low)
    high = float(high)
    if not (0.0 <= low <= high <= 1.0):
        raise ValueError(f"need 0 <= low <= high <= 1, got [{low}, {high}]")
    d_det = high
    d_non = 1.0 - low
    top = max(d_det, d_non)
    return DetectionPossibility(nondetection=d_non / top, detection=d_det / top)


@dataclass(frozen=True, eq=False)
class MotionModel:
    """Linear motion with Gaussian possibilistic process deviation.

    A surviving component (w, m, P) becomes (w, F m, Q + F P F').  Q only
    needs to be positive semidefinite; a zero Q means deterministic
    motion.
    """

    transition: np.ndarray
    process_noise: np.ndarray

    def __post_init__(self) -> None:
        F = np.asarray(self.transition, dtype=float)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {F.shape}")
        Q = np.asarray(self.process_noise, dtype=float)
        if Q.shape != F.shape:
            raise ValueError(f"process noise shape {Q.shape} does not match transition {F.shape}")
        if not np.isfinite(F).all():
            raise ValueError("transition matrix must be finite")
        if not np.isfinite(Q).all():
            raise ValueError("process noise must be finite")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > SYMMETRY_TOL * scale:
            raise ValueError("process noise must be symmetric")
        Q = 0.5 * (Q + Q.T)
        if np.linalg.eigvalsh(Q)[0] < -SYMMETRY_TOL * scale:
            raise ValueError("process noise must be positive semidefinite")
        object.__setattr__(self, "transition", _readonly(F))
        object.__setattr__(self, "process_noise", _readonly(Q))

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Linear observation with Gaussian possibilistic noise and uniform clutter.

    clutter_rate is the mean number of clutter points per scan; clutter
    positions are uniform over the surveillance region, so the clutter
    ratio appearing in update weights is area / clutter_rate for every
    measurement.
    """

    observation: np.ndarray
    noise: np.ndarray
    clutter_rate: float
    region: Rect

    def __post_init__(self) -> None:
        H = np.asarray(self.observation, dtype=float)
        if H.ndim != 2:
            raise ValueError(f"observation matrix must be 2-d, got shape {H.shape}")
        if not np.isfinite(H).all():
            raise ValueError("observation matrix must be finite")
        R = _conditioned_covariance(self.noise, dim=H.shape[0])
        if not 0.0 < float(self.clutter_rate) < np.inf:
            raise ValueError(f"clutter rate must be positive and finite, got {self.clutter_rate}")
        object.__setattr__(self, "observation", _readonly(H))
        object.__setattr__(self, "noise", _readonly(R))
        object.__setattr__(self, "clutter_rate", float(self.clutter_rate))

    @property
    def state_dim(self) -> int:
        return self.observation.shape[1]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]

    def clutter_ratio(self) -> float:
        """1 / (clutter_rate * clutter density), with uniform density 1 / area."""
        return self.region.area / self.clutter_rate


@dataclass(frozen=True, eq=False)
class BernoulliPossState:
    """Joint possibilistic description of target existence and location.

    max(q_absent, q_present) must be 1 and the spatial mixture must be
    normalised.  Both are enforced here for a state a caller builds; an
    operation builds its states through _derived, valid by construction.
    """

    q_absent: float
    q_present: float
    spatial: GaussianMaxMixture

    def __post_init__(self) -> None:
        q0 = float(self.q_absent)
        q1 = float(self.q_present)
        for v in (q0, q1):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"existence possibilities must lie in [0, 1], got {v}")
        if abs(max(q0, q1) - 1.0) > NORM_TOL:
            raise ValueError(f"max of existence possibilities must be 1, got {max(q0, q1)}")
        if not self.spatial.is_normalized:
            raise ValueError("spatial mixture must be normalised (max weight 1)")
        object.__setattr__(self, "q_absent", q0)
        object.__setattr__(self, "q_present", q1)

    @classmethod
    def _derived(cls, q_absent: float, q_present: float, spatial: GaussianMaxMixture) -> "BernoulliPossState":
        """The state an operation computed: an existence pair it divided by
        its own max and a mixture from GaussianMaxMixture._derived, whose
        largest weight is exactly 1.  Both are valid by construction, so
        the checks of __post_init__ are not run again."""
        state = object.__new__(cls)
        object.__setattr__(state, "q_absent", q_absent)
        object.__setattr__(state, "q_present", q_present)
        object.__setattr__(state, "spatial", spatial)
        return state


@dataclass(frozen=True)
class ReductionConfig:
    """Mixture reduction thresholds.

    prune_ratio removes components lighter than prune_ratio times the max
    weight; merge_mahalanobis merges components closer than this distance
    in the metric of the heavier one; max_components caps the survivor
    count by descending weight.  The filter's reduce applies all three.
    Fusion reads prune_ratio and max_components only: a fused state is the
    leading part of its product-table row, whose pairs are stored
    heaviest first, so it keeps pairs by weight and never merges, and the
    merge radius applies to the filter alone.
    """

    prune_ratio: float = 1e-3
    merge_mahalanobis: float = 2.0
    max_components: int = 100

    def __post_init__(self) -> None:
        if not (0.0 <= self.prune_ratio < 1.0):
            raise ValueError(f"prune_ratio must lie in [0, 1), got {self.prune_ratio}")
        _check_finite("merge_mahalanobis", self.merge_mahalanobis)
        if self.merge_mahalanobis < 0.0:
            raise ValueError(f"merge_mahalanobis must be nonnegative, got {self.merge_mahalanobis}")
        _check_int("max_components", self.max_components)
        if self.max_components < 1:
            raise ValueError(f"max_components must be at least 1, got {self.max_components}")


@dataclass(frozen=True, eq=False)
class Estimate:
    """Point estimate extracted from a state: one mean and covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        # A read-only float array, such as a row of a mixture, is kept as
        # it is; anything else is copied and frozen.
        for name, shaped in (("mean", np.atleast_1d), ("covariance", np.atleast_2d)):
            a = shaped(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, _readonly(a) if a.flags.writeable else a)


def _normalized_pair(a: float, b: float) -> tuple[float, float]:
    top = max(a, b)
    if not (top > 0.0):
        raise ValueError("existence possibilities collapsed to zero; state is degenerate")
    return a / top, b / top


def _stage_for(stage: Optional[tuple], *source):
    """The entry of a handed-in (source, entry) stage when it was computed
    from these very objects, else None.  An entry computed from several
    objects names them as a tuple, in the order given here."""
    if stage is None:
        return None
    handed = stage[0] if len(source) > 1 else (stage[0],)
    return stage[1] if len(handed) == len(source) and all(map(operator.is_, handed, source)) else None


def _propagated(lanes: list[np.ndarray], motion: MotionModel) -> list[np.ndarray]:
    """F P F' + Q, conditioned, for each lane's stack of covariances P.

    The survival branch of predict for many states in one stack.  Every
    product acts on one matrix, so each lane's result has the bits it
    would have in a call of its own."""
    F, Q = motion.transition, motion.process_noise
    P = np.concatenate(lanes)
    moved = _conditioned_covariance(np.einsum("ij,njk,lk->nil", F, P, F) + Q, terms=((F, P), (None, Q)))
    return np.split(moved, np.cumsum([len(lane) for lane in lanes[:-1]]))


def _detected(lanes: list[tuple], H: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The detection branch of update for many states at once.

    lanes holds one (P, R, means, points) per state: its components'
    covariances, its measurement noise, its components' means and its
    scan's points.  Per component: the innovation covariance
    S = H P H' + R, the Kalman gain K = P H' inv(S) and the Joseph-form
    updated covariance, conditioned.  Per (state, point, component) row of
    one flat stack, with no padding: the innovation nu = z - H m, the log
    supremum -0.5 nu' inv(S) nu (_log_sup_product, one right-hand side per
    row) and the Kalman-updated mean m + K nu.  Returns per state its
    (P_upd, log_sup, means), of shapes (components, dim, dim),
    (points, components) and (points * components, dim), point-major as
    update lays them out.  Every product is an einsum over one row's own
    matrices, R included, not a BLAS product, whose bits depend on the
    stack, so a state's entry has the bits it has in a call of its own."""
    P = np.concatenate([lane[0] for lane in lanes])
    means = np.concatenate([lane[2] for lane in lanes])
    points = np.concatenate([lane[3] for lane in lanes])
    n_comp = np.array([len(lane[0]) for lane in lanes])
    n_meas = np.array([len(lane[3]) for lane in lanes])
    R = np.repeat(np.stack([lane[1] for lane in lanes]), n_comp, axis=0)
    S = np.einsum("ij,njk,lk->nil", H, P, H) + R
    S = 0.5 * (S + S.swapaxes(1, 2))
    # Kalman gain via solves: K = P H' inv(S), using (inv(S) H P)' with P, S symmetric.
    K = np.linalg.solve(S, np.einsum("ij,njk->nik", H, P)).swapaxes(1, 2)
    IKH = np.eye(P.shape[-1]) - np.einsum("nij,jk->nik", K, H)
    # Joseph form keeps the updated covariance symmetric positive definite;
    # it equals P - P H' inv(S) H P in exact arithmetic.
    P_upd = np.einsum("nij,njk,nlk->nil", IKH, P, IKH) + np.einsum("nij,njk,nlk->nil", K, R, K)
    P_upd = _conditioned_covariance(0.5 * (P_upd + P_upd.swapaxes(1, 2)), terms=((IKH, P), (K, R)))
    bounds = np.concatenate([[0], np.cumsum(n_comp * n_meas)])
    lane = np.repeat(np.arange(len(lanes)), n_comp * n_meas)
    # Row k of a state: point k // n_comp, component k % n_comp.
    k = np.arange(bounds[-1]) - bounds[lane]
    comp = (np.cumsum(n_comp) - n_comp)[lane] + k % n_comp[lane]
    point = (np.cumsum(n_meas) - n_meas)[lane] + k // n_comp[lane]
    nu = points[point] - np.einsum("ij,nj->ni", H, means)[comp]
    log_sup = _log_sup_product(nu, S[comp])
    det_means = means[comp] + np.einsum("kij,kj->ki", K[comp], nu)
    return [
        (P_lane, log_sup[a:b].reshape(-1, c), det_means[a:b])
        for P_lane, a, b, c in zip(
            np.split(P_upd, np.cumsum(n_comp)[:-1]), bounds[:-1].tolist(), bounds[1:].tolist(), n_comp.tolist()
        )
    ]


def predict(
    state: BernoulliPossState,
    motion: MotionModel,
    phi: TransitionPossibilityMatrix,
    birth: GaussianMaxMixture,
    *,
    staged: Optional[tuple] = None,
) -> BernoulliPossState:
    """One prediction step of the Bernoulli recursion.

    Existence:  q_absent' = max(stay_absent q0, become_absent q1) and
    q_present' = max(become_present q0, stay_present q1).  Their max is
    exactly 1 when each row of phi has max exactly 1, else within NORM_TOL.

    Spatial: the birth mixture scaled by become_present * q0 competes by
    pointwise max with the survival branch, in which every component is
    pushed through the motion model; _derived renormalises the union,
    dividing out exactly q_present'.  When q_present' is 0, the state is
    (1, 0) and its spatial part is the survival branch at unit scale.

    staged may hand in this state's entry of a _propagated call over many
    states, the survival branch's covariances, as (state.spatial, entry).
    It is read only when the mixture named is this state's own; otherwise
    predict runs _propagated on its state alone, so the keyword never
    changes a result, only the cost.
    """
    mix = state.spatial
    if motion.dim != mix.dim:
        raise ValueError(f"motion model dimension {motion.dim} does not match state {mix.dim}")
    if birth.dim != mix.dim:
        raise ValueError(f"birth mixture dimension {birth.dim} does not match state {mix.dim}")
    if not birth.is_normalized:
        raise ValueError("birth mixture must be normalised")
    q0p = max(phi.stay_absent * state.q_absent, phi.become_absent * state.q_present)
    q1p = max(phi.become_present * state.q_absent, phi.stay_present * state.q_present)
    birth_scale = phi.become_present * state.q_absent
    survive_scale = phi.stay_present * state.q_present
    w_parts: list[np.ndarray] = []
    m_parts: list[np.ndarray] = []
    P_parts: list[np.ndarray] = []
    # With both scales 0 presence is impossible, and the survival branch at
    # unit scale is the spatial part of the state (1, 0).
    if survive_scale > 0.0 or birth_scale == 0.0:
        F = motion.transition
        w_parts.append((survive_scale or 1.0) * mix.weights)
        m_parts.append(mix.means @ F.T)
        moved = _stage_for(staged, mix)
        P_parts.append(_propagated([mix.covariances], motion)[0] if moved is None else moved)
    if birth_scale > 0.0:
        w_parts.append(birth_scale * birth.weights)
        m_parts.append(birth.means)
        P_parts.append(birth.covariances)
    spatial = GaussianMaxMixture._derived(
        np.concatenate(w_parts), np.concatenate(m_parts), np.concatenate(P_parts)
    )
    return BernoulliPossState._derived(q0p, q1p, spatial)


def update(
    pred: BernoulliPossState,
    scan: Scan,
    meas: MeasurementModel,
    det: DetectionPossibility,
    *,
    staged: Optional[tuple] = None,
) -> BernoulliPossState:
    """One measurement update of the Bernoulli recursion.

    The normaliser is theta = max(nondetection, detection * max over
    measurements z and components i of clutter_ratio * w_i *
    N(z; H m_i, H P_i H' + R)), the closed-form supremum of each
    linear-Gaussian product; an empty scan gives theta = nondetection.
    Existence divides (q_absent', theta * q_present') by its max.  The
    posterior mixture is the pointwise max of a non-detection branch,
    which keeps every prior component scaled by nondetection / theta, and
    one Kalman-updated component per (prior component, measurement) pair
    weighted by detection * clutter_ratio * N(z; eta_i, S_i) * w_i / theta.
    Because theta is the exact supremum of those unscaled weights, the
    posterior max weight lands at 1 up to rounding; _derived renormalises
    it to exactly 1.

    staged may hand in this state's entry of a _detected call over many
    states, as ((pred.spatial, scan), entry).  It is read only when the
    two objects named are this state's own mixture and this very scan;
    otherwise update runs _detected on its state alone, so the keyword
    never changes a result, only the cost.
    """
    mix = pred.spatial
    if meas.state_dim != mix.dim:
        raise ValueError("measurement model does not match state dimension")
    d0 = det.nondetection
    d1 = det.detection
    points = scan.points
    if points.shape[1] != meas.meas_dim:
        raise ValueError(
            f"scan points have dimension {points.shape[1]}, model expects {meas.meas_dim}"
        )

    P = mix.covariances
    m = mix.means
    n_comp, nx = m.shape
    n_meas = points.shape[0]
    entry = _stage_for(staged, mix, scan)
    P_upd, log_sup, det_means = _detected([(P, meas.noise, m, points)], meas.observation)[0] if entry is None else entry

    # log[clutter_ratio * w_i * N(z; H m_i, S_i)] for every (z, component).
    table = math.log(meas.clutter_ratio()) + np.log(mix.weights) + log_sup
    # An empty scan has no table entries, so theta is nondetection.
    theta = max(d0, d1 * math.exp(float(table.max(initial=-np.inf))))
    q0, q1 = _normalized_pair(pred.q_absent, theta * pred.q_present)

    nd_w = (d0 / theta) * mix.weights
    det_w = np.exp(math.log(d1) - math.log(theta) + table)

    weights = np.concatenate([nd_w, det_w.reshape(-1)])
    means = np.concatenate([m, det_means])
    covs = np.empty((n_comp * (1 + n_meas), nx, nx))
    covs[:n_comp] = P
    covs[n_comp:].reshape(n_meas, n_comp, nx, nx)[...] = P_upd
    spatial = GaussianMaxMixture._derived(weights, means, covs)
    return BernoulliPossState._derived(q0, q1, spatial)


def _distances(
    means: np.ndarray, covs: np.ndarray, heads: np.ndarray, start: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distances from heads, each in its own metric.

    Row r holds the distances from component heads[r] of the stack
    (means, covs) to the size[r] components from start[r] on, then zeros up
    to the largest size: a padded column repeats the head.  One Cholesky
    factorisation of the heads and one multi-column solve serve every row,
    and each column of the solve has the bits it has among any other
    columns, so a row's distances do not depend on the rest of the table.
    """
    col = np.arange(size.max())
    idx = np.where(col < size[:, None], start[:, None] + col, heads[:, None])
    diff = means[idx] - means[heads, None, :]
    y = np.linalg.solve(np.linalg.cholesky(covs[heads]), diff.swapaxes(1, 2))
    return (y * y).sum(axis=1)


def _survivors(mixtures: list[GaussianMaxMixture], config: ReductionConfig) -> list[tuple]:
    """What reduce's walk reads of each mixture, for many at once.

    Per mixture (w, means, covs, order, table): the components the prune
    keeps (weight at least prune_ratio times the largest), their indices
    heaviest first with ties in index order, and, when more than one
    survives and all fit one window of MERGE_TABLE_BUDGET entries, the
    _distances table of every survivor from each head in that order; else
    table is None.  One pass prunes and sorts every mixture, and one
    _distances call serves every table.
    """
    sizes = np.array([m.n_components for m in mixtures])
    weights = np.concatenate([m.weights for m in mixtures])
    lane = np.repeat(np.arange(len(mixtures)), sizes)
    tops = np.maximum.reduceat(weights, np.cumsum(sizes) - sizes)
    kept = np.flatnonzero(weights >= config.prune_ratio * tops[lane])
    w, lane = weights[kept], lane[kept]
    means = np.concatenate([m.means for m in mixtures])[kept]
    covs = np.concatenate([m.covariances for m in mixtures])[kept]
    counts = np.bincount(lane, minlength=len(mixtures))
    starts = np.cumsum(counts) - counts
    # Sorted by mixture first, so lane[j] is also the mixture of order[j].
    order = np.lexsort((-w, lane))
    fits = (counts > 1) & (counts * counts <= MERGE_TABLE_BUDGET)
    rows = fits[lane]
    table = _distances(means, covs, order[rows], starts[lane[rows]], counts[lane[rows]]) if rows.any() else None
    local = (order - starts[lane]).tolist()
    out, row = [], 0
    for a, n, fit in zip(starts.tolist(), counts.tolist(), fits.tolist()):
        b = a + n
        out.append((w[a:b], means[a:b], covs[a:b], local[a:b], table[row : row + n, :n] if fit else None))
        row += n if fit else 0
    return out


def reduce(
    mixture: GaussianMaxMixture, config: ReductionConfig, *, staged: Optional[tuple] = None
) -> GaussianMaxMixture:
    """Prune, merge, and cap a mixture, then renormalise.

    Pruning removes components lighter than prune_ratio times the max
    weight, so the heaviest component can never be pruned.  Merging walks
    components from heaviest to lightest; each head absorbs everything
    within merge_mahalanobis of it, measured with the head's covariance.
    A merged cluster keeps the head's weight, which preserves the mixture
    supremum, and takes the weight-proportional moment-matched mean and
    covariance.  Finally at most max_components clusters survive, kept by
    descending weight, and _derived rescales them so the max is exactly 1.
    The distances are computed for one window of candidate heads at a
    time, at most MERGE_TABLE_BUDGET entries, so memory stays bounded
    however many components come in.

    staged may hand in this mixture's entry of a _survivors call over many
    mixtures, as ((mixture, config), entry): its survivors, their order
    and the first window's table.  It is read only when the two objects
    named are this very mixture and config; otherwise reduce runs
    _survivors on its mixture alone, so the keyword never changes a
    result, only the cost.
    """
    entry = _stage_for(staged, mixture, config)
    w, means, covs, order, table = _survivors([mixture], config)[0] if entry is None else entry
    n = w.size
    if n == 1:
        # A lone survivor is its own cluster.
        return GaussianMaxMixture._derived(w, means, covs)

    # A row of the table: which components lie within merge_mahalanobis of
    # the head in the head's metric.  The greedy walk reads heads in weight
    # order, in windows of at most `rows` of them, and computes rows only
    # for heads still alive when their window starts; it stops at
    # max_components heads, since the cap drops every later cluster.  A
    # table handed in by _survivors is the only window.
    # A product, not a power, so that a huge radius squares to inf.
    radius2 = config.merge_mahalanobis * float(config.merge_mahalanobis)
    rows = max(1, MERGE_TABLE_BUDGET // n)
    alive = [True] * n
    heads: list[int] = []
    clusters: list[list[int]] = []
    for start in range(0, n, rows):
        block = [h for h in order[start : start + rows] if alive[h]]
        if not block:
            continue
        if table is None:
            sel = np.array(block)
            window = _distances(means, covs, sel, np.zeros_like(sel), np.full_like(sel, n))
        else:
            window = table
        for head, reach in zip(block, (window <= radius2).tolist()):
            if not alive[head]:
                continue
            cluster = [j for j, close in enumerate(reach) if close and alive[j]]
            for j in cluster:
                alive[j] = False
            heads.append(head)
            clusters.append(cluster)
            if len(heads) == config.max_components:
                break
        if len(heads) == config.max_components:
            break
    # Clusters were emitted in descending head weight, so the cap kept
    # the heaviest ones and the order is deterministic.  Untouched
    # components keep their exact mean and covariance.
    w_out = w[heads]
    m_out = means[heads]
    P_out = covs[heads]
    merged = [i for i, cluster in enumerate(clusters) if len(cluster) > 1]
    if merged:
        P_merged = []
        for i in merged:
            cluster = clusters[i]
            cw = w[cluster]
            cm = means[cluster]
            cP = covs[cluster]
            total = cw.sum()
            mbar = (cw[:, None] * cm).sum(axis=0) / total
            dd = cm - mbar
            Pbar = (
                cw[:, None, None] * (cP + dd[:, :, None] * dd[:, None, :])
            ).sum(axis=0) / total
            m_out[i] = mbar
            P_merged.append(Pbar)
        P_out[merged] = _conditioned_covariance(np.stack(P_merged))
    return GaussianMaxMixture._derived(w_out, m_out, P_out)


def extract(state: BernoulliPossState) -> Optional[Estimate]:
    """Report the heaviest component when presence is strictly more
    plausible than absence; ties favour absence and return None."""
    if state.q_present > state.q_absent:
        i = state.spatial.argmax_component()
        # The mixture's rows are frozen and checked, so they are taken as
        # they are, without Estimate's conversion.
        estimate = object.__new__(Estimate)
        object.__setattr__(estimate, "mean", state.spatial.means[i])
        object.__setattr__(estimate, "covariance", state.spatial.covariances[i])
        return estimate
    return None
