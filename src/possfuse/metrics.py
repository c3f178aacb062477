"""Scoring: OSPA distance, per-run scores, and their Monte Carlo fold.

OSPA (Schuhmacher, Vo & Vo 2008) compares two point sets of possibly
different sizes.  With cutoff c and order p it is

    ( (1/n) * ( min_assignment sum min(c, d_ij)^p + c^p * (n - m) ) )^(1/p)

where m <= n are the two cardinalities.  This tracker reports at most one
estimate against at most one true target, so every set it scores holds 0
or 1 point, and there the metric has a closed form: 0 when both sets are
empty, c when one is, and min(c, |x - y|) for one point each, since the
power and root of p cancel on a single pair.  ospa computes that form
for one pair of sets and rejects a larger set; score_run computes it for
every (run, step) of a run at once, into one RunScores table, and
fold_scores adds the tables in run order.  Both take the capped distance
from _capped_distances, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bernoulli import Estimate

__all__ = [
    "ospa",
    "SeriesTrack",
    "RunRecord",
    "AggregateResult",
    "RunScores",
    "score_run",
    "fold_scores",
]

# State-vector indices holding the position coordinates (x, vx, y, vy).
POSITION_INDICES = (0, 2)


def _checked_cutoff(cutoff) -> float:
    cutoff = float(cutoff)
    if not 0.0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    return cutoff


def _capped_distances(x: np.ndarray, y: np.ndarray, cutoff: float) -> np.ndarray:
    """min(cutoff, |x - y|) for each row of two (n, dim) point arrays."""
    if x.shape != y.shape:
        raise ValueError(
            f"all points must share a dimension, got {x.shape[1:]} and {y.shape[1:]}"
        )
    d = x - y
    # vecdot matches the dot inside np.linalg.norm bit for bit.
    return np.minimum(cutoff, np.sqrt(np.vecdot(d, d)))


def ospa(X: Sequence, Y: Sequence, cutoff: float = 10.0, order: float = 1.0) -> float:
    """OSPA distance between two sets of at most one point each.

    Returns 0 when both sets are empty, the cutoff when one is, and
    min(cutoff, |x - y|) for one point each.  The order is checked but
    cancels: on a single pair its power and root undo each other.

    :param X: first set, a sequence of at most one coordinate vector
    :param Y: second set
    :param cutoff: cardinality penalty and distance saturation, finite and > 0
    :param order: exponent p, finite and >= 1
    """
    cutoff = _checked_cutoff(cutoff)
    order = float(order)
    if not 1.0 <= order < np.inf:
        raise ValueError(f"order must be finite and at least 1, got {order}")
    sets = []
    for name, points in (("X", X), ("Y", Y)):
        rows = [np.asarray(p, dtype=float).reshape(1, -1) for p in points]
        if len(rows) > 1:
            raise ValueError(f"{name} must hold at most one point, got {len(rows)}")
        if not all(np.isfinite(r).all() for r in rows):
            raise ValueError(f"{name} must hold finite points")
        sets.append(rows)
    xs, ys = sets
    if not (xs and ys):
        return cutoff if xs or ys else 0.0
    return float(_capped_distances(xs[0], ys[0], cutoff)[0])


@dataclass
class SeriesTrack:
    """Per-run history of one reported series (a filter or a fuser)."""

    estimates: list[Optional[Estimate]] = field(default_factory=list)
    q_absent: list[float] = field(default_factory=list)
    q_present: list[float] = field(default_factory=list)
    n_components: list[int] = field(default_factory=list)


@dataclass
class RunRecord:
    """Everything one Monte Carlo run contributes to the statistics."""

    truth_positions: list[Optional[np.ndarray]]
    series: dict[str, SeriesTrack]

    def __post_init__(self) -> None:
        steps = len(self.truth_positions)
        for name, track in self.series.items():
            if not (
                len(track.estimates)
                == len(track.q_absent)
                == len(track.q_present)
                == len(track.n_components)
                == steps
            ):
                raise ValueError(f"series {name!r} length does not match truth ({steps} steps)")

    @property
    def steps(self) -> int:
        return len(self.truth_positions)


@dataclass
class AggregateResult:
    """Per-step Monte Carlo means, keyed by series name.

    mean_trace entries are NaN at steps where no run reported an
    estimate; present_count says how many did.
    """

    runs: int
    steps: int
    series: tuple[str, ...]
    mean_ospa: dict[str, np.ndarray]
    mean_trace: dict[str, np.ndarray]
    present_count: dict[str, np.ndarray]
    mean_q_absent: dict[str, np.ndarray]
    mean_q_present: dict[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class RunScores:
    """What one run adds to the per-step sums: one score table.

    table is float64 of shape (5, series, steps), and its rows follow the
    CSV column order: the OSPA distance, the estimate's covariance trace
    (0 where there is no estimate), whether an estimate exists (1.0 or
    0.0), q_absent and q_present.  A pool worker returns these instead of
    the run's RunRecord.
    """

    series: tuple[str, ...]
    table: np.ndarray


def score_run(record: RunRecord, cutoff: float = 10.0) -> RunScores:
    """Score one run record into its RunScores table, for fold_scores.

    Truth and estimate sets hold at most one point each, so the OSPA of a
    step is min(cutoff, |t - e|) when both points exist, cutoff when one is
    missing, and 0 when both are: what ospa returns for the step's pair of
    sets, bit for bit.  The order cancels there, so none is taken here.
    """
    cutoff = _checked_cutoff(cutoff)
    names = tuple(record.series)
    table = np.zeros((5, len(names), record.steps))
    ospa, trace, present, q_absent, q_present = table
    has_truth = np.array([t is not None for t in record.truth_positions], dtype=bool)
    truth = [t for t in record.truth_positions if t is not None]
    for row, s in enumerate(names):
        track = record.series[s]
        has_est = np.array([e is not None for e in track.estimates], dtype=bool)
        est = [e for e in track.estimates if e is not None]
        ospa[row] = np.where(has_truth | has_est, cutoff, 0.0)
        present[row] = has_est
        q_absent[row] = track.q_absent
        q_present[row] = track.q_present
        if est:
            trace[row, has_est] = np.fromiter(
                (e.covariance.trace() for e in est), float, len(est)
            )
            both = has_truth & has_est
            if both.any():
                truth_xy = np.array(truth, dtype=float)[both[has_truth]]
                est_xy = np.array([e.mean for e in est])[both[has_est]][:, POSITION_INDICES]
                ospa[row, both] = _capped_distances(truth_xy, est_xy, cutoff)
    return RunScores(series=names, table=table)


def fold_scores(scores: Sequence[RunScores]) -> AggregateResult:
    """Fold per-run score tables into per-step means, in the order given.

    The fold adds the tables one run after another, so the result is
    bit-identical no matter how, or in which process, the runs were
    scored.  The presence row sums 1.0s, which is exact below 2**53 runs.
    """
    if not scores:
        raise ValueError("need at least one run record")
    names = scores[0].series
    total = np.zeros(scores[0].table.shape)
    for sc in scores:
        if sc.series != names or sc.table.shape != total.shape:
            raise ValueError("all run records must share steps and series")
        # A sum that starts at +0.0 is never -0.0, and adding 0.0 changes
        # no other value, so absent steps leave the trace sums' bits alone.
        total += sc.table

    n = len(scores)
    ospa, trace, count, q_absent, q_present = total
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_trace = np.where(count > 0, trace / np.maximum(count, 1), np.nan)

    def by_series(table: np.ndarray) -> dict[str, np.ndarray]:
        return dict(zip(names, table))

    return AggregateResult(
        runs=n,
        steps=total.shape[2],
        series=names,
        mean_ospa=by_series(ospa / n),
        mean_trace=by_series(mean_trace),
        present_count=by_series(count.astype(np.int64)),
        mean_q_absent=by_series(q_absent / n),
        mean_q_present=by_series(q_present / n),
    )
