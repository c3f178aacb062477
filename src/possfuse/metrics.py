"""Scoring: OSPA distance, per-run scores, and their Monte Carlo fold.

OSPA compares two point sets of possibly different sizes.  With cutoff c
and order p it is

    ( (1/n) * ( min_assignment sum min(c, d_ij)^p + c^p * (n - m) ) )^(1/p)

where m <= n are the two cardinalities.  Missed or spurious points cost
the cutoff; matched points cost their distance, saturated at the cutoff.
Comparing two empty sets gives 0 by convention.

The optimal assignment is solved exactly by dynamic programming over
column subsets.  That is deliberate: tests check it against brute-force
permutation search, so the solver must not itself be a permutation
search.  This tracker reports at most one estimate against at most one
true target, so score_run scores every (run, step) with the single-pair
closed form over whole arrays, into one RunScores table per run, and
fold_scores adds the tables in run order.  ospa serves general sets and
is the reference that closed form is tested against.
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

# Largest set size the exact assignment DP accepts (2^8 subsets).
ASSIGNMENT_LIMIT = 8
# State-vector indices holding the position coordinates (x, vx, y, vy).
POSITION_INDICES = (0, 2)


def _min_cost_assignment(costs: np.ndarray) -> float:
    """Exact minimum-cost row-to-column assignment, m rows <= n columns.

    dp[mask] is the cheapest way to assign the first popcount(mask) rows
    to the column subset mask; each step adds one row, so every candidate
    total accumulates costs in ascending row order.
    """
    m, n = costs.shape
    if m > n:
        raise ValueError("assignment expects no more rows than columns")
    if n > ASSIGNMENT_LIMIT:
        raise ValueError(f"assignment solver handles at most {ASSIGNMENT_LIMIT} points")
    dp = [np.inf] * (1 << n)
    dp[0] = 0.0
    for mask in range(1, 1 << n):
        row = mask.bit_count() - 1
        if row >= m:
            continue
        best = np.inf
        rest = mask
        while rest:
            bit = rest & -rest
            j = bit.bit_length() - 1
            prev = dp[mask ^ bit]
            if prev < np.inf:
                cand = prev + costs[row, j]
                if cand < best:
                    best = cand
            rest ^= bit
        dp[mask] = best
    return min(dp[mask] for mask in range(1 << n) if mask.bit_count() == m)


def _checked_cutoff(cutoff) -> float:
    cutoff = float(cutoff)
    if not 0.0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    return cutoff


def _sorted_points(points: list[np.ndarray]) -> list[tuple[float, ...]]:
    return sorted(tuple(p.tolist()) for p in points)


def ospa(X: Sequence, Y: Sequence, cutoff: float = 10.0, order: float = 1.0) -> float:
    """OSPA distance between two point sets.

    :param X: first set, any sequence of coordinate vectors
    :param Y: second set
    :param cutoff: cardinality penalty and distance saturation, finite and > 0
    :param order: exponent p, finite and >= 1
    """
    cutoff = _checked_cutoff(cutoff)
    order = float(order)
    if not 1.0 <= order < np.inf:
        raise ValueError(f"order must be finite and at least 1, got {order}")
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in X]
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in Y]
    for name, points in (("X", xs), ("Y", ys)):
        if not all(np.isfinite(p).all() for p in points):
            raise ValueError(f"{name} must hold finite points")
    if len(xs) == 0 and len(ys) == 0:
        return 0.0
    # The smaller set gives the rows; of two equal sizes, the one whose
    # sorted points compare lexicographically smaller.  The assignment adds
    # costs in row order, so a rule that ignores argument order keeps the
    # distance bitwise symmetric.  A single pair costs the same either way.
    if len(xs) > len(ys) or (
        len(xs) == len(ys) > 1 and _sorted_points(xs) > _sorted_points(ys)
    ):
        xs, ys = ys, xs
    n = len(ys)
    if len(xs) == 0:
        return cutoff
    dims = {v.size for v in xs} | {v.size for v in ys}
    if len(dims) != 1:
        raise ValueError(f"all points must share a dimension, got sizes {sorted(dims)}")
    costs = np.empty((len(xs), n))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            costs[i, j] = min(cutoff, float(np.linalg.norm(x - y))) ** order
    localization = _min_cost_assignment(costs)
    total = localization + (cutoff**order) * (n - len(xs))
    return float((total / n) ** (1.0 / order))


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
    missing, and 0 when both are.  The order p of ospa only weighs an
    assignment between several points; for one pair its power and root
    cancel, so no order is taken here, and each value equals what ospa
    returns for the pair at order 1.
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
                if truth_xy.shape != est_xy.shape:
                    raise ValueError(
                        "all points must share a dimension, got "
                        f"{truth_xy.shape[1:]} and {est_xy.shape[1:]}"
                    )
                d = truth_xy - est_xy
                # vecdot matches the dot inside np.linalg.norm bit for bit.
                ospa[row, both] = np.minimum(cutoff, np.sqrt(np.vecdot(d, d)))
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
