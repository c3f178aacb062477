"""Scoring: OSPA distance, covariance traces, and Monte Carlo aggregation.

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
true target, so aggregate scores every (run, step) with the single-pair
closed form over whole arrays; ospa serves general sets and is the
reference that closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bernoulli import Estimate

__all__ = [
    "ospa",
    "covariance_trace",
    "SeriesTrack",
    "RunRecord",
    "AggregateResult",
    "aggregate",
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


def _sorted_points(points: list[np.ndarray]) -> list[tuple[float, ...]]:
    return sorted(tuple(p.tolist()) for p in points)


def ospa(X: Sequence, Y: Sequence, cutoff: float = 10.0, order: float = 1.0) -> float:
    """OSPA distance between two point sets.

    :param X: first set, any sequence of coordinate vectors
    :param Y: second set
    :param cutoff: cardinality penalty and distance saturation, > 0
    :param order: exponent p >= 1
    """
    cutoff = float(cutoff)
    order = float(order)
    if cutoff <= 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if order < 1.0:
        raise ValueError(f"order must be at least 1, got {order}")
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in X]
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in Y]
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


def covariance_trace(estimate: Estimate) -> float:
    """Trace of an estimate's covariance."""
    if estimate is None:
        raise ValueError("cannot take the covariance trace of an absent estimate")
    return float(np.trace(estimate.covariance))


@dataclass
class SeriesTrack:
    """Per-run history of one reported series (a filter or a fuser)."""

    estimates: list[Optional[Estimate]] = field(default_factory=list)
    q_absent: list[float] = field(default_factory=list)
    q_present: list[float] = field(default_factory=list)
    n_components: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.estimates)


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


def aggregate(
    records: Sequence[RunRecord], cutoff: float = 10.0, order: float = 1.0
) -> AggregateResult:
    """Fold run records into per-step means, in run order.

    The fold is a plain ordered sum over the records as given, so the
    result is bit-identical no matter how the runs were computed.

    Truth and estimate sets hold at most one point each, so the OSPA of a
    (run, step) is min(cutoff, |t - e|) when both points exist (the
    order-p power and root of a single term), cutoff when one is missing,
    and 0 when both are; each value equals what ospa returns for the pair.
    """
    if not records:
        raise ValueError("need at least one run record")
    steps = records[0].steps
    names = tuple(records[0].series.keys())
    for rec in records:
        if rec.steps != steps or tuple(rec.series.keys()) != names:
            raise ValueError("all run records must share steps and series")
    cutoff = float(cutoff)
    order = float(order)
    if cutoff <= 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if order < 1.0:
        raise ValueError(f"order must be at least 1, got {order}")

    ospa_sum = {s: np.zeros(steps) for s in names}
    trace_sum = {s: np.zeros(steps) for s in names}
    count = {s: np.zeros(steps, dtype=np.int64) for s in names}
    q0_sum = {s: np.zeros(steps) for s in names}
    q1_sum = {s: np.zeros(steps) for s in names}
    positions = list(POSITION_INDICES)

    for rec in records:
        has_truth = np.array([t is not None for t in rec.truth_positions], dtype=bool)
        truth = [t for t in rec.truth_positions if t is not None]
        for s in names:
            track = rec.series[s]
            has_est = np.array([e is not None for e in track.estimates], dtype=bool)
            present = [e for e in track.estimates if e is not None]
            dist = np.where(has_truth | has_est, cutoff, 0.0)
            if present:
                trace_sum[s][has_est] += np.fromiter(
                    (e.covariance.trace() for e in present), float, len(present)
                )
                both = has_truth & has_est
                if both.any():
                    truth_xy = np.array(truth, dtype=float)[both[has_truth]]
                    est_xy = np.array([e.mean for e in present])[both[has_est]][:, positions]
                    if truth_xy.shape != est_xy.shape:
                        raise ValueError(
                            "all points must share a dimension, got "
                            f"{truth_xy.shape[1:]} and {est_xy.shape[1:]}"
                        )
                    d = truth_xy - est_xy
                    # vecdot matches the dot inside np.linalg.norm and
                    # Python's pow matches ospa's scalar arithmetic, bit
                    # for bit; numpy's vectorised power does not.
                    dist[both] = [
                        (min(cutoff, x) ** order) ** (1.0 / order)
                        for x in np.sqrt(np.vecdot(d, d)).tolist()
                    ]
            ospa_sum[s] += dist
            count[s] += has_est
            q0_sum[s] += track.q_absent
            q1_sum[s] += track.q_present

    n = len(records)
    mean_trace = {}
    for s in names:
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_trace[s] = np.where(
                count[s] > 0, trace_sum[s] / np.maximum(count[s], 1), np.nan
            )
        ospa_sum[s] /= n
        q0_sum[s] /= n
        q1_sum[s] /= n
    return AggregateResult(
        runs=n,
        steps=steps,
        series=names,
        mean_ospa=ospa_sum,
        mean_trace=mean_trace,
        present_count=count,
        mean_q_absent=q0_sum,
        mean_q_present=q1_sum,
    )
