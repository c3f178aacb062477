"""Fusing two Bernoulli possibilistic states in closed form.

Two fusion rules are provided.  Chernoff fusion raises the two posteriors
to exponents (1 - omega, omega) and renormalises; it is idempotent, so
fusing a state with itself changes nothing, which makes it safe when the
two sources share information in unknown ways (for example two trackers
fed by the same sensor).  Independent-product fusion multiplies the
posteriors outright; precisions add, so it is sharper, and it is only
calibrated when the sources are truly independent.

For Gaussian max mixtures both rules stay in closed form: every pair of
components fuses into one Gaussian component whose weight carries a
separation factor, the fused existence possibilities are the matching
max-combinations, and the overall normaliser is exactly the largest
cross-component weight.  No grids, no sampling.

A step fuses the same pair of states up to three ways: the min-trace
search over OMEGA_GRID, Chernoff fusion at one omega and the independent
product.  All three read one product table of the pair, which holds every
row they need.  One builder makes every table: in a run, _prefilled
builds the tables of consecutive steps' pairs in groups, one kernel call
per group, and hands them over in _TABLES only while that group is being
fused.  Any other call, such as a direct select_omega or fuse_* call,
builds its own table as a batch of one and keeps nothing.

A fused state is reported, never fed back to a filter, so fusion never
merges components: a reduction keeps pairs by weight alone, down to its
prune ratio and up to its cap, and the fused top component stays the
exact fusion.  The builder computes fused moments only for the pairs a
fused state can keep, stores each row's kept pairs heaviest first and
takes each row's top trace for the whole group at once, so every fusion,
reduced or not, is a leading slice of its row and the search compares
precomputed traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .bernoulli import BernoulliPossState, ReductionConfig
from .gaussmax import (
    WEIGHT_UNDERFLOW,
    GaussianMaxMixture,
    _checked_weights,
    _conditioned_covariance,
    _cross_arrays,
    _stacked_components,
    sup_linear_gaussian_product,
)

__all__ = [
    "FusionResult",
    "fuse_chernoff",
    "fuse_independent",
    "select_omega",
    "parse_omega_strategy",
    "OMEGA_GRID",
    "selftest",
]

# Candidate exponents for the min-trace search.
OMEGA_GRID = tuple(np.round(np.linspace(0.05, 0.95, 19), 2).tolist())
# Fused traces within this relative distance of the smallest count as tied,
# so rounding noise cannot pick among exponents that fuse alike (as every
# exponent does when a state is fused with itself).
TRACE_TIE_RTOL = 1e-9
# Most (exponent row, component pair) combinations one _cross_arrays call
# computes.  Its temporaries grow with their number, so the tables of a
# group of steps are built together only up to this many, and a larger
# table is built in blocks of rows.
SEARCH_BLOCK_PAIRS = 1024
# Exponents of independent-product fusion.  Every product table holds this
# row, so a step's independent fusion reuses the table its Chernoff fusion
# or omega search built.
INDEPENDENT = (1.0, 1.0)
# The rows the min-trace search reads: the grid, then the independent row.
_SEARCH_ROWS = [(1.0 - omega, omega) for omega in OMEGA_GRID] + [INDEPENDENT]


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Fused state plus diagnostic constants.

    normalizer is the global constant dividing the unnormalised fused
    existence pair; alpha is the largest unnormalised fused spatial
    weight, which equals the supremum of the pointwise fused mixture.
    """

    state: BernoulliPossState
    normalizer: float
    alpha: float


@dataclass(frozen=True, eq=False)
class _ProductTable:
    """Every fused component pair of two mixtures at several exponent rows.

    Row index[row] fuses at exponents row = (e1, e2).  alpha =
    exp(log_alpha[r]) is the row's largest pair weight, and the row keeps
    the pairs whose weight divided by alpha _surviving keeps at floor.
    kept_weights, means and covs hold every kept pair of every row,
    conditioned and checked, and bounds[r]:bounds[r + 1] slices row r's,
    heaviest first, ties in pair order ((i, j) in C order).  head_trace[r]
    is the covariance trace of the first of them, the row's top component.
    """

    index: dict
    floor: float
    log_alpha: np.ndarray
    bounds: list
    kept_weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    head_trace: np.ndarray


def _cuts(sizes: list) -> list:
    """Where consecutive groups of sizes start, then len(sizes): each group
    sums to at most SEARCH_BLOCK_PAIRS, or is one larger size alone."""
    cuts, filled = [], 0
    for k, n in enumerate(sizes):
        if not cuts or filled + n > SEARCH_BLOCK_PAIRS:
            cuts.append(k)
            filled = 0
        filled += n
    return cuts + [len(sizes)]


def _floor(reduction: Optional[ReductionConfig]) -> float:
    """The relative weight below which a fused pair is dropped: the prune
    ratio of reduction, but never below WEIGHT_UNDERFLOW, so that a ratio
    of 0 cannot keep a weight that underflowed to 0."""
    return WEIGHT_UNDERFLOW if reduction is None else max(reduction.prune_ratio, WEIGHT_UNDERFLOW)


def _product_tables(
    pairs: list, rows: list, floor: float = WEIGHT_UNDERFLOW
) -> list[_ProductTable]:
    """The product table of every mixture pair (a, b) in pairs, each with
    every row of rows, built together and kept at floor.

    Each distinct mixture's covariances are inverted once.  The
    (pair, row, component pair) combinations, in that order, go through
    one _cross_arrays call per block of whole rows holding at most
    SEARCH_BLOCK_PAIRS combinations (a larger row is a block of its own),
    which bounds the kernel's temporaries however many pairs there are.
    The kernel computes moments only for the pairs kept at floor; each
    block's kept pairs are checked (weights before covariances) and
    conditioned in one pass, and a failing check in any block fails the
    whole build.  Then one lexsort puts every row's kept pairs heaviest
    first, ties in pair order, and one trace gives every row's top
    covariance trace.  A table equals a build of its pair alone, in any
    blocks, bit for bit: the kernel, the row maxima, exp, the checks and
    the sort act per combination, per row and per matrix.
    """
    distinct = list({id(m): m for pair in pairs for m in pair}.values())
    first = dict(zip(map(id, distinct), accumulate([0, *(m.n_components for m in distinct)])))
    components = _stacked_components(distinct)
    # One unit per (pair, row) of n1 * n2 combinations, (i, j) in C order.
    n_rows = len(rows)
    n1, n2, first1, first2 = np.repeat(
        [(a.n_components, b.n_components, first[id(a)], first[id(b)]) for a, b in pairs],
        n_rows, axis=0,
    ).T
    size = n1 * n2
    stop = np.cumsum(size)
    begin = stop - size
    local = np.arange(stop[-1]) - np.repeat(begin, size)
    cols = np.repeat(n2, size)
    i1 = np.repeat(first1, size) + local // cols
    i2 = np.repeat(first2, size) + local % cols
    e1, e2 = (np.repeat(np.tile(e, len(pairs)), size) for e in np.array(rows).T)
    parts = []
    cuts = _cuts(size.tolist())
    for u0, u1 in zip(cuts, cuts[1:]):
        lo, hi = begin[u0], stop[u1 - 1]
        log_alpha, weights, kept, means, covs = _cross_arrays(
            components, e1[lo:hi], i1[lo:hi], e2[lo:hi], i2[lo:hi], size[u0:u1], floor
        )
        kept_weights = _checked_weights(weights[kept])
        parts.append((log_alpha, kept, kept_weights, means, _conditioned_covariance(covs)))
    log_alpha, kept, kept_weights, means, covs = (np.concatenate(p) for p in zip(*parts))
    # A unit's kept pairs are contiguous and start at starts[u]; sorting by
    # unit first keeps them there, each unit's heaviest first.
    starts = np.concatenate([[0], np.cumsum(kept)])[np.append(begin, stop[-1])]
    unit = np.repeat(np.arange(size.size), np.diff(starts))
    order = np.lexsort((-kept_weights, unit))
    kept_weights, means, covs = kept_weights[order], means[order], covs[order]
    head_trace = np.trace(covs[starts[:-1]], axis1=-2, axis2=-1)
    index = {row: r for r, row in enumerate(rows)}
    tables = []
    for p in range(len(pairs)):
        units = slice(p * n_rows, (p + 1) * n_rows)
        bounds = starts[units.start : units.stop + 1]
        base, top = int(bounds[0]), int(bounds[-1])
        tables.append(_ProductTable(
            index=index,
            floor=floor,
            log_alpha=log_alpha[units],
            bounds=(bounds - base).tolist(),
            kept_weights=kept_weights[base:top],
            means=means[base:top],
            covs=covs[base:top],
            head_trace=head_trace[units],
        ))
    return tables


# The product tables of the group of pairs _prefilled is fusing, keyed by
# the pair (a, b) of mixtures.  Empty outside a run's fusion loop.
_TABLES: dict = {}


def _table(
    a: GaussianMaxMixture, b: GaussianMaxMixture, rows: list, floor: Optional[float]
) -> _ProductTable:
    """The product table of (a, b) with every row of rows: the one filed
    in _TABLES when it has those rows at floor, or else one built here and
    kept nowhere.  floor None takes a filed table at any floor, since
    every row keeps its top pair at all of them, and builds one at
    WEIGHT_UNDERFLOW.
    """
    table = _TABLES.get((a, b))
    if (
        table is None
        or not table.index.keys() >= set(rows)
        or floor is not None and table.floor != floor
    ):
        (table,) = _product_tables([(a, b)], rows, WEIGHT_UNDERFLOW if floor is None else floor)
    return table


def _prefilled(pairs: list, omega: Optional[float], reduction: Optional[ReductionConfig]):
    """Yield each state pair (a, b) of pairs in order, its product table
    filed in _TABLES with the rows that fusing the pair reads: the search
    rows when omega is None (min-trace), otherwise omega's row and the
    independent row, kept at reduction's floor.  select_omega,
    fuse_chernoff and fuse_independent then find the table instead of
    building it.

    The tables are built a group of consecutive pairs at a time, each
    group holding at most SEARCH_BLOCK_PAIRS (row, component pair)
    combinations, or one larger pair alone: one kernel call per group,
    and no more memory than one table of that size.  A group's tables
    leave _TABLES once its pairs are fused, or when the caller closes the
    generator mid-group.  A group whose build fails files no table, so
    each of its pairs builds its own when fused and raises that build's
    error.
    """
    if omega is None:
        rows = _SEARCH_ROWS
    elif 1.0 - omega == 1.0 or omega == 1.0:
        # fuse_chernoff returns an input verbatim and reads no table.
        rows = [INDEPENDENT]
    else:
        rows = [(1.0 - omega, omega), INDEPENDENT]
    floor = _floor(reduction)
    mixtures = [(a.spatial, b.spatial) for a, b in pairs]
    cuts = _cuts([len(rows) * a.n_components * b.n_components for a, b in mixtures])
    for lo, hi in zip(cuts, cuts[1:]):
        group = mixtures[lo:hi]
        try:
            _TABLES.update(zip(group, _product_tables(group, rows, floor)))
        except (ValueError, ArithmeticError, MemoryError):
            pass
        try:
            yield from pairs[lo:hi]
        finally:
            for key in group:
                _TABLES.pop(key, None)


def _fused_mixture(
    a: GaussianMaxMixture,
    b: GaussianMaxMixture,
    e1: float,
    e2: float,
    reduction: Optional[ReductionConfig] = None,
) -> tuple[GaussianMaxMixture, float]:
    """Fused mixture, normalised; returns (mixture, log_alpha).

    The row is read from _table with the independent row beside it, so a
    step's Chernoff and independent fusions share one table.  The mixture
    is a copy of the row's leading pairs, heaviest first: every pair not
    below reduction's floor (WEIGHT_UNDERFLOW without one), and at most
    max_components of them under a reduction.
    """
    row = (e1, e2)
    table = _table(a, b, [row] if row == INDEPENDENT else [row, INDEPENDENT], _floor(reduction))
    r = table.index[row]
    lo, hi = table.bounds[r], table.bounds[r + 1]
    if reduction is not None:
        hi = min(hi, lo + reduction.max_components)
    mixture = GaussianMaxMixture._derived(
        table.kept_weights[lo:hi].copy(), table.means[lo:hi].copy(), table.covs[lo:hi].copy()
    )
    return mixture, float(table.log_alpha[r])


def _check_pair(a: BernoulliPossState, b: BernoulliPossState) -> None:
    """Reject a pair that no exponents in (0, 1] can fuse."""
    if a.spatial.dim != b.spatial.dim:
        raise ValueError(
            f"states have different spatial dimensions: {a.spatial.dim} and {b.spatial.dim}"
        )
    # With positive exponents a fused existence cell is zero exactly when
    # one of its inputs is, so whether both cells vanish does not depend on
    # the exponents.
    if min(a.q_absent, b.q_absent) == 0.0 and min(a.q_present, b.q_present) == 0.0:
        raise ValueError("fusion inputs are in total conflict; every possibility is zero")


def _fuse(
    a: BernoulliPossState,
    b: BernoulliPossState,
    e1: float,
    e2: float,
    reduction: Optional[ReductionConfig],
) -> FusionResult:
    _check_pair(a, b)
    mixture, log_alpha = _fused_mixture(a.spatial, b.spatial, e1, e2, reduction)

    def _log(q: float) -> float:
        return math.log(q) if q > 0.0 else -math.inf

    log_absent = e1 * _log(a.q_absent) + e2 * _log(b.q_absent)
    log_present = e1 * _log(a.q_present) + e2 * _log(b.q_present) + log_alpha
    log_norm = max(log_absent, log_present)
    q0 = math.exp(log_absent - log_norm)
    q1 = math.exp(log_present - log_norm)
    state = BernoulliPossState(q_absent=q0, q_present=q1, spatial=mixture)
    return FusionResult(state=state, normalizer=math.exp(log_norm), alpha=math.exp(log_alpha))


def fuse_chernoff(
    a: BernoulliPossState,
    b: BernoulliPossState,
    omega: float,
    reduction: Optional[ReductionConfig] = None,
) -> FusionResult:
    """Chernoff fusion with exponents (1 - omega, omega).

    omega = 0 or 1 returns the corresponding input verbatim with
    normalizer and alpha equal to 1.  An omega so small that 1 - omega
    rounds to 1 counts as 0, as the exponents no longer sum to 1 there.
    Otherwise every component pair fuses in closed form, existence
    possibilities combine as

        q_absent  ~ q0_a^(1-omega) * q0_b^omega
        q_present ~ q1_a^(1-omega) * q1_b^omega * alpha

    divided by their max, and the fused mixture is renormalised by alpha.
    The fused components come heaviest first, ties in pair order.
    Without a reduction the fused mixture keeps every pair whose weight
    is not below WEIGHT_UNDERFLOW times the largest.  A ReductionConfig
    keeps by weight alone: the pairs whose weight is at least prune_ratio
    times the largest (never below WEIGHT_UNDERFLOW), at most
    max_components of them.  Nothing is merged, since merging would move
    the fused top component; merge_mahalanobis applies to the filter's
    reduce only.  The top component, and so extract's estimate, is the
    exact fusion either way.  Inside a run the pair's table comes from
    the run's group pass; a call outside one builds its own table and
    keeps nothing.
    """
    omega = float(omega)
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if 1.0 - omega == 1.0:
        return FusionResult(state=a, normalizer=1.0, alpha=1.0)
    if omega == 1.0:
        return FusionResult(state=b, normalizer=1.0, alpha=1.0)
    return _fuse(a, b, 1.0 - omega, omega, reduction)


def fuse_independent(
    a: BernoulliPossState,
    b: BernoulliPossState,
    reduction: Optional[ReductionConfig] = None,
) -> FusionResult:
    """Product fusion assuming the two posteriors are independent.

    Both exponents are 1, so fusing two copies of the same state squares
    existence possibilities and halves component covariances.  Use it as
    the centralised reference, or when independence genuinely holds.  The
    fused components come heaviest first, and a reduction keeps pairs by
    weight alone, as in fuse_chernoff.  Inside a run it reads the table
    of the step's Chernoff fusion; outside one it builds its own.
    """
    return _fuse(a, b, 1.0, 1.0, reduction)


def parse_omega_strategy(strategy: str) -> Optional[float]:
    """Parse an exponent-selection strategy, "fixed(v)" or "min-trace".

    Returns the fixed exponent v, or None for "min-trace".
    """
    if isinstance(strategy, str):
        text = strategy.strip()
        if text == "min-trace":
            return None
        if text.startswith("fixed(") and text.endswith(")"):
            try:
                value = float(text[len("fixed(") : -1])
            except ValueError:
                raise ValueError(f"unparseable fixed omega in {strategy!r}") from None
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"fixed omega must lie in [0, 1], got {value}")
            return value
    raise ValueError(
        f"unknown omega strategy {strategy!r}; expected 'fixed(v)' or 'min-trace'"
    )


def select_omega(a: BernoulliPossState, b: BernoulliPossState) -> float:
    """Choose the Chernoff exponent by the min-trace rule.

    Picks, from OMEGA_GRID, the exponent whose fused top component has
    the smallest covariance trace.  Traces within a relative
    TRACE_TIE_RTOL of the smallest are tied, and ties break toward 0.5,
    then toward the smaller exponent, so the choice is deterministic.  The
    search reads one product table over the whole grid plus the
    independent row: building it runs every check that fusing at each
    exponent would (finite, positive definite covariances and finite
    weights in each trial mixture) and computes every row's top trace, so
    the search compares 19 precomputed traces without building the trial
    mixtures.  Inside a run the search reads the table the group pass
    filed for the pair, at whatever floor it was kept, since every row
    keeps its top pair; the step's two fusions read the same table.  A
    call outside a run builds its own table and keeps nothing.
    """
    _check_pair(a, b)
    traces = _table(a.spatial, b.spatial, _SEARCH_ROWS, None).head_trace[: len(OMEGA_GRID)]
    floor = traces.min()
    tied = (traces - floor <= TRACE_TIE_RTOL * floor).tolist()
    return min((abs(omega - 0.5), omega) for omega, t in zip(OMEGA_GRID, tied) if t)[1]


# ---------------------------------------------------------------------------
# Built-in exactness checks, runnable without any test harness.


def _random_mixture(rng: np.random.Generator, dim: int, max_comps: int = 4) -> GaussianMaxMixture:
    n = int(rng.integers(1, max_comps + 1))
    w = rng.uniform(0.2, 1.0, size=n)
    w[int(rng.integers(0, n))] = 1.0
    means = rng.uniform(-4.0, 4.0, size=(n, dim))
    covs = np.empty((n, dim, dim))
    for i in range(n):
        A = rng.uniform(-1.0, 1.0, size=(dim, dim))
        covs[i] = A @ A.T + np.eye(dim) * rng.uniform(0.4, 1.5)
    return GaussianMaxMixture(w, means, covs)


def _grid_points(
    mixtures: list[GaussianMaxMixture], per_axis: int, extra: np.ndarray
) -> np.ndarray:
    means = np.concatenate([m.means for m in mixtures])
    spread = max(1.0, *(float(np.sqrt(m.covariances.max())) for m in mixtures))
    lo = means.min(axis=0) - 4.0 * spread
    hi = means.max(axis=0) + 4.0 * spread
    dim = means.shape[1]
    axes = [np.linspace(lo[d], hi[d], per_axis) for d in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return np.concatenate([grid, means, extra])


def _check_pair_exactness(
    a: GaussianMaxMixture, b: GaussianMaxMixture, e1: float, e2: float
) -> float:
    """Worst pointwise deviation between the closed form and the raw product.

    Evaluates the fused mixture and the directly exponentiated product,
    both divided by the closed-form normaliser, on a dense grid plus the
    input and fused component means.  Also verifies that the normalised
    product never exceeds 1 and that it reaches 1 at the heaviest fused
    mean, which pins the normaliser as the true supremum.
    """
    mixture, log_alpha = _fused_mixture(a, b, e1, e2)
    pts = _grid_points([a, b], 25 if a.dim == 2 else 401, mixture.means)
    direct = np.exp(
        e1 * np.log(np.maximum(a.values(pts), 1e-320))
        + e2 * np.log(np.maximum(b.values(pts), 1e-320))
        - log_alpha
    )
    err = float(np.abs(mixture.values(pts) - direct).max())
    overshoot = float((direct - 1.0).max())
    top_mean = mixture.means[mixture.argmax_component()][None, :]
    da = np.exp(
        e1 * math.log(max(float(a.values(top_mean)[0]), 1e-320))
        + e2 * math.log(max(float(b.values(top_mean)[0]), 1e-320))
        - log_alpha
    )
    peak_gap = abs(da - 1.0)
    return max(err, overshoot, peak_gap)


def selftest(n_pairs: int = 12, seed: int = 2024) -> bool:
    """Grid-based exactness checks for the fusion closed forms.

    Random mixture pairs in one and two dimensions are fused with several
    exponents; the closed-form fused mixture is compared pointwise on a
    dense grid against the directly exponentiated product.  The supremum
    identity for linear-Gaussian products is checked the same way.
    Prints one line per check and returns True when everything passes.
    Raises ValueError, naming the parameter, when n_pairs < 1 or seed < 0.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    rng = np.random.default_rng(seed)
    ok = True

    worst = 0.0
    for k in range(n_pairs):
        dim = 1 if k % 2 == 0 else 2
        a = _random_mixture(rng, dim)
        b = _random_mixture(rng, dim)
        for omega in (0.1, 0.3, 0.5, 0.7, 0.9):
            worst = max(worst, _check_pair_exactness(a, b, 1.0 - omega, omega))
        worst = max(worst, _check_pair_exactness(a, b, 1.0, 1.0))
    passed = worst <= 1e-9
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} fusion closed form vs grid product "
          f"(max abs error {worst:.3e}, tolerance 1e-09)")

    worst = 0.0
    for k in range(n_pairs):
        dim = 1 if k % 2 == 0 else 2
        m = rng.uniform(-3.0, 3.0, size=dim)
        A = rng.uniform(-0.5, 0.5, size=(dim, dim))
        P = A @ A.T + np.eye(dim) * rng.uniform(0.5, 2.0)
        # Keep H near the identity and the noises well conditioned so the
        # product peak provably stays inside the search box below.
        H = np.eye(dim) + rng.uniform(-0.3, 0.3, size=(dim, dim))
        B = rng.uniform(-0.5, 0.5, size=(dim, dim))
        R = B @ B.T + np.eye(dim) * rng.uniform(0.5, 2.0)
        z = H @ m + rng.uniform(-2.0, 2.0, size=dim)
        analytic = sup_linear_gaussian_product(z, H, R, m, P)
        zg = GaussianMaxMixture([1.0], z, R)
        xg = GaussianMaxMixture([1.0], m, P)

        # The product is unimodal, so iteratively zooming the grid onto
        # the best point converges on the true supremum.
        lo = m - 30.0
        hi = m + 30.0
        best = 0.0
        for _ in range(9):
            axes = [np.linspace(lo[d], hi[d], 41) for d in range(dim)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
            vals = zg.values(pts @ H.T) * xg.values(pts)
            i = int(np.argmax(vals))
            best = max(best, float(vals[i]))
            span = (hi - lo) / 8.0
            lo, hi = pts[i] - span, pts[i] + span
        worst = max(worst, abs(best - analytic))
    passed = worst <= 1e-6
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} linear-Gaussian supremum vs refined grid "
          f"(max abs error {worst:.3e}, tolerance 1e-06)")

    return bool(ok)
