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
product.  All three read one product table, built once per pair with
every row they need and kept weakly in _TABLES, not on a mixture.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernoulli import BernoulliPossState, ReductionConfig, reduce
from .gaussmax import (
    GaussianMaxMixture,
    _checked_weights,
    _conditioned_covariance,
    _cross_arrays,
    _surviving,
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
# of a product table computes.  Its temporaries grow with their number, so
# when both mixtures are large a table is built in blocks of rows.
SEARCH_BLOCK_PAIRS = 1024
# Exponents of independent-product fusion.  Every product table holds this
# row, so a step's independent fusion reuses the table its Chernoff fusion
# or omega search built.
INDEPENDENT = (1.0, 1.0)


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


class _ProductTable:
    """Every fused component pair of two mixtures at several exponent rows.

    Row r fuses at exponents rows[r] = (e1, e2).  The rows go through
    _cross_arrays in blocks of at most SEARCH_BLOCK_PAIRS (row, pair)
    combinations, which bounds its temporaries when both mixtures are
    large.  Each row's pair weights are divided by their largest, alpha =
    exp(log_alpha), and the row keeps the pairs _surviving keeps of them.
    Every kept pair of every row is then conditioned and checked in one
    pass, and bounds[r]:bounds[r + 1] slices row r's out of the kept
    arrays.  A row equals a table of that row alone bit for bit:
    _cross_arrays slices, conditioning and exp act per row, per matrix and
    per element.  A failing check in any row fails the whole table.
    """

    def __init__(self, a: GaussianMaxMixture, b: GaussianMaxMixture, rows: list):
        e1, e2 = np.array(rows).T
        log_a, log_b = np.log(a.weights), np.log(b.weights)
        step = max(1, SEARCH_BLOCK_PAIRS // (a.n_components * b.n_components))
        blocks = [
            _cross_arrays(
                e1[i : i + step], log_a, a.means, a.covariances,
                e2[i : i + step], log_b, b.means, b.covariances,
            )
            for i in range(0, len(rows), step)
        ]
        log_w, means, covs = (np.concatenate(parts) for parts in zip(*blocks))
        log_w = log_w.reshape(len(rows), -1)
        self.index = {row: r for r, row in enumerate(rows)}
        self.log_alpha = log_w.max(axis=1)
        self.weights = np.exp(log_w - self.log_alpha[:, None])
        kept = _surviving(self.weights).reshape(-1)
        self.kept_weights = _checked_weights(self.weights.reshape(-1)[kept])
        self.means = means.reshape(-1, a.dim)[kept]
        self.covs = _conditioned_covariance(covs.reshape(-1, a.dim, a.dim)[kept])
        # ends[r, j]: how many pairs the table keeps up to row r, pair j.
        self.ends = np.cumsum(kept).reshape(self.weights.shape)
        self.bounds = [0, *self.ends[:, -1].tolist()]


# Each first mixture's latest product table, as (weakref.ref(b), table).
# Weak keys and a weak partner let an entry live exactly as long as its key:
# a self-fusion makes no reference cycle, and a freed partner never matches.
_TABLES = weakref.WeakKeyDictionary()


def _table(a: GaussianMaxMixture, b: GaussianMaxMixture, rows: list) -> _ProductTable:
    """The product table of (a, b) with every row of rows, reused or built."""
    partner, table = _TABLES.get(a, (None, None))
    if partner is None or partner() is not b or not table.index.keys() >= set(rows):
        table = _ProductTable(a, b, rows)
        _TABLES[a] = (weakref.ref(b), table)
    return table


def _fused_mixture(
    a: GaussianMaxMixture, b: GaussianMaxMixture, e1: float, e2: float
) -> tuple[GaussianMaxMixture, float]:
    """All-pairs fused mixture, normalised; returns (mixture, log_alpha).

    The row is read from _table with the independent row beside it, so a
    step's Chernoff and independent fusions share one table.
    """
    row = (e1, e2)
    table = _table(a, b, [row] if row == INDEPENDENT else [row, INDEPENDENT])
    r = table.index[row]
    lo, hi = table.bounds[r], table.bounds[r + 1]
    mixture = GaussianMaxMixture._derived(
        table.kept_weights[lo:hi], table.means[lo:hi], table.covs[lo:hi]
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
    mixture, log_alpha = _fused_mixture(a.spatial, b.spatial, e1, e2)

    def _log(q: float) -> float:
        return math.log(q) if q > 0.0 else -math.inf

    log_absent = e1 * _log(a.q_absent) + e2 * _log(b.q_absent)
    log_present = e1 * _log(a.q_present) + e2 * _log(b.q_present) + log_alpha
    log_norm = max(log_absent, log_present)
    q0 = math.exp(log_absent - log_norm)
    q1 = math.exp(log_present - log_norm)
    if reduction is not None:
        mixture = reduce(mixture, reduction)
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
    normalizer and alpha equal to 1.  Otherwise every component pair
    fuses in closed form, existence possibilities combine as

        q_absent  ~ q0_a^(1-omega) * q0_b^omega
        q_present ~ q1_a^(1-omega) * q1_b^omega * alpha

    divided by their max, and the fused mixture is renormalised by alpha.
    Passing a ReductionConfig reduces the all-pairs mixture afterwards;
    exactness holds only for the unreduced result.
    """
    omega = float(omega)
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if omega == 0.0:
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
    the centralised reference, or when independence genuinely holds.
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
    search is one product table over the whole grid plus the independent
    row: it runs every check that fusing at each exponent would (finite,
    positive definite covariances and finite weights in each trial
    mixture) and compares the traces of the conditioned top covariances,
    without building the trial mixtures.  Fusing the same pair at the
    chosen exponent and independently then reads the table from _TABLES.
    """
    _check_pair(a, b)
    rows = [(1.0 - omega, omega) for omega in OMEGA_GRID] + [INDEPENDENT]
    table = _table(a.spatial, b.spatial, rows)
    # A row's heaviest component is its first pair of weight 1, which is
    # always kept; locate it among the kept pairs, which are in row order.
    head = np.argmax(table.weights[: len(OMEGA_GRID)], axis=1)
    position = table.ends[np.arange(head.size), head] - 1
    traces = np.trace(table.covs[position], axis1=-2, axis2=-1)
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
    Raises ConfigError, naming the parameter, when n_pairs < 1 or seed < 0.
    """
    # config imports this module, so its error type is imported on use.
    from .config import ConfigError

    if n_pairs < 1:
        raise ConfigError("n_pairs", f"must be at least 1, got {n_pairs}")
    if seed < 0:
        raise ConfigError("seed", f"must not be negative, got {seed}")
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
