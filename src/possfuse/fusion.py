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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernoulli import BernoulliPossState, ReductionConfig, reduce
from .gaussmax import (
    WEIGHT_UNDERFLOW,
    GaussianMaxMixture,
    _conditioned_covariance,
    _cross_arrays,
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
# Most (omega, component pair) combinations one batched search fusion holds.
# Its temporaries grow with their number, so when both mixtures are large
# the search walks OMEGA_GRID in blocks to keep peak memory near that of a
# single fusion.
SEARCH_BLOCK_PAIRS = 1024


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


def _fused_mixture(
    a: GaussianMaxMixture, b: GaussianMaxMixture, e1: float, e2: float
) -> tuple[GaussianMaxMixture, float]:
    """All-pairs fused mixture, normalised; returns (mixture, log_alpha)."""
    log_w, means, covs = _cross_arrays(
        [e1], np.log(a.weights), a.means, a.covariances,
        [e2], np.log(b.weights), b.means, b.covariances,
    )
    log_alphas, keeps = _kept_pairs(log_w.reshape(1, -1))
    log_alpha, keep = float(log_alphas[0]), keeps[0]
    weights = np.exp(log_w.reshape(-1)[keep] - log_alpha)
    means = means.reshape(-1, a.dim)[keep]
    covs = _conditioned_covariance(covs.reshape(-1, a.dim, a.dim)[keep])
    return GaussianMaxMixture._derived(weights, means, covs), log_alpha


def _kept_pairs(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of pair log weights (k, n): log alpha, the largest log
    weight, and the mask of the pairs a fused mixture keeps.

    Pairs whose unnormalised weight underflows in linear scale carry no
    information; they are dropped, but never the top pair, so the mixture
    is never empty even under severe conflict.
    """
    rows = np.arange(log_w.shape[0])
    top = np.argmax(log_w, axis=1)
    keep = np.exp(log_w) >= WEIGHT_UNDERFLOW
    keep[rows, top] = True
    return log_w[rows, top], keep


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


def parse_omega_strategy(strategy) -> tuple[str, Optional[float]]:
    """Parse an exponent-selection strategy.

    Accepts a float (treated as a fixed exponent), "fixed(v)", or
    "min-trace".  Returns ("fixed", v) or ("min-trace", None).
    """
    if isinstance(strategy, (int, float)) and not isinstance(strategy, bool):
        value = float(strategy)
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"fixed omega must lie in [0, 1], got {value}")
        return "fixed", value
    if isinstance(strategy, str):
        text = strategy.strip()
        if text == "min-trace":
            return "min-trace", None
        if text.startswith("fixed(") and text.endswith(")"):
            try:
                value = float(text[len("fixed(") : -1])
            except ValueError:
                raise ValueError(f"unparseable fixed omega in {strategy!r}") from None
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"fixed omega must lie in [0, 1], got {value}")
            return "fixed", value
    raise ValueError(
        f"unknown omega strategy {strategy!r}; expected 'fixed(v)' or 'min-trace'"
    )


def select_omega(a: BernoulliPossState, b: BernoulliPossState, strategy="min-trace") -> float:
    """Choose the Chernoff exponent.

    "fixed(v)" returns v.  "min-trace" picks, from OMEGA_GRID, the
    exponent whose fused top component has the smallest covariance trace.
    Traces within a relative TRACE_TIE_RTOL of the smallest are tied, and
    ties break toward 0.5, then toward the smaller exponent, so the
    choice is deterministic.  The search is one batched fusion over the
    whole grid (over blocks of it when both mixtures are large): it runs
    every check that fusing at each exponent would (finite, positive
    definite covariances and finite weights in each trial mixture) and
    compares the traces of the conditioned top covariances, without
    building the trial mixtures.
    """
    kind, value = parse_omega_strategy(strategy)
    if kind == "fixed":
        return float(value)
    _check_pair(a, b)
    omegas = np.asarray(OMEGA_GRID)
    step = max(1, SEARCH_BLOCK_PAIRS // (a.spatial.n_components * b.spatial.n_components))
    traces = np.concatenate(
        [_top_traces(a.spatial, b.spatial, omegas[i : i + step]) for i in range(0, omegas.size, step)]
    )
    floor = traces.min()
    tied = (traces - floor <= TRACE_TIE_RTOL * floor).tolist()
    return min((abs(omega - 0.5), omega) for omega, t in zip(OMEGA_GRID, tied) if t)[1]


def _top_traces(a: GaussianMaxMixture, b: GaussianMaxMixture, omegas: np.ndarray) -> np.ndarray:
    """Covariance trace of the heaviest component of the Chernoff fusion of
    a and b at each omega, with every check that fusion runs."""
    log_w, _, covs = _cross_arrays(
        1.0 - omegas, np.log(a.weights), a.means, a.covariances,
        omegas, np.log(b.weights), b.means, b.covariances,
    )
    # Row r holds the pairs of the trial mixture fusing at omegas[r].
    log_w = log_w.reshape(omegas.size, -1)
    log_alpha, keep = _kept_pairs(log_w)
    weights = np.exp(log_w - log_alpha[:, None])
    covs = _conditioned_covariance(covs.reshape(keep.shape + covs.shape[-2:])[keep])
    kept_weights = weights[keep]
    if not np.all(np.isfinite(kept_weights) & (kept_weights > 0.0)):
        raise ValueError("weights must be finite and strictly positive")
    # A trial's heaviest component is its first kept pair of largest
    # weight; locate it among the kept pairs, which are in row order.
    head = np.argmax(np.where(keep, weights, -1.0), axis=1)
    position = np.cumsum(keep).reshape(keep.shape)[np.arange(omegas.size), head] - 1
    return np.trace(covs[position], axis1=-2, axis2=-1)


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


def selftest(n_pairs: int = 12, seed: int = 2024, verbose: bool = True) -> bool:
    """Grid-based exactness checks for the fusion closed forms.

    Random mixture pairs in one and two dimensions are fused with several
    exponents; the closed-form fused mixture is compared pointwise on a
    dense grid against the directly exponentiated product.  The supremum
    identity for linear-Gaussian products is checked the same way.
    Prints one line per check and returns True when everything passes.
    """
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
    if verbose:
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
    if verbose:
        print(f"{'PASS' if passed else 'FAIL'} linear-Gaussian supremum vs refined grid "
              f"(max abs error {worst:.3e}, tolerance 1e-06)")

    return bool(ok)
