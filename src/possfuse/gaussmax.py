"""Gaussian possibility functions and max mixtures.

A possibility function maps the state space into [0, 1] and is normalised
by its supremum rather than by an integral: sup_x f(x) = 1 means "no
evidence against some x".  The Gaussian possibility function with mean m
and covariance P is

    exp(-0.5 * (x - m)' inv(P) (x - m))

It equals 1 exactly at its mean and carries no determinant prefactor, so
its covariance controls spread without changing the peak.  A Gaussian max
mixture combines weighted Gaussian possibilities by pointwise maximum
instead of summation.  Because each weighted component attains its weight
at its own mean, the supremum of the mixture equals the largest weight,
and the mixture is normalised exactly when that weight is 1.

Closed-form operations that stay inside this family:

* the exponentiated product of two mixtures, all component pairs at once
  (_cross_arrays), on which Chernoff and independent-product fusion rest;
* the supremum of a product of two Gaussians (_log_sup_product), which
  weights every fused pair and gives the filter update's normaliser.

All types here are immutable values.  Operations return new objects, never
mutate their inputs, and hold no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianMaxMixture", "sup_linear_gaussian_product"]

# Tolerance for accepting a matrix as symmetric, relative to its magnitude.
SYMMETRY_TOL = 1e-9
# Eigenvalue ratio below which a covariance counts as near-singular and
# receives a diagonal jitter of EIG_FLOOR * trace / n.
EIG_FLOOR = 1e-9
# Stacks of at least this many covariances are first screened with one
# batched Cholesky factorisation (_well_conditioned).  Measured on 4 x 4
# stacks, the screen's fixed cost matches eigvalsh's at about 12 matrices
# and wins above it, so smaller stacks go straight to eigvalsh.
SCREEN_MIN_STACK = 12
# The screen clears a matrix only when its eigenvalue-ratio bound beats
# EIG_FLOOR by this factor, far more than rounding can move either test.
SCREEN_MARGIN = 4.0
# Slack allowed when checking that a weight does not exceed 1.
NORM_TOL = 1e-12
# Weights below this fraction of a mixture's largest are numerically
# extinct; _surviving is the one place that applies it.
WEIGHT_UNDERFLOW = 1e-300


def _conditioned_covariance(P: np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """Validate a covariance (or a stack of them) and make it safely SPD.

    Accepts shape (..., n, n).  Rejects non-square, non-finite, asymmetric,
    or non-positive-definite input.  Near-singular matrices, where the
    smallest eigenvalue is below EIG_FLOOR times the largest, get a
    diagonal jitter of EIG_FLOOR * trace / n so later factorisations
    cannot blow up.  Returns a bitwise-symmetric array, which is P itself
    when P already is one and needs no jitter.

    A stack of SCREEN_MIN_STACK or more matrices is first screened with
    one batched Cholesky factorisation, which costs far less per matrix
    than eigvalsh.  For a positive definite n x n matrix every eigenvalue
    is at most the trace, so lambda_max <= tr P and
    lambda_min >= det P / tr(P) ** (n - 1), with det P the product of the
    squared diagonal of the Cholesky factor.  When every matrix has
    det P > SCREEN_MARGIN * EIG_FLOOR * tr(P) ** n (a factor of 4 over
    the jitter rule), none can need jitter or be rejected, and P is
    returned as it stands.  Any other outcome (a failed factorisation or
    one matrix not cleared) sends the whole stack through eigvalsh, so
    the screen changes no decision and no output bit, only the cost.

    This is the one covariance check: the public GaussianMaxMixture
    constructor runs it on its input, and every operation runs it once on
    the covariances it computes.  Covariances copied from a mixture that
    was already checked are not checked again, so they keep their bits.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim == 0:
        P = P.reshape(1, 1)
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise ValueError(f"covariance must be square, got shape {P.shape}")
    if dim is not None and P.shape[-1] != dim:
        raise ValueError(f"covariance dimension {P.shape[-1]} does not match mean dimension {dim}")
    # Checked first, so that inf - inf never reaches the symmetry test.
    if not np.isfinite(P).all():
        raise ValueError("covariance is not finite")
    bits = P.view(np.int64)
    if not (bits == bits.swapaxes(-1, -2)).all():
        # Symmetrising a bitwise-symmetric matrix would return its bits, so
        # only other input pays for the tolerance test and the average.
        PT = P.swapaxes(-1, -2)
        scale = np.maximum(np.abs(P).max(axis=(-2, -1), keepdims=True), 1.0)
        if not (np.abs(P - PT) <= SYMMETRY_TOL * scale).all():
            raise ValueError("covariance is not symmetric within tolerance")
        P = 0.5 * (P + PT)
    if P.ndim > 2 and math.prod(P.shape[:-2]) >= SCREEN_MIN_STACK and _well_conditioned(P):
        return P
    eigs = np.linalg.eigvalsh(P)
    lowest = eigs[..., 0]
    # One test clears the common case; a non-positive lowest eigenvalue
    # also fails it, as it is never above EIG_FLOOR times the largest.
    if not (lowest > EIG_FLOOR * eigs[..., -1]).all():
        if (lowest <= 0.0).any():
            raise ValueError("covariance is not positive definite")
        low = lowest < EIG_FLOOR * eigs[..., -1]
        n = P.shape[-1]
        jitter = EIG_FLOOR * (np.trace(P, axis1=-2, axis2=-1) / n)
        # Only near-singular matrices change, so each matrix's bits do not
        # depend on the others in the stack.
        P = np.where(low[..., None, None], P + jitter[..., None, None] * np.eye(n), P)
    return P


def _well_conditioned(P: np.ndarray) -> bool:
    """Whether one Cholesky factorisation proves that every matrix of the
    symmetric stack P (..., n, n) is positive definite with
    det P > SCREEN_MARGIN * EIG_FLOOR * tr(P) ** n.  False means not
    proven, not rejected."""
    n = P.shape[-1]
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return False
    d = np.einsum("...ii->...i", L)
    # m = tr P / n, summed after the division so it cannot overflow.  Then
    # det P / tr(P) ** n = prod(d_i * (d_i / m)) / n ** n, and as
    # d_i ** 2 <= P_ii <= n m every factor lies in (0, n]: no scale of P
    # can overflow, and underflow only fails the test.
    m = (np.einsum("...ii->...i", P) / n).sum(axis=-1, keepdims=True)
    return bool((d * (d / m)).prod(axis=-1).min() > SCREEN_MARGIN * EIG_FLOOR * n**n)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array the caller owns read-only, without copying it."""
    a.setflags(write=False)
    return a


def _surviving(w: np.ndarray) -> np.ndarray:
    """Mask of the components a mixture keeps, given weights divided by
    their largest: those not below WEIGHT_UNDERFLOW.

    The heaviest component has weight 1, so it always stays, and a mixture
    is never empty however far apart its sources are.  A NaN weight stays
    too, so that _checked_weights rejects it.
    """
    return ~(w < WEIGHT_UNDERFLOW)


def _checked_weights(w: np.ndarray) -> np.ndarray:
    """Check that weights are finite, positive and at most 1 up to
    NORM_TOL, then clip them to 1 in place."""
    lo, hi = w.min(), w.max()
    # Both comparisons fail on NaN.
    if not (lo > 0.0 and hi <= 1.0 + NORM_TOL):
        if not (lo > 0.0 and np.isfinite(hi)):
            raise ValueError("weights must be finite and strictly positive")
        raise ValueError(f"weights must not exceed 1, got max {hi}")
    if hi > 1.0:
        np.minimum(w, 1.0, out=w)
    return w


@dataclass(frozen=True, eq=False)
class GaussianMaxMixture:
    """Pointwise maximum of weighted Gaussian possibilities.

    Stored as stacked arrays so that filtering and fusion can run batched
    linear algebra across components: weights (n,), means (n, d),
    covariances (n, d, d).  The mixture value at x is
    max_i weights[i] * exp(-0.5 * (x - means[i])' inv(covariances[i]) (x - means[i]))
    and its supremum equals max(weights), attained at the heaviest mean.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        means = np.array(self.means, dtype=float)
        if means.ndim == 1:
            means = means[:, None] if w.size == means.shape[0] else means[None, :]
        if w.ndim != 1 or w.size == 0:
            raise ValueError("a mixture needs at least one component")
        if means.ndim != 2 or means.shape[0] != w.size:
            raise ValueError(f"means must have shape ({w.size}, d), got {means.shape}")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        covs = np.array(self.covariances, dtype=float)
        if covs.ndim == 2 and w.size == 1:
            covs = covs[None, :, :]
        if covs.ndim == 1 or covs.ndim == 0:
            covs = covs.reshape(w.size, 1, 1) if covs.size == w.size else covs
        covs = _conditioned_covariance(covs, dim=means.shape[1])
        if covs.shape != (w.size, means.shape[1], means.shape[1]):
            raise ValueError(f"covariances must have shape ({w.size}, {means.shape[1]}, {means.shape[1]}), got {covs.shape}")
        object.__setattr__(self, "weights", _frozen(_checked_weights(w)))
        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "covariances", _frozen(covs))

    @classmethod
    def _derived(
        cls, weights: np.ndarray, means: np.ndarray, covariances: np.ndarray
    ) -> "GaussianMaxMixture":
        """A mixture an operation has computed from checked mixtures.

        covariances must be conditioned already: either computed and passed
        through _conditioned_covariance by the operation, or taken from a
        checked mixture.  Weights and means are checked here, since every
        operation computes them anew.  The arrays are frozen in place, not
        copied, so the caller must not keep a writable reference to them.
        """
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        mixture = object.__new__(cls)
        object.__setattr__(mixture, "weights", _frozen(_checked_weights(weights)))
        object.__setattr__(mixture, "means", _frozen(means))
        object.__setattr__(mixture, "covariances", _frozen(covariances))
        return mixture

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def max_weight(self) -> float:
        return float(self.weights.max())

    @property
    def is_normalized(self) -> bool:
        return abs(self.max_weight - 1.0) <= NORM_TOL

    def argmax_component(self) -> int:
        """Index of the heaviest component; ties resolve to the lowest index."""
        return int(np.argmax(self.weights))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the mixture at a batch of points, shape (k, dim) -> (k,)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"points must have shape (k, {self.dim}), got {xs.shape}")
        best = np.zeros(xs.shape[0])
        chols = np.linalg.cholesky(self.covariances)
        for i in range(self.n_components):
            y = np.linalg.solve(chols[i], (xs - self.means[i]).T)
            quad = np.maximum(np.sum(y * y, axis=0), 0.0)
            np.maximum(best, self.weights[i] * np.exp(-0.5 * quad), out=best)
        return best


def _cross_arrays(
    e1,
    log_w1: np.ndarray,
    means1: np.ndarray,
    covs1: np.ndarray,
    e2,
    log_w2: np.ndarray,
    means2: np.ndarray,
    covs2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentiated-product components for every exponent pair and every
    component pair (i, j), batched.

    e1 and e2 are exponent vectors of shape (k,).  For each exponent pair
    (e1, e2) this computes the closed form of
    [w1_i N(x; m1_i, P1_i)] ** e1 * [w2_j N(x; m2_j, P2_j)] ** e2:
    a single Gaussian component with

        precision  = e1 inv(P1_i) + e2 inv(P2_j)
        mean       = cov (e1 inv(P1_i) m1_i + e2 inv(P2_j) m2_j)
        log weight = e1 log w1_i + e2 log w2_j
                     - 0.5 (m1_i - m2_j)' inv(P1_i / e1 + P2_j / e2) (m1_i - m2_j)

    Returns (log_w, means, covs) with leading shape (k, n1, n2).  Each
    exponent slice equals the result of a call with that pair alone, bit
    for bit.  Weights stay in log scale so widely separated pairs cannot
    underflow here.
    """
    e1 = np.asarray(e1, dtype=float)[:, None, None]
    e2 = np.asarray(e2, dtype=float)[:, None, None]
    inv1 = np.linalg.inv(covs1)
    # A self-fusion passes one stack twice; invert it once.
    inv2 = inv1 if covs2 is covs1 else np.linalg.inv(covs2)
    # The (k, n1, n2, d, d) stacks dominate memory; at most two of them are
    # alive at any time.
    cov = np.linalg.inv(e1[..., None, None] * inv1[:, None] + e2[..., None, None] * inv2[None, :])
    cov = cov + np.swapaxes(cov, -1, -2)
    cov *= 0.5
    a1 = np.einsum("nij,nj->ni", inv1, means1)
    a2 = np.einsum("nij,nj->ni", inv2, means2)
    mean = np.einsum(
        "kabij,kabj->kabi", cov, e1[..., None] * a1[:, None] + e2[..., None] * a2[None, :]
    )
    diff = means1[:, None] - means2[None, :]
    spread = covs1[:, None] / e1[..., None, None] + covs2[None, :] / e2[..., None, None]
    log_w = e1 * log_w1[:, None] + e2 * log_w2[None, :] + _log_sup_product(diff, spread)
    return log_w, mean, cov


def _log_sup_product(d: np.ndarray, C: np.ndarray) -> np.ndarray:
    """log sup_x N(x; a, A) N(x; b, B) = -0.5 d' inv(C) d for d = a - b and
    C = A + B, over the broadcast leading axes of d (..., n) and C (..., n, n).

    The one Gaussian-product supremum: update's theta, every fused pair
    weight and sup_linear_gaussian_product rest on it.  Each pair is its own
    one right-hand-side solve, so its bits do not depend on the batch.
    """
    sol = np.linalg.solve(C, d[..., None])[..., 0]
    return -0.5 * np.maximum(np.einsum("...i,...i->...", d, sol), 0.0)


def sup_linear_gaussian_product(z, H, R, m, P) -> float:
    """sup over x of N(z; H x, R) * N(x; m, P), in closed form.

    For sup-normalised Gaussians the supremum of the product is exactly
    N(z; H m, H P H' + R): completing the square in x leaves the residual
    quadratic of z about H m, and no determinant factor appears.  This is
    the identity that lets a detection term be normalised without any
    integral.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape != (z.size, m.size):
        raise ValueError(f"H must have shape ({z.size}, {m.size}), got {H.shape}")
    R = _conditioned_covariance(R, dim=z.size)
    P = _conditioned_covariance(P, dim=m.size)
    S = H @ P @ H.T + R
    return math.exp(_log_sup_product(z - H @ m, 0.5 * (S + S.T)))
