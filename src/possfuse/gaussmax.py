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
* the supremum of a linear-Gaussian product over the state.

All types here are immutable values.  Operations return new objects, never
mutate their inputs, and hold no global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GaussianMaxMixture", "sup_linear_gaussian_product"]

# Tolerance for accepting a matrix as symmetric, relative to its magnitude.
SYMMETRY_TOL = 1e-9
# Eigenvalue ratio below which a covariance counts as near-singular and
# receives a diagonal jitter of EIG_FLOOR * trace / n.
EIG_FLOOR = 1e-9
# Slack allowed when checking that a weight does not exceed 1.
NORM_TOL = 1e-12
# Linear-scale weights below this are treated as numerically extinct.
WEIGHT_UNDERFLOW = 1e-300


def _conditioned_covariance(P: np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """Validate a covariance (or a stack of them) and make it safely SPD.

    Accepts shape (..., n, n).  Rejects non-square, asymmetric, or
    non-positive-definite input.  Near-singular matrices, where the
    smallest eigenvalue is below EIG_FLOOR times the largest, get a
    diagonal jitter of EIG_FLOOR * trace / n so later factorisations
    cannot blow up.  Returns a fresh symmetrised array.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim == 0:
        P = P.reshape(1, 1)
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise ValueError(f"covariance must be square, got shape {P.shape}")
    if dim is not None and P.shape[-1] != dim:
        raise ValueError(f"covariance dimension {P.shape[-1]} does not match mean dimension {dim}")
    scale = np.maximum(1.0, np.abs(P).max(axis=(-2, -1), keepdims=True))
    if not np.all(np.abs(P - np.swapaxes(P, -1, -2)) <= SYMMETRY_TOL * scale):
        # NaN and inf fail the symmetry test too; name them apart.
        if not np.all(np.isfinite(P)):
            raise ValueError("covariance is not finite")
        raise ValueError("covariance is not symmetric within tolerance")
    P = 0.5 * (P + np.swapaxes(P, -1, -2))
    eigs = np.linalg.eigvalsh(P)
    if np.any(eigs[..., 0] <= 0.0):
        raise ValueError("covariance is not positive definite")
    n = P.shape[-1]
    low = eigs[..., 0] < EIG_FLOOR * eigs[..., -1]
    if np.any(low):
        jitter = EIG_FLOOR * (np.trace(P, axis1=-2, axis2=-1) / n)
        P = P + np.where(low, jitter, 0.0)[..., None, None] * np.eye(n)
    return P


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        means = np.asarray(self.means, dtype=float)
        if means.ndim == 1:
            means = means[:, None] if w.size == means.shape[0] else means[None, :]
        if w.ndim != 1 or w.size == 0:
            raise ValueError("a mixture needs at least one component")
        if means.ndim != 2 or means.shape[0] != w.size:
            raise ValueError(f"means must have shape ({w.size}, d), got {means.shape}")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim == 2 and w.size == 1:
            covs = covs[None, :, :]
        if covs.ndim == 1 or covs.ndim == 0:
            covs = covs.reshape(w.size, 1, 1) if covs.size == w.size else covs
        covs = _conditioned_covariance(covs, dim=means.shape[1])
        if covs.shape != (w.size, means.shape[1], means.shape[1]):
            raise ValueError(f"covariances must have shape ({w.size}, {means.shape[1]}, {means.shape[1]}), got {covs.shape}")
        if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if np.any(w > 1.0 + NORM_TOL):
            raise ValueError(f"weights must not exceed 1, got max {w.max()}")
        w = np.minimum(w, 1.0)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "covariances", _readonly(covs))

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

    @cached_property
    def _chols(self) -> np.ndarray:
        return np.linalg.cholesky(self.covariances)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the mixture at a batch of points, shape (k, dim) -> (k,)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"points must have shape (k, {self.dim}), got {xs.shape}")
        best = np.zeros(xs.shape[0])
        chols = self._chols
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
    inv2 = np.linalg.inv(covs2)
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
    sol = np.linalg.solve(spread, diff[..., None])
    quad = np.maximum(np.einsum("abi,kabi->kab", diff, sol[..., 0]), 0.0)
    log_w = e1 * log_w1[:, None] + e2 * log_w2[None, :] - 0.5 * quad
    return log_w, mean, cov


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
    peak = GaussianMaxMixture([1.0], H @ m, H @ P @ H.T + R)
    return float(peak.values(z[None, :])[0])
