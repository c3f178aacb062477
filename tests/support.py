"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package internals:
possibility values are computed with explicit matrix inversion and plain
loops, assignments by exhaustive permutation, suprema by refining grid
search.  Tests compare package results against these routes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def gauss_value(x, mean, cov) -> float:
    """exp(-0.5 (x-m)^T P^-1 (x-m)) via explicit inversion."""
    d = np.atleast_1d(np.asarray(x, dtype=float) - np.asarray(mean, dtype=float))
    P = np.atleast_2d(np.asarray(cov, dtype=float))
    q = float(d @ np.linalg.inv(P) @ d)
    return math.exp(-0.5 * q)


def mixture_value(x, weights, means, covs) -> float:
    """Pointwise max of weighted Gaussian possibilities."""
    return max(
        float(w) * gauss_value(x, m, P) for w, m, P in zip(weights, means, covs)
    )


def mixture_values(points, weights, means, covs) -> np.ndarray:
    return np.array([mixture_value(p, weights, means, covs) for p in points])


def mixture_values_vec(points, weights, means, covs) -> np.ndarray:
    """Vectorized oracle evaluation: explicit inverses, einsum quadratics.

    Same route as mixture_value (inv, not factorization), batched so the
    acceptance grids stay inside their runtime budgets.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.zeros(pts.shape[0])
    for w, m, P in zip(weights, means, covs):
        Pinv = np.linalg.inv(np.atleast_2d(P))
        d = pts - np.atleast_1d(m)
        quad = np.einsum("ki,ij,kj->k", d, Pinv, d)
        np.maximum(best, float(w) * np.exp(-0.5 * quad), out=best)
    return best


def product_values(points, mix1, mix2, e1: float, e2: float) -> np.ndarray:
    """Pointwise [mix1]^e1 [mix2]^e2, each mix a (weights, means, covs) triple."""
    v1 = mixture_values(points, *mix1)
    v2 = mixture_values(points, *mix2)
    return v1**e1 * v2**e2


def grid_points_1d(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)[:, None]


def grid_points_2d(lo, hi, n: int) -> np.ndarray:
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def mixture_box(mixes, pad: float = 4.0):
    """Axis-aligned box covering every component mean plus pad standard
    deviations of the widest component."""
    means = np.concatenate([np.atleast_2d(m[1]) for m in mixes], axis=0)
    spread = max(
        math.sqrt(float(np.max(np.diagonal(P)))) for m in mixes for P in m[2]
    )
    lo = means.min(axis=0) - pad * spread
    hi = means.max(axis=0) + pad * spread
    return lo, hi


def refine_maximum(f, lo, hi, iters: int = 9, per_axis: int = 41) -> float:
    """Maximize a unimodal function by repeatedly zooming a uniform grid."""
    return refine_maximum_batch(
        lambda pts: np.array([f(p) for p in pts]), lo, hi, iters, per_axis
    )


def refine_maximum_batch(fbatch, lo, hi, iters: int = 9, per_axis: int = 41) -> float:
    """refine_maximum for a function that evaluates a whole point batch."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    best = -np.inf
    for _ in range(iters):
        axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(lo.size)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        vals = np.asarray(fbatch(pts))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        center = pts[i]
        span = (hi - lo) / 8.0
        lo = center - span / 2.0
        hi = center + span / 2.0
    return best


def ospa_permutations(X, Y, cutoff: float, order: float) -> float:
    """OSPA by trying every assignment permutation explicitly."""
    X = [np.asarray(x, dtype=float) for x in X]
    Y = [np.asarray(y, dtype=float) for y in Y]
    # Same row rule as ospa: the smaller set, or the lexicographically
    # smaller sorted set between equal sizes.
    def key(points):
        return sorted(tuple(p.tolist()) for p in points)

    if len(X) > len(Y) or (len(X) == len(Y) and key(X) > key(Y)):
        X, Y = Y, X
    m, n = len(X), len(Y)
    if n == 0:
        return 0.0
    if m == 0:
        return cutoff
    best = math.inf
    for perm in itertools.permutations(range(n), m):
        total = 0.0
        for i in range(m):
            d = min(cutoff, float(np.linalg.norm(X[i] - Y[perm[i]])))
            total = total + d**order
        best = min(best, total)
    return float((best + cutoff**order * (n - m)) / n) ** (1.0 / order)


def random_mixture(rng: np.random.Generator, dim: int, max_comps: int = 4):
    """Random normalized (weights, means, covs) triple."""
    n = int(rng.integers(1, max_comps + 1))
    weights = rng.uniform(0.05, 1.0, size=n)
    weights[int(rng.integers(n))] = 1.0
    means = rng.uniform(-4.0, 4.0, size=(n, dim))
    covs = np.empty((n, dim, dim))
    for i in range(n):
        A = rng.normal(size=(dim, dim)) * 0.5
        covs[i] = A @ A.T + np.eye(dim) * rng.uniform(0.4, 1.5)
    return weights, means, covs
