"""Gaussian max-mixture algebra, one-component fusion, and the
linear-Gaussian supremum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possfuse.bernoulli import BernoulliPossState, ReductionConfig, reduce
from possfuse.fusion import fuse_chernoff, fuse_independent
from possfuse.gaussmax import GaussianMaxMixture, _log_sup_product, sup_linear_gaussian_product
from support import (
    gauss_value,
    mixture_values,
    random_mixture,
    refine_maximum,
)


def mk_mixture(triple) -> GaussianMaxMixture:
    w, m, P = triple
    return GaussianMaxMixture(w, m, P)


def single(mean, cov, weight=1.0) -> GaussianMaxMixture:
    """A one-component mixture: one weighted Gaussian possibility."""
    return GaussianMaxMixture([weight], np.atleast_1d(mean), cov)


def value(mix: GaussianMaxMixture, x) -> float:
    return float(mix.values(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0])


def present(mix: GaussianMaxMixture, q_present: float = 1.0) -> BernoulliPossState:
    return BernoulliPossState(q_absent=1.0, q_present=q_present, spatial=mix)


class TestGaussianPossibility:
    """A Gaussian possibility is a one-component mixture of weight 1."""

    def test_peak_is_one_at_mean(self):
        g = single([1.0, -2.0], np.diag([2.0, 3.0]))
        assert value(g, [1.0, -2.0]) == 1.0

    def test_one_sigma_value(self):
        g = single(0.0, 1.0)
        assert value(g, 1.0) == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_matches_explicit_inverse_formula(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        P = A @ A.T + np.eye(3)
        m = rng.normal(size=3)
        g = single(m, P)
        for _ in range(20):
            x = rng.normal(size=3) * 3
            assert value(g, x) == pytest.approx(gauss_value(x, m, P), abs=1e-12)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="not symmetric"):
            single([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            single([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_values_batch_matches_scalar(self):
        g = single([0.0], [[4.0]])
        xs = np.linspace(-5, 5, 11)[:, None]
        batch = g.values(xs)
        for x, v in zip(xs, batch):
            assert value(g, x) == v

    def test_fields_are_readonly(self):
        g = single([0.0], [[1.0]])
        with pytest.raises(ValueError):
            g.means[0, 0] = 3.0
        with pytest.raises(ValueError):
            g.covariances[0, 0, 0] = 3.0


class TestWeightedComponent:
    """A weighted component is a one-component mixture."""

    def test_scales_value(self):
        c = single(0.0, 1.0, weight=0.5)
        assert value(c, 0.0) == 0.5
        assert value(c, 1.0) == 0.5 * value(single(0.0, 1.0), 1.0)

    @pytest.mark.parametrize("w", [0.0, -0.1, 1.1])
    def test_rejects_bad_weights(self, w):
        with pytest.raises(ValueError):
            single(0.0, 1.0, weight=w)


class TestMixture:
    def test_value_is_pointwise_max(self):
        rng = np.random.default_rng(5)
        triple = random_mixture(rng, 2, max_comps=4)
        mix = mk_mixture(triple)
        pts = rng.uniform(-6, 6, size=(50, 2))
        expected = mixture_values(pts, *triple)
        np.testing.assert_allclose(mix.values(pts), expected, atol=1e-12)

    def test_supremum_is_max_weight(self):
        mix = GaussianMaxMixture(
            [0.3, 1.0, 0.7],
            [[0.0], [2.0], [5.0]],
            np.ones((3, 1, 1)),
        )
        assert mix.max_weight == 1.0
        assert mix.argmax_component() == 1
        assert mix.is_normalized
        # The supremum is attained at the heaviest mean and nowhere exceeded.
        assert value(mix, 2.0) == 1.0
        assert mix.values(np.linspace(-5, 10, 301)[:, None]).max() <= 1.0

    def test_normalized_rescales_globally(self):
        # Renormalisation lives in reduce: one global constant, the max
        # weight, divides every weight; the components keep their means.
        mix = GaussianMaxMixture(
            [0.2, 0.5], [[0.0], [1.0]], np.ones((2, 1, 1))
        )
        keep_all = ReductionConfig(prune_ratio=0.0, merge_mahalanobis=0.0)
        norm = reduce(mix, keep_all)
        np.testing.assert_allclose(norm.weights, [1.0, 0.4])
        np.testing.assert_array_equal(norm.means, [[1.0], [0.0]])
        assert norm.is_normalized

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            GaussianMaxMixture([], np.zeros((0, 1)), np.zeros((0, 1, 1)))

    def test_overweight_rejected(self):
        with pytest.raises(ValueError):
            GaussianMaxMixture([1.2], [[0.0]], [[[1.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_means_rejected(self, bad):
        with pytest.raises(ValueError, match="means must be finite"):
            GaussianMaxMixture([1.0, 0.5], [[0.0, 1.0], [bad, 0.0]], np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_named(self, bad):
        with pytest.raises(ValueError, match="covariance is not finite"):
            single([0.0, 0.0], [[1.0, bad], [bad, 1.0]])


class TestComponentFusion:
    """Closed-form fusion of two one-component states.  With weight-1
    components, alpha is the weight of the unnormalised fused component."""

    def test_chernoff_frozen_example(self):
        # Unit-variance components at 0 and 2, equal split: the fused
        # component sits at 1 with unit variance and weight exp(-1/2).
        a, b = present(single(0.0, 1.0)), present(single(2.0, 1.0))
        fused = fuse_chernoff(a, b, 0.5)
        assert fused.alpha == pytest.approx(0.6065306597126334, abs=1e-15)
        assert fused.state.q_present == pytest.approx(fused.alpha, abs=1e-15)
        assert fused.state.q_absent == 1.0
        assert fused.state.spatial.n_components == 1
        assert fused.state.spatial.means[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert fused.state.spatial.covariances[0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_independent_frozen_example(self):
        a, b = present(single(0.0, 1.0)), present(single(2.0, 1.0))
        fused = fuse_independent(a, b)
        assert fused.alpha == pytest.approx(0.36787944117144233, abs=1e-15)
        assert fused.state.spatial.means[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert fused.state.spatial.covariances[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_independent_identical_halves_covariance(self):
        # Presence possibility 0.8 on both sides squares to 0.64, as the
        # weight of a 0.8-weighted component would.
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        s = present(single([1.0, -1.0], P), q_present=0.8)
        fused = fuse_independent(s, s)
        np.testing.assert_allclose(fused.state.spatial.covariances[0], P / 2, atol=1e-12)
        np.testing.assert_allclose(fused.state.spatial.means[0], [1.0, -1.0], atol=1e-12)
        assert fused.alpha == pytest.approx(1.0, abs=1e-12)
        assert fused.state.q_present == pytest.approx(0.64, abs=1e-12)
        assert fused.state.q_absent == 1.0

    @given(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_chernoff_pointwise_identity(self, omega, seed):
        rng = np.random.default_rng(seed)
        c1 = mk_mixture(random_mixture(rng, 2, max_comps=1))
        c2 = mk_mixture(random_mixture(rng, 2, max_comps=1))
        fused = fuse_chernoff(present(c1), present(c2), omega)
        pts = rng.uniform(-6, 6, size=(40, 2))
        got = fused.alpha * fused.state.spatial.values(pts)
        direct = c1.values(pts) ** (1 - omega) * c2.values(pts) ** omega
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-9)

    def test_chernoff_idempotent_on_component(self):
        P = np.array([[1.5, -0.2], [-0.2, 0.9]])
        s = present(single([0.5, 2.0], P))
        for omega in (0.1, 0.5, 0.9):
            fused = fuse_chernoff(s, s, omega)
            np.testing.assert_allclose(fused.state.spatial.covariances[0], P, atol=1e-12)
            np.testing.assert_allclose(fused.state.spatial.means[0], [0.5, 2.0], atol=1e-12)
            assert fused.alpha == pytest.approx(1.0, abs=1e-12)

    def test_omega_bounds(self):
        s = present(single(0.0, 1.0))
        for omega in (-0.2, 1.3, float("nan")):
            with pytest.raises(ValueError):
                fuse_chernoff(s, s, omega)

    def test_dimension_mismatch(self):
        a = present(single(0.0, 1.0))
        b = present(single([0.0, 0.0], np.eye(2)))
        with pytest.raises(ValueError):
            fuse_independent(a, b)
        with pytest.raises(ValueError):
            fuse_chernoff(a, b, 0.5)


class TestSupLinearGaussianProduct:
    def test_matches_refined_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dim = int(rng.integers(1, 3))
            H = np.eye(dim) + rng.uniform(-0.3, 0.3, size=(dim, dim))
            A = rng.normal(size=(dim, dim)) * 0.5
            P = A @ A.T + np.eye(dim) * rng.uniform(0.5, 2.0)
            B = rng.normal(size=(dim, dim)) * 0.5
            R = B @ B.T + np.eye(dim) * rng.uniform(0.5, 2.0)
            m = rng.uniform(-3, 3, size=dim)
            z = H @ m + rng.uniform(-2, 2, size=dim)

            def f(x, H=H, R=R, m=m, P=P, z=z):
                return gauss_value(z, H @ x, R) * gauss_value(x, m, P)

            oracle = refine_maximum(f, m - 30.0, m + 30.0)
            closed = sup_linear_gaussian_product(z, H, R, m, P)
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_perfect_measurement_is_one(self):
        m = np.array([1.0, 2.0])
        val = sup_linear_gaussian_product(m, np.eye(2), np.eye(2), m, np.eye(2))
        assert val == 1.0

    @pytest.mark.parametrize("name", ["z", "H", "R", "m", "P"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_argument_named(self, name, bad):
        args = {"z": np.zeros(2), "H": np.eye(2), "R": np.eye(2), "m": np.zeros(2), "P": np.eye(2)}
        args[name] = args[name].copy()
        args[name][0, ...] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            sup_linear_gaussian_product(**args)


def spd_stack(rng, shape, dim):
    A = rng.normal(size=(*shape, dim, dim))
    return A @ A.swapaxes(-1, -2) + rng.uniform(0.1, 2.0, size=(*shape, 1, 1)) * np.eye(dim)


class TestLogSupProduct:
    """The one kernel gives the bits of the two batched forms it replaced:
    update's (measurement, component) table and the (exponent, pair)
    table of _cross_arrays."""

    def test_matches_update_table_bitwise(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n_meas, n_comp, dim = (int(v) for v in rng.integers(1, [9, 18, 4]))
            S = spd_stack(rng, (n_comp,), dim)
            nu = rng.normal(scale=5.0, size=(n_meas, n_comp, dim))
            sol = np.linalg.solve(S[None, ...], nu[..., None])[..., 0]
            quad = np.maximum(np.einsum("mni,mni->mn", nu, sol), 0.0)
            np.testing.assert_array_equal(_log_sup_product(nu, S), -0.5 * quad)

    def test_matches_cross_table_bitwise(self):
        rng = np.random.default_rng(71)
        for trial in range(200):
            k = 19 if trial % 2 else int(rng.integers(1, 4))
            n1, n2, dim = (int(v) for v in rng.integers(1, [18, 18, 5]))
            e2 = rng.uniform(0.05, 1.0, size=k)[:, None, None, None, None]
            e1 = 1.0 - e2 if trial % 3 else np.ones_like(e2)
            covs1, covs2 = spd_stack(rng, (n1,), dim), spd_stack(rng, (n2,), dim)
            diff = rng.normal(scale=5.0, size=(n1, 1, dim)) - rng.normal(size=(1, n2, dim))
            spread = covs1[:, None] / e1 + covs2[None, :] / e2
            sol = np.linalg.solve(spread, diff[..., None])
            quad = np.maximum(np.einsum("abi,kabi->kab", diff, sol[..., 0]), 0.0)
            np.testing.assert_array_equal(_log_sup_product(diff, spread), -0.5 * quad)
