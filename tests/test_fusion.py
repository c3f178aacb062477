"""Chernoff and independent-product fusion of filter states."""

import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import possfuse.fusion as fusion_mod
import possfuse.runner as runner_mod
from possfuse.bernoulli import BernoulliPossState, ReductionConfig, extract, reduce
from possfuse.cli import main
from possfuse.config import parse_experiment
from possfuse.fusion import (
    OMEGA_GRID,
    _fuse,
    _product_tables,
    fuse_chernoff,
    fuse_independent,
    parse_omega_strategy,
    select_omega,
    selftest,
)
from possfuse.gaussmax import (
    WEIGHT_UNDERFLOW,
    GaussianMaxMixture,
    _conditioned_covariance,
    _cross_arrays,
    _stacked_components,
)
from possfuse.runner import run_once
from support import (
    gauss_value,
    mixture_box,
    mixture_value,
    product_values,
    random_mixture,
    refine_maximum,
)


def single_comp_state(q0, q1, mean, var):
    mix = GaussianMaxMixture([1.0], [list(np.atleast_1d(mean))], [np.atleast_2d(var)])
    return BernoulliPossState(q0, q1, mix)


def random_state(rng, dim=2, max_comps=3):
    w, m, P = random_mixture(rng, dim, max_comps)
    q1 = 1.0
    q0 = float(rng.uniform(0.2, 1.0))
    if rng.uniform() < 0.5:
        q0, q1 = 1.0, float(rng.uniform(0.2, 1.0))
    return BernoulliPossState(q0, q1, GaussianMaxMixture(w, m, P)), (w, m, P)


class TestEndpoints:
    def test_omega_zero_returns_first_verbatim(self):
        rng = np.random.default_rng(1)
        a, _ = random_state(rng)
        b, _ = random_state(rng)
        res = fuse_chernoff(a, b, 0.0)
        assert res.state is a
        assert res.normalizer == 1.0
        assert res.alpha == 1.0

    def test_omega_too_small_to_fuse_returns_first_verbatim(self):
        # 1 - 5e-324 rounds to 1, so the exponents cannot sum to 1.
        rng = np.random.default_rng(4)
        a, _ = random_state(rng)
        b, _ = random_state(rng)
        res = fuse_chernoff(a, b, 5e-324)
        assert res.state is a
        assert (res.normalizer, res.alpha) == (1.0, 1.0)

    def test_omega_one_returns_second_verbatim(self):
        rng = np.random.default_rng(2)
        a, _ = random_state(rng)
        b, _ = random_state(rng)
        res = fuse_chernoff(a, b, 1.0)
        assert res.state is b

    def test_omega_out_of_range(self):
        rng = np.random.default_rng(3)
        a, _ = random_state(rng)
        with pytest.raises(ValueError):
            fuse_chernoff(a, a, -0.1)
        with pytest.raises(ValueError):
            fuse_chernoff(a, a, 1.01)


class TestIdempotence:
    @given(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_self_fusion_is_identity_pointwise(self, omega, seed):
        rng = np.random.default_rng(seed)
        a, triple = random_state(rng)
        res = fuse_chernoff(a, a, omega)
        lo, hi = mixture_box([triple])
        pts = np.column_stack(
            [rng.uniform(lo[k], hi[k], size=60) for k in range(2)]
        )
        got = res.state.spatial.values(pts)
        want = a.spatial.values(pts)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert res.state.q_absent == pytest.approx(a.q_absent, abs=1e-12)
        assert res.state.q_present == pytest.approx(a.q_present, abs=1e-12)

    def test_self_fusion_keeps_top_covariance(self):
        rng = np.random.default_rng(8)
        a, _ = random_state(rng)
        res = fuse_chernoff(a, a, 0.5)
        i = a.spatial.argmax_component()
        j = res.state.spatial.argmax_component()
        np.testing.assert_allclose(
            res.state.spatial.covariances[j], a.spatial.covariances[i], atol=1e-12
        )


def probe_points(rng, *triples, n=60):
    lo, hi = mixture_box(list(triples))
    return np.column_stack([rng.uniform(lo[k], hi[k], size=n) for k in range(lo.size)])


def assert_same_fusion(got, want, rtol):
    """Two unreduced fusion results describe the same possibility: equal
    existence pairs and constants, and equal spatial values pointwise."""
    for attr in ("normalizer", "alpha"):
        assert getattr(got, attr) == pytest.approx(getattr(want, attr), rel=rtol)
    for attr in ("q_absent", "q_present"):
        assert getattr(got.state, attr) == pytest.approx(getattr(want.state, attr), rel=rtol)


class TestAlgebraProperties:
    @given(st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_chernoff_swap_symmetry(self, omega, seed):
        # Covariance-intersection symmetry: exponents (1 - w, w) on (a, b)
        # are exponents (w, 1 - w) on (b, a).
        rng = np.random.default_rng(seed)
        a, ta = random_state(rng)
        b, tb = random_state(rng)
        ab = fuse_chernoff(a, b, omega)
        ba = fuse_chernoff(b, a, 1.0 - omega)
        assert_same_fusion(ab, ba, rtol=1e-9)
        pts = probe_points(rng, ta, tb)
        np.testing.assert_allclose(
            ab.state.spatial.values(pts), ba.state.spatial.values(pts), rtol=1e-9, atol=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_independent_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a, ta = random_state(rng)
        b, tb = random_state(rng)
        ab = fuse_independent(a, b)
        ba = fuse_independent(b, a)
        assert_same_fusion(ab, ba, rtol=1e-12)
        assert ab.state.spatial.n_components == ba.state.spatial.n_components
        pts = probe_points(rng, ta, tb)
        np.testing.assert_allclose(
            ab.state.spatial.values(pts), ba.state.spatial.values(pts), rtol=1e-12, atol=1e-15
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.5),
        st.floats(0.0, 4.0),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_keeps_supremum_at_one(self, seed, prune, merge, cap):
        rng = np.random.default_rng(seed)
        a, _ = random_state(rng, max_comps=6)
        b, _ = random_state(rng, max_comps=6)
        mixture = fuse_independent(a, b).state.spatial
        cfg = ReductionConfig(prune_ratio=prune, merge_mahalanobis=merge, max_components=cap)
        reduced = reduce(mixture, cfg)
        assert reduced.max_weight == 1.0
        assert 1 <= reduced.n_components <= min(cap, mixture.n_components)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reduce_without_pruning_or_merging_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        triple = random_mixture(rng, 2, max_comps=6)
        mixture = GaussianMaxMixture(*triple)
        cfg = ReductionConfig(prune_ratio=0.0, merge_mahalanobis=0.0, max_components=100)
        reduced = reduce(mixture, cfg)
        assert reduced.n_components == mixture.n_components
        # Components come back reordered by weight but bit for bit.
        order = np.argsort(-mixture.weights, kind="stable")
        np.testing.assert_array_equal(reduced.weights, mixture.weights[order])
        np.testing.assert_array_equal(reduced.means, mixture.means[order])
        np.testing.assert_array_equal(reduced.covariances, mixture.covariances[order])
        pts = probe_points(rng, triple)
        np.testing.assert_array_equal(reduced.values(pts), mixture.values(pts))


class TestFrozenExamples:
    def test_chernoff_two_singles(self):
        a = single_comp_state(0.5, 1.0, 0.0, 1.0)
        b = single_comp_state(0.5, 1.0, 2.0, 1.0)
        res = fuse_chernoff(a, b, 0.5)
        # alpha = exp(-1/2); the presence cell absorbs it, absence is 0.5,
        # so after normalisation absence = 0.5 * exp(1/2).
        assert res.alpha == pytest.approx(0.6065306597126334, abs=1e-15)
        assert res.normalizer == pytest.approx(0.6065306597126334, abs=1e-15)
        assert res.state.q_present == 1.0
        assert res.state.q_absent == pytest.approx(0.8243606353500641, abs=1e-14)
        assert res.state.spatial.n_components == 1
        assert res.state.spatial.means[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert res.state.spatial.covariances[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        assert res.state.spatial.weights[0] == 1.0

    def test_independent_two_singles(self):
        a = single_comp_state(1.0, 1.0, 0.0, 1.0)
        b = single_comp_state(1.0, 1.0, 2.0, 1.0)
        res = fuse_independent(a, b)
        assert res.alpha == pytest.approx(0.36787944117144233, abs=1e-15)
        assert res.state.spatial.covariances[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        # absence cell: 1 * 1 = 1; presence: 1 * 1 * alpha; the max is 1
        assert res.state.q_absent == 1.0
        assert res.state.q_present == pytest.approx(0.36787944117144233, abs=1e-14)

    def test_independent_identical_halves_top_covariance(self):
        rng = np.random.default_rng(21)
        a, _ = random_state(rng)
        res = fuse_independent(a, a)
        i = a.spatial.argmax_component()
        j = res.state.spatial.argmax_component()
        np.testing.assert_allclose(
            res.state.spatial.covariances[j],
            a.spatial.covariances[i] / 2.0,
            atol=1e-12,
        )


class TestAgainstGridOracle:
    @given(st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_chernoff_spatial_matches_product(self, omega, seed):
        rng = np.random.default_rng(seed)
        a, ta = random_state(rng, dim=1)
        b, tb = random_state(rng, dim=1)
        res = fuse_chernoff(a, b, omega)
        lo, hi = mixture_box([ta, tb])
        pts = np.linspace(lo[0], hi[0], 150)[:, None]
        direct = product_values(pts, ta, tb, 1.0 - omega, omega)
        got = res.state.spatial.values(pts) * res.alpha
        np.testing.assert_allclose(got, direct, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_independent_spatial_matches_product(self, seed):
        rng = np.random.default_rng(seed)
        a, ta = random_state(rng, dim=1)
        b, tb = random_state(rng, dim=1)
        res = fuse_independent(a, b)
        lo, hi = mixture_box([ta, tb])
        pts = np.linspace(lo[0], hi[0], 150)[:, None]
        direct = product_values(pts, ta, tb, 1.0, 1.0)
        got = res.state.spatial.values(pts) * res.alpha
        np.testing.assert_allclose(got, direct, atol=1e-9)

    def test_alpha_is_product_supremum(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, ta = random_state(rng, dim=1, max_comps=2)
            b, tb = random_state(rng, dim=1, max_comps=2)
            res = fuse_chernoff(a, b, 0.4)
            lo, hi = mixture_box([ta, tb])

            def f(x, ta=ta, tb=tb):
                return mixture_value(x, *ta) ** 0.6 * mixture_value(x, *tb) ** 0.4

            oracle = refine_maximum(f, lo, hi, iters=9, per_axis=201)
            assert res.alpha == pytest.approx(oracle, rel=1e-8)

    def test_existence_matches_direct_powers(self):
        rng = np.random.default_rng(29)
        for omega in (0.25, 0.5, 0.75):
            a, ta = random_state(rng, dim=1, max_comps=1)
            b, tb = random_state(rng, dim=1, max_comps=1)
            res = fuse_chernoff(a, b, omega)
            e1, e2 = 1.0 - omega, omega
            alpha = (
                ta[0][0] ** e1
                * tb[0][0] ** e2
                * gauss_value(
                    ta[1][0] - tb[1][0], [0.0], ta[2][0] / e1 + tb[2][0] / e2
                )
            )
            absent = a.q_absent**e1 * b.q_absent**e2
            present = a.q_present**e1 * b.q_present**e2 * alpha
            norm = max(absent, present)
            assert res.state.q_absent == pytest.approx(absent / norm, abs=1e-12)
            assert res.state.q_present == pytest.approx(present / norm, abs=1e-12)
            assert res.normalizer == pytest.approx(norm, rel=1e-12)


class TestConflictAndReduction:
    def test_total_conflict_raises(self):
        a = single_comp_state(1.0, 0.0, 0.0, 1.0)
        b = single_comp_state(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fuse_chernoff(a, b, 0.5)

    def test_zero_presence_survives_when_consistent(self):
        a = single_comp_state(1.0, 0.0, 0.0, 1.0)
        b = single_comp_state(1.0, 0.5, 0.0, 1.0)
        res = fuse_chernoff(a, b, 0.5)
        assert res.state.q_absent == 1.0
        assert res.state.q_present == 0.0

    def test_far_apart_sources_keep_every_fused_pair(self):
        # Every pair's log weight is about -801, below log WEIGHT_UNDERFLOW,
        # but relative to the row's largest the second pair weighs 0.9487.
        # Dropping by absolute weight would leave one mode of two.
        a = BernoulliPossState(1.0, 1.0, GaussianMaxMixture([1.0, 0.9], [[0.0, 3.0], [0.0, -3.0]], [np.eye(2)] * 2))
        b = BernoulliPossState(1.0, 1.0, GaussianMaxMixture([1.0], [[80.0, 0.0]], [np.eye(2)]))
        spread = np.linalg.inv(np.eye(2) / 0.5 + np.eye(2) / 0.5)
        lw = np.array([
            0.5 * math.log(w) - 0.5 * (m - [80.0, 0.0]) @ spread @ (m - [80.0, 0.0])
            for w, m in zip(a.spatial.weights, a.spatial.means)
        ])
        assert lw.max() < math.log(WEIGHT_UNDERFLOW)
        for reduction in (None, ReductionConfig()):
            mix = fuse_chernoff(a, b, 0.5, reduction).state.spatial
            np.testing.assert_allclose(mix.weights, np.exp(lw - lw.max()), rtol=1e-12)
            np.testing.assert_allclose(mix.weights, [1.0, math.sqrt(0.9)], rtol=1e-12)
            np.testing.assert_allclose(mix.means, [[40.0, 1.5], [40.0, -1.5]], atol=1e-12)

    def test_reduction_is_applied(self):
        rng = np.random.default_rng(40)
        a, _ = random_state(rng, dim=2, max_comps=4)
        b, _ = random_state(rng, dim=2, max_comps=4)
        cfg = ReductionConfig(prune_ratio=0.0, merge_mahalanobis=0.0, max_components=2)
        res = fuse_chernoff(a, b, 0.5, reduction=cfg)
        assert res.state.spatial.n_components <= 2
        res2 = fuse_independent(a, b, reduction=cfg)
        assert res2.state.spatial.n_components <= 2

    def test_dimension_mismatch(self):
        a = single_comp_state(1.0, 1.0, 0.0, 1.0)
        rng = np.random.default_rng(41)
        b, _ = random_state(rng, dim=2)
        with pytest.raises(ValueError):
            fuse_independent(a, b)


class TestOmegaStrategy:
    def test_parse_forms(self):
        assert parse_omega_strategy("fixed(0.25)") == 0.25
        assert parse_omega_strategy(" fixed(1) ") == 1.0
        assert parse_omega_strategy("min-trace") is None

    @pytest.mark.parametrize("bad", ["fixed(1.5)", "fixed(oops)", "fixed(nan)", "maximal", 1.2, -0.1])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_omega_strategy(bad)

    def test_min_trace_prefers_tighter_source(self):
        # Coincident means with variances 1 and 4: every weight on the
        # tighter source minimises the fused trace, so the grid picks its
        # lowest omega for source-2 weight.
        a = single_comp_state(1.0, 1.0, 0.0, 1.0)
        b = single_comp_state(1.0, 1.0, 0.0, 4.0)
        assert select_omega(a, b) == min(OMEGA_GRID)
        assert select_omega(b, a) == max(OMEGA_GRID)

    def test_min_trace_tie_breaks_to_balanced(self):
        a = single_comp_state(1.0, 1.0, 0.0, 1.0)
        assert select_omega(a, a) == 0.5


def sized_state(rng, n, dim=4):
    """Random state whose spatial mixture has exactly n components."""
    weights = rng.uniform(0.05, 1.0, size=n)
    weights[int(rng.integers(n))] = 1.0
    means = rng.uniform(-4.0, 4.0, size=(n, dim))
    A = rng.normal(size=(n, dim, dim)) * 0.5
    covs = A @ np.swapaxes(A, -1, -2) + np.eye(dim) * rng.uniform(0.4, 1.5, size=(n, 1, 1))
    return BernoulliPossState(1.0, float(rng.uniform(0.2, 1.0)), GaussianMaxMixture(weights, means, covs))


def fresh(state):
    """A copy of state whose mixture is a new object with copied arrays, so
    no product table filed for state's mixture can serve it."""
    m = state.spatial
    mix = GaussianMaxMixture._derived(m.weights.copy(), m.means.copy(), m.covariances.copy())
    return BernoulliPossState(state.q_absent, state.q_present, mix)


def reference_select_omega(a, b):
    """The min-trace rule as a plain loop of whole trial fusions, each on
    fresh copies of the inputs."""
    traces = []
    for omega in OMEGA_GRID:
        mix = _fuse(fresh(a), fresh(b), (1.0 - omega, omega), None).state.spatial
        traces.append(float(np.trace(mix.covariances[mix.argmax_component()])))
    floor = min(traces)
    tied = [o for o, t in zip(OMEGA_GRID, traces) if t - floor <= 1e-9 * floor]
    return min(tied, key=lambda o: (abs(o - 0.5), o))


@pytest.fixture(scope="module")
def dependent_pairs():
    """Every (a, b) pair that one min-trace fuse-dependent run fuses."""
    cfg = parse_experiment({"runs": 1, "fusion": {"omega_strategy": "min-trace"}})
    pairs = []
    original = runner_mod.select_omega

    def record(a, b, **kwargs):
        pairs.append((a, b))
        return original(a, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_mod, "select_omega", record)
        run_once(cfg, 0, "dependent")
    return pairs


class TestBatchedOmegaSearch:
    @pytest.mark.parametrize("seed, dim", [(0, 1), (1, 2), (2, 4), (3, 4)])
    def test_exponent_vector_matches_single_calls(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = sized_state(rng, int(rng.integers(1, 18)), dim).spatial
        b = sized_state(rng, int(rng.integers(1, 18)), dim).spatial
        e2 = np.array([*OMEGA_GRID, 1.0])
        e1 = np.array([*(1.0 - o for o in OMEGA_GRID), 1.0])
        components = _stacked_components([a, b])
        i1, i2 = grid_gather(a, b)
        pairs = i1.size
        rows = e1.size
        batched = _cross_arrays(
            components, np.repeat(e1, pairs), np.tile(i1, rows), np.repeat(e2, pairs), np.tile(i2, rows),
            np.full(rows, pairs), 0.0,
        )
        assert batched[1].shape == (rows * pairs,) and batched[2].all()
        for k in range(rows):
            single = _cross_arrays(components, np.full(pairs, e1[k]), i1, np.full(pairs, e2[k]), i2, [pairs], 0.0)
            assert batched[0][k] == single[0][0]
            for got, want in zip(batched[1:], single[1:]):
                np.testing.assert_array_equal(got[k * pairs : (k + 1) * pairs], want)

    def test_self_product_inverts_once(self, monkeypatch):
        a = sized_state(np.random.default_rng(4), 5)
        rows = [(1.0 - o, o) for o in OMEGA_GRID]
        (copied,) = _product_tables([(a.spatial, fresh(a).spatial)], rows)
        inverted = []
        original = np.linalg.inv

        def counting(M):
            inverted.append(M.shape)
            return original(M)

        monkeypatch.setattr(np.linalg, "inv", counting)
        (shared,) = _product_tables([(a.spatial, a.spatial)], rows)
        # One inverse of the component stack, one of the fused precisions.
        assert inverted == [a.spatial.covariances.shape, (len(rows) * 25, 4, 4)]
        assert_same_table(shared, copied)

    @pytest.mark.parametrize(
        "seed, n_a, n_b", [(10, 1, 1), (11, 1, 17), (12, 17, 1), (13, 3, 5), (14, 17, 17), (15, 16, 17)]
    )
    def test_matches_loop_of_trial_fusions(self, seed, n_a, n_b):
        rng = np.random.default_rng(seed)
        a = sized_state(rng, n_a)
        b = sized_state(rng, n_b)
        assert select_omega(a, b) == reference_select_omega(a, b)
        assert select_omega(b, a) == reference_select_omega(b, a)

    def test_matches_loop_on_dependent_run_states(self, dependent_pairs):
        assert len(dependent_pairs) == 50
        for a, b in dependent_pairs:
            assert select_omega(a, b) == reference_select_omega(a, b)

    def test_self_fusion_of_dependent_run_states_picks_balanced(self, dependent_pairs):
        # Fusing a state with itself gives the same trace at every omega up
        # to rounding, so the tie rule must return 0.5.
        multi = [a for a, _ in dependent_pairs if a.spatial.n_components > 1]
        assert len(multi) >= 5
        for s in multi:
            assert select_omega(s, s) == 0.5

    @staticmethod
    def _corrupting(monkeypatch, corrupt):
        original = fusion_mod._cross_arrays

        def patched(*args):
            *inputs, floor = args
            # Every combination's moments, kept after the corruption as
            # the kernel keeps them.  The views are in (row, i, j) order of
            # the 2 x 2 pair _pair returns, and log_w holds each log weight
            # relative to its row's largest.
            log_alpha, weights, _, means, covs = original(*inputs, 0.0)
            log_w = np.log(weights)
            before = log_w.copy()
            corrupt(log_w.reshape(-1, 2, 2), covs.reshape(-1, 2, 2, 2, 2))
            changed = ~(log_w == before)
            weights[changed] = np.exp(log_w[changed])
            kept = ~(weights < floor)
            return log_alpha, weights, kept, means[kept], covs[kept]

        monkeypatch.setattr(fusion_mod, "_cross_arrays", patched)

    def _pair(self):
        rng = np.random.default_rng(50)
        return sized_state(rng, 2, dim=2), sized_state(rng, 2, dim=2)

    def test_kept_non_positive_definite_trial_raises(self, monkeypatch):
        a, b = self._pair()

        def corrupt(log_w, covs):
            covs[7, 1, 0] = np.diag([1.0, -1.0])

        self._corrupting(monkeypatch, corrupt)
        with pytest.raises(ValueError, match="not positive definite"):
            select_omega(a, b)

    def test_kept_non_finite_trial_covariance_raises(self, monkeypatch):
        a, b = self._pair()

        def corrupt(log_w, covs):
            covs[3, 0, 1] = np.nan

        self._corrupting(monkeypatch, corrupt)
        with pytest.raises(ValueError, match="covariance"):
            select_omega(a, b)

    def test_non_finite_trial_weight_raises(self, monkeypatch):
        a, b = self._pair()

        def corrupt(log_w, covs):
            log_w[12, 1, 1] = np.nan

        self._corrupting(monkeypatch, corrupt)
        with pytest.raises(ValueError, match="weights must be finite"):
            select_omega(a, b)

    def test_weights_are_checked_before_covariances(self, monkeypatch):
        a, b = self._pair()

        def corrupt(log_w, covs):
            log_w[12, 1, 1] = np.nan
            covs[7, 1, 0] = np.diag([1.0, -1.0])

        self._corrupting(monkeypatch, corrupt)
        with pytest.raises(ValueError, match="weights must be finite"):
            select_omega(a, b)

    def test_underflowed_pair_is_not_checked(self, monkeypatch):
        # A pair whose weight underflows is dropped from the trial mixture,
        # so its covariance is never validated, as in a real fusion.
        a, b = self._pair()
        want = select_omega(a, b)

        def corrupt(log_w, covs):
            log_w[7, 1, 0] = -800.0
            covs[7, 1, 0] = np.diag([1.0, -1.0])

        self._corrupting(monkeypatch, corrupt)
        assert select_omega(a, b) == want

    def test_total_conflict_raises(self):
        a = single_comp_state(1.0, 0.0, 0.0, 1.0)
        b = single_comp_state(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="total conflict"):
            select_omega(a, b)


def grid_gather(a, b):
    """Indices into _stacked_components([a, b]) of every component pair
    (i, j) of mixtures a and b, in C order."""
    i1 = np.repeat(np.arange(a.n_components), b.n_components)
    i2 = a.n_components + np.tile(np.arange(b.n_components), a.n_components)
    return i1, i2


def one_row_fusion(a, b, e1, e2):
    """Unreduced fused mixture and log alpha from a one-row _cross_arrays
    call, kept, conditioned and checked on its own."""
    A, B = a.spatial, b.spatial
    i1, i2 = grid_gather(A, B)
    log_alpha, weights, _, means, covs = _cross_arrays(
        _stacked_components([A, B]), np.full(i1.size, e1), i1, np.full(i1.size, e2), i2, [i1.size], 0.0
    )
    keep = weights >= WEIGHT_UNDERFLOW
    mix = GaussianMaxMixture._derived(
        weights[keep], means[keep], _conditioned_covariance(covs[keep])
    )
    return mix, float(log_alpha[0])


def assert_same_table(got, want):
    assert (got.index, got.floor, got.bounds) == (want.index, want.floor, want.bounds)
    for field in ("log_alpha", "kept_weights", "means", "covs", "head_trace"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


def assert_same_result(got, want):
    assert (got.normalizer, got.alpha) == (want.normalizer, want.alpha)
    assert (got.state.q_absent, got.state.q_present) == (want.state.q_absent, want.state.q_present)
    for field in ("weights", "means", "covariances"):
        g, w = getattr(got.state.spatial, field), getattr(want.state.spatial, field)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), field


@pytest.fixture
def kernel_calls(monkeypatch):
    """The combinations of each _cross_arrays call fusion makes."""
    calls = []
    original = fusion_mod._cross_arrays

    def counting(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(fusion_mod, "_cross_arrays", counting)
    return calls


class TestProductTable:
    """One product table per fused pair serves the search and both fusions."""

    REDUCTION = ReductionConfig(prune_ratio=1e-3, merge_mahalanobis=2.0, max_components=100)

    def fusions(self, a, b, omegas, reduction, table=None):
        """Chernoff at each omega, then independent, in the runner's order."""
        return [fuse_chernoff(a, b, o, reduction, table=table) for o in omegas] + [
            fuse_independent(a, b, reduction, table=table)
        ]

    @pytest.mark.parametrize("reduction", [None, REDUCTION])
    @pytest.mark.parametrize("seed, n_a, n_b", [(20, 1, 1), (21, 2, 3), (22, 5, 4), (23, 3, 0)])
    def test_fusions_after_search_match_fresh_inputs(self, seed, n_a, n_b, reduction, kernel_calls):
        rng = np.random.default_rng(seed)
        a = sized_state(rng, n_a)
        b = a if n_b == 0 else sized_state(rng, n_b)
        pairs = a.spatial.n_components * b.spatial.n_components
        omega = select_omega(a, b)
        other = 0.05 if omega != 0.05 else 0.95
        # 0.37 is not on the grid.
        got = self.fusions(a, b, [omega, other, 0.37], reduction)
        # Given no table, nothing is kept, and each call builds a table of
        # the rows it reads alone: the search one of the grid, each fusion
        # one of its own row.
        assert kernel_calls == [len(OMEGA_GRID) * pairs] + [pairs] * 3 + [pairs]
        fa = fresh(a)
        fb = fa if b is a else fresh(b)
        assert select_omega(fa, fb) == omega
        want = self.fusions(fresh(a), fresh(b), [omega, other, 0.37], reduction)
        for g, expected in zip(got, want):
            assert_same_result(g, expected)

    def test_table_is_never_used_for_another_pair(self, kernel_calls):
        rng = np.random.default_rng(30)
        a, b, c = (sized_state(rng, 3) for _ in range(3))
        # Same shapes throughout, so a table served to the wrong pair would
        # still fit.
        pairs = [(a, b), (b, a), (a, c), (c, a)]
        got, filed = [], []
        for x, y, table in fusion_mod._prefilled(pairs, 0.3, None):
            filed.append(table)
            got.append(self.fusions(x, y, [0.3], None, table))
        # One group, one kernel call; every fusion read its own pair's table.
        assert kernel_calls == [len(pairs) * 2 * 9]
        assert [table.pair for table in filed] == [(x.spatial, y.spatial) for x, y in pairs]
        # A table handed to another pair is not read: that call builds its own.
        assert_same_result(fuse_independent(b, a, table=filed[0]), got[1][-1])
        assert kernel_calls == [len(pairs) * 2 * 9, 9]
        for (x, y), results, table in zip(pairs, got, filed):
            for g, want in zip(results, self.fusions(fresh(x), fresh(y), [0.3], None)):
                assert_same_result(g, want)
                # A fused mixture copies its slice of the table.
                assert not np.shares_memory(g.state.spatial.covariances, table.covs)

    @pytest.mark.parametrize("self_fusion", [False, True])
    def test_multi_block_search_fuses_correctly(self, self_fusion, kernel_calls):
        rng = np.random.default_rng(31)
        a = sized_state(rng, 8)
        b = a if self_fusion else sized_state(rng, 8)
        for x, y, table in fusion_mod._prefilled([(a, b)], None, None):
            omega = select_omega(x, y, table=table)
            got = {o: self.fusions(x, y, [o], None, table) for o in (omega, 0.05, 0.95)}
        # 64 pairs: 16 rows per block, so the grid and the independent row
        # take two blocks.  The one table holds both: the search and rows
        # from the first (0.05) and the second (0.95 and independent) block
        # need no other.
        assert kernel_calls == [16 * 64, (len(OMEGA_GRID) + 1 - 16) * 64]
        assert omega == reference_select_omega(a, b)
        for o, results in got.items():
            for g, want in zip(results, self.fusions(fresh(a), fresh(b), [o], None)):
                assert_same_result(g, want)
            for g, (e1, e2) in zip(results, [(1.0 - o, o), (1.0, 1.0)]):
                mix, log_alpha = one_row_fusion(a, b, e1, e2)
                assert g.alpha == math.exp(log_alpha)
                take = np.argsort(-mix.weights, kind="stable")
                for field in ("weights", "means", "covariances"):
                    assert getattr(g.state.spatial, field).tobytes() == getattr(mix, field)[take].tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([None, 0.3, 0.5]),
        st.sampled_from([None, ReductionConfig(), ReductionConfig(prune_ratio=0.2, max_components=2)]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_argument_never_changes_a_result(self, seed, n_a, n_b, omega, reduction, self_fusion):
        # omega None is a min-trace step.  Each call gives the same result
        # with its group's table, with none, and with a table built for
        # another pair (of the same shapes, so a misread would fit), for
        # the swapped pair, at another floor or without the rows it needs.
        rng = np.random.default_rng(seed)
        a = sized_state(rng, n_a)
        b = a if self_fusion else sized_state(rng, n_b)
        c = sized_state(rng, n_b)
        ((x, y, own),) = fusion_mod._prefilled([(a, b)], omega, reduction)
        assert (x, y) == (a, b) and own.pair == (a.spatial, b.spatial)
        rows = list(own.index)
        floor = fusion_mod._floor(reduction)
        others = [
            _product_tables([(a.spatial, c.spatial)], rows, floor)[0],
            _product_tables([(b.spatial, a.spatial)], rows, floor)[0],
            _product_tables([(a.spatial, b.spatial)], rows, 0.5 if floor < 0.5 else WEIGHT_UNDERFLOW)[0],
            _product_tables([(a.spatial, b.spatial)], [fusion_mod.INDEPENDENT], floor)[0],
        ]
        want_omega = select_omega(a, b) if omega is None else omega
        want = (fuse_chernoff(a, b, want_omega, reduction), fuse_independent(a, b, reduction))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            inner = fusion_mod._cross_arrays
            mp.setattr(fusion_mod, "_cross_arrays", lambda *args: calls.append(1) or inner(*args))
            got_omega = select_omega(a, b, table=own) if omega is None else omega
            got = (
                fuse_chernoff(a, b, got_omega, reduction, table=own),
                fuse_independent(a, b, reduction, table=own),
            )
            # The group's table serves all three calls.
            assert calls == []
            for table in others:
                assert select_omega(a, b, table=table) == select_omega(a, b)
                got += (
                    fuse_chernoff(a, b, want_omega, reduction, table=table),
                    fuse_independent(a, b, reduction, table=table),
                )
        for g, w in zip(got, want * (1 + len(others))):
            assert_same_result(g, w)

    def test_self_fused_mixture_is_freed_without_gc(self):
        state = sized_state(np.random.default_rng(32), 3)
        mixture = weakref.ref(state.spatial)
        gc.disable()
        try:
            select_omega(state, state)
            fuse_chernoff(state, state, 0.37)
            fuse_independent(state, state)
            del state
            assert mixture() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("self_fusion", [False, True])
    def test_fusion_leaves_no_attribute_on_its_inputs(self, self_fusion):
        rng = np.random.default_rng(34)
        a = sized_state(rng, 3)
        b = a if self_fusion else sized_state(rng, 2)
        self.fusions(a, b, [select_omega(a, b), 0.37], None)
        for state in (a, b):
            assert set(vars(state.spatial)) == {"weights", "means", "covariances"}

    def test_mixture_with_cached_table_pickles(self):
        a, b = (sized_state(np.random.default_rng(33), 2) for _ in range(2))
        fuse_chernoff(a, b, 0.5)
        back = pickle.loads(pickle.dumps(a))
        for field in ("weights", "means", "covariances"):
            assert getattr(back.spatial, field).tobytes() == getattr(a.spatial, field).tobytes()
        assert_same_result(fuse_chernoff(back, b, 0.5), fuse_chernoff(a, b, 0.5))

    @pytest.mark.parametrize(
        "mode, strategy, clutter",
        [
            pytest.param("dependent", "min-trace", 4.0, id="dependent-min-trace"),
            pytest.param("independent", "fixed(0.5)", 4.0, id="independent-fixed(0.5)"),
            pytest.param("independent", "min-trace", 4.0, id="independent-min-trace"),
            pytest.param("dependent", "min-trace", 20.0, id="dependent-min-trace-clutter20"),
            pytest.param("independent", "fixed(0.5)", 20.0, id="independent-fixed(0.5)-clutter20"),
        ],
    )
    def test_one_kernel_call_per_fused_pair_per_step(self, mode, strategy, clutter, kernel_calls, monkeypatch):
        # A run builds its steps' tables in groups of consecutive steps
        # holding at most SEARCH_BLOCK_PAIRS (row, component pair)
        # combinations, one kernel call each.  A step whose table is larger
        # is a group of its own, built in blocks of whole rows within the
        # budget; only a row larger than the budget exceeds it, alone.  A
        # fixed omega's table holds two rows, the omega's and the
        # independent one, however large.
        sizes = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            sizes.append(a.spatial.n_components * b.spatial.n_components)
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", recording)
        sensors = [{"pd_true": p, "clutter_rate": clutter} for p in (0.8, 0.6)]
        cfg = parse_experiment(
            {"runs": 1, "scenario": {"sensors": sensors}, "fusion": {"omega_strategy": strategy}}
        )
        run_once(cfg, 0, mode)
        assert len(sizes) == cfg.scenario.steps
        rows = len(OMEGA_GRID) + 1 if strategy == "min-trace" else 2
        budget = fusion_mod.SEARCH_BLOCK_PAIRS
        expected, filled = [], 0
        for n in sizes:
            if filled and filled + rows * n > budget:
                expected.append(filled)
                filled = 0
            if rows * n <= budget:
                filled += rows * n
                continue
            per_call = max(1, budget // n)
            expected += [n * min(per_call, rows - r) for r in range(0, rows, per_call)]
        assert kernel_calls == expected + [filled] * (filled > 0)
        assert all(n <= budget or n in sizes for n in kernel_calls)
        if clutter > 4.0:
            # Some tables take several blocks.
            assert sum(rows * n > budget for n in sizes) >= 5
        else:
            assert len(kernel_calls) < cfg.scenario.steps / 5

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_build_equals_one_pair_builds(self, data):
        # Random pair lists, self pairs and mixed sizes included, in blocks
        # that split rows of different pairs apart or together.
        dim = data.draw(st.integers(1, 4), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4), label="sizes")
        mixtures = [sized_state(rng, n, dim).spatial for n in sizes]
        pick = st.integers(0, len(mixtures) - 1)
        picks = data.draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=6), label="pairs")
        pairs = [(mixtures[i], mixtures[j]) for i, j in picks]
        omega = data.draw(st.sampled_from([None, 0.3, 0.5]), label="omega")
        rows = fusion_mod._SEARCH_ROWS if omega is None else [(1.0 - omega, omega), fusion_mod.INDEPENDENT]
        budget = data.draw(st.sampled_from([1, 50, 1024]), label="budget")
        floor = data.draw(st.sampled_from([WEIGHT_UNDERFLOW, 1e-3, 0.5]), label="floor")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fusion_mod, "SEARCH_BLOCK_PAIRS", budget)
            batch = _product_tables(pairs, rows, floor)
        for pair, got in zip(pairs, batch):
            (want,) = _product_tables([pair], rows, floor)
            assert_same_table(got, want)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([0.3, 0.5, None]),
        st.sampled_from(
            [None, ReductionConfig(), ReductionConfig(prune_ratio=0.2, max_components=2),
             ReductionConfig(prune_ratio=0.0, max_components=1)]
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_fusion_is_a_leading_slice_of_its_row(self, seed, n_a, n_b, omega, reduction, ties):
        # omega None is the independent fusion.  With ties, b's components
        # come in pairs mirrored through the origin and a has a component
        # there, so pairs of equal weight and different means occur.
        rng = np.random.default_rng(seed)
        a, b = sized_state(rng, n_a), sized_state(rng, n_b)
        if ties:
            a, b = with_origin_component(a), mirrored(b)
        if omega is None:
            row, result = fusion_mod.INDEPENDENT, fuse_independent(a, b, reduction)
        else:
            row, result = (1.0 - omega, omega), fuse_chernoff(a, b, omega, reduction)
        floor = fusion_mod._floor(reduction)
        (table,) = _product_tables([(a.spatial, b.spatial)], [row], floor)
        lo, hi = table.bounds
        cut = hi if reduction is None else min(hi, lo + reduction.max_components)
        assert result.alpha == math.exp(table.log_alpha[0])
        got = result.state.spatial
        columns = {"weights": table.kept_weights, "means": table.means, "covariances": table.covs}
        for field, column in columns.items():
            assert getattr(got, field).tobytes() == column[lo:cut].tobytes(), field
        # The row holds every pair kept at the floor, heaviest first, ties
        # in pair order: a stable sort of the pairs in C order.
        mix, _ = one_row_fusion(a, b, *row)
        take = np.argsort(-mix.weights, kind="stable")
        take = take[mix.weights[take] >= floor]
        for field, column in columns.items():
            assert column[lo:hi].tobytes() == getattr(mix, field)[take].tobytes(), field
        if ties and reduction is None:
            assert (np.diff(table.kept_weights) == 0.0).any()


def with_origin_component(state):
    """state with its first component's mean moved to the origin."""
    m = state.spatial
    means = m.means.copy()
    means[0] = 0.0
    return BernoulliPossState(state.q_absent, state.q_present, GaussianMaxMixture(m.weights, means, m.covariances))


def mirrored(state):
    """state with each component doubled into a pair mirrored through the
    origin, of equal weight and covariance."""
    m = state.spatial
    means = np.stack([m.means, -m.means], axis=1).reshape(-1, m.dim)
    mix = GaussianMaxMixture(np.repeat(m.weights, 2), means, np.repeat(m.covariances, 2, axis=0))
    return BernoulliPossState(state.q_absent, state.q_present, mix)


def assert_relatively_close(got, want, rtol=1e-12):
    """Every entry of got within rtol of want, relative to want's largest
    magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestKeptByWeight:
    """A reduced fusion keeps fused pairs by weight alone: every pair at
    or above the floor, heaviest first, up to the cap, never merged."""

    RUNNER = ReductionConfig()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_self_fusion_returns_the_input_estimate(self, seed, n):
        rng = np.random.default_rng(seed)
        # Presence above absence, so that extract reports the top component.
        state = BernoulliPossState(float(rng.uniform(0.1, 0.9)), 1.0, sized_state(rng, n).spatial)
        want = extract(state)
        for omega in OMEGA_GRID:
            got = extract(fuse_chernoff(state, state, omega, self.RUNNER).state)
            assert_relatively_close(got.mean, want.mean)
            assert_relatively_close(got.covariance, want.covariance)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_half_chernoff_and_independent_share_the_head(self, seed, n_a, n_b, reduced):
        # Every log weight, precision and spread of the two fusions differs
        # by a power of two, which rounding preserves.
        rng = np.random.default_rng(seed)
        a, b = sized_state(rng, n_a), sized_state(rng, n_b)
        reduction = self.RUNNER if reduced else None
        chernoff = fuse_chernoff(a, b, 0.5, reduction).state.spatial
        independent = fuse_independent(a, b, reduction).state.spatial
        i, j = chernoff.argmax_component(), independent.argmax_component()
        assert chernoff.means[i].tobytes() == independent.means[j].tobytes()
        assert chernoff.covariances[i].tobytes() == (2.0 * independent.covariances[j]).tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-3, 0.2]),
        st.sampled_from([1, 2, 100]),
        st.sampled_from([0.3, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_keeps_the_heaviest_unreduced_pairs(self, seed, prune, cap, omega):
        rng = np.random.default_rng(seed)
        a, b = sized_state(rng, int(rng.integers(1, 7))), sized_state(rng, int(rng.integers(1, 7)))
        reduction = ReductionConfig(prune_ratio=prune, merge_mahalanobis=1e6, max_components=cap)

        def fused(x, y, reduction):
            if omega is None:
                return fuse_independent(x, y, reduction)
            return fuse_chernoff(x, y, omega, reduction)

        got = fused(a, b, reduction)
        whole = fused(fresh(a), fresh(b), None)
        assert (got.normalizer, got.alpha) == (whole.normalizer, whole.alpha)
        w = whole.state.spatial.weights
        take = np.argsort(-w, kind="stable")
        take = take[w[take] >= prune][:cap]
        for field in ("weights", "means", "covariances"):
            want = getattr(whole.state.spatial, field)[take]
            assert getattr(got.state.spatial, field).tobytes() == want.tobytes(), field

    @given(st.integers(0, 2**32 - 1), st.sampled_from([WEIGHT_UNDERFLOW, 1e-3, 0.3, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_kernel_moments_at_a_floor_equal_every_moment(self, seed, floor):
        rng = np.random.default_rng(seed)
        a = sized_state(rng, int(rng.integers(1, 8))).spatial
        b = sized_state(rng, int(rng.integers(1, 8))).spatial
        components = _stacked_components([a, b])
        i1, i2 = grid_gather(a, b)
        rows = [(1.0 - o, o) for o in OMEGA_GRID] + [(1.0, 1.0)]
        e1, e2 = (np.repeat(e, i1.size) for e in np.array(rows).T)
        args = (components, e1, np.tile(i1, len(rows)), e2, np.tile(i2, len(rows)), np.full(len(rows), i1.size))
        log_alpha, weights, kept, means, covs = _cross_arrays(*args, floor)
        every = _cross_arrays(*args, 0.0)
        assert every[2].all()
        assert log_alpha.tobytes() == every[0].tobytes() and weights.tobytes() == every[1].tobytes()
        np.testing.assert_array_equal(kept, weights >= floor)
        assert means.tobytes() == every[3][kept].tobytes()
        assert covs.tobytes() == every[4][kept].tobytes()

    PRUNED = ReductionConfig(prune_ratio=0.3, max_components=3)
    CAPPED = ReductionConfig(max_components=2)

    @pytest.mark.parametrize(
        "first, then",
        [(RUNNER, None), (None, RUNNER), (RUNNER, PRUNED), (PRUNED, RUNNER), (RUNNER, CAPPED)],
        ids=["reduced-then-unreduced", "unreduced-then-reduced", "floor-raised", "floor-lowered", "same-floor"],
    )
    def test_table_serves_only_its_floor(self, first, then, kernel_calls):
        rng = np.random.default_rng(60)
        a, b = sized_state(rng, 5), sized_state(rng, 4)
        for x, y, table in fusion_mod._prefilled([(a, b)], 0.37, first):
            filed = fuse_chernoff(x, y, 0.37, first, table=table)
            got = fuse_chernoff(x, y, 0.37, then, table=table)
        # The group's table serves a fusion at its own floor, whatever the
        # cap; a fusion at any other floor builds its own table.
        own = fusion_mod._floor(first) == fusion_mod._floor(then)
        assert len(kernel_calls) == 2 - own
        assert_same_result(filed, fuse_chernoff(fresh(a), fresh(b), 0.37, first))
        assert_same_result(got, fuse_chernoff(fresh(a), fresh(b), 0.37, then))

    @pytest.mark.parametrize("strategy", ["fixed(0.5)", "min-trace"])
    @pytest.mark.parametrize("clutter", [4.0, 20.0])
    def test_dependent_chernoff_trace_equals_single(self, strategy, clutter):
        sensors = [{"pd_true": p, "clutter_rate": clutter} for p in (0.8, 0.6)]
        cfg = parse_experiment(
            {"runs": 1, "scenario": {"sensors": sensors}, "fusion": {"omega_strategy": strategy}}
        )
        record = run_once(cfg, 0, "dependent")
        single, chernoff = record.series["single"], record.series["chernoff"]
        assert any(est is not None for est in single.estimates)
        for got, want in zip(chernoff.estimates, single.estimates):
            assert (got is None) == (want is None)
            if want is not None:
                assert_relatively_close(np.trace(got.covariance), np.trace(want.covariance))

    @pytest.mark.parametrize("cap", [100, 1])
    def test_zero_prune_ratio_keeps_every_survivor(self, cap, tmp_path, monkeypatch):
        # The floor is WEIGHT_UNDERFLOW, not 0: a pair whose weight
        # underflowed to 0 would fail the weight check.
        monkeypatch.setenv("POSSFUSE_THREADS", "1")
        calls = []
        for name in ("fuse_chernoff", "fuse_independent"):
            inner = getattr(runner_mod, name)

            def recording(*args, inner=inner, **kwargs):
                result = inner(*args, **kwargs)
                calls.append((inner, args, result))
                return result

            monkeypatch.setattr(runner_mod, name, recording)
        sensors = [{"pd_true": p, "clutter_rate": 20.0} for p in (0.8, 0.6)]
        # Five steps: unpruned states reach the cap of 100 components, and
        # every step then fuses 10,000 pairs at 20 rows.
        doc = {
            "scenario": {"sensors": sensors, "steps": 5, "death_step": 5},
            "filter": {"reduction": {"prune_ratio": 0.0, "max_components": cap}},
            "fusion": {"omega_strategy": "min-trace"},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert main(["fuse-dependent", "--config", str(path), "--runs", "1", "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 10
        lightest = 1.0
        for fuse, (a, b, *rest), result in calls:
            whole = fuse(fresh(a), fresh(b), *rest).state.spatial
            take = np.argsort(-whole.weights, kind="stable")[:cap]
            for field in ("weights", "means", "covariances"):
                want = getattr(whole, field)[take]
                assert getattr(result.state.spatial, field).tobytes() == want.tobytes(), field
            lightest = min(lightest, result.state.spatial.max_weight if cap == 1 else whole.weights[take].min())
        # Pairs far below the default prune ratio were kept.
        assert (lightest < 1e-3) == (cap > 1)


class TestSelftest:
    def test_selftest_passes_quietly(self, capsys):
        assert selftest(n_pairs=3, seed=5)
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    @pytest.mark.parametrize("kwargs", [{"n_pairs": 0}, {"n_pairs": -2}, {"seed": -1}])
    def test_selftest_rejects_bad_arguments(self, kwargs, capsys):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            selftest(**kwargs)
        assert capsys.readouterr().out == ""
