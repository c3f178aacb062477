"""Chernoff and independent-product fusion of filter states."""

import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import possfuse.fusion as fusion_mod
import possfuse.runner as runner_mod
from possfuse.bernoulli import BernoulliPossState, ReductionConfig, reduce
from possfuse.config import parse_experiment
from possfuse.fusion import (
    OMEGA_GRID,
    _fuse,
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
    no product table cached by an earlier fusion can serve it."""
    m = state.spatial
    mix = GaussianMaxMixture._derived(m.weights.copy(), m.means.copy(), m.covariances.copy())
    return BernoulliPossState(state.q_absent, state.q_present, mix)


def reference_select_omega(a, b):
    """The min-trace rule as a plain loop of whole trial fusions, each on
    fresh copies of the inputs."""
    traces = []
    for omega in OMEGA_GRID:
        mix = _fuse(fresh(a), fresh(b), 1.0 - omega, omega, None).state.spatial
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

    def record(a, b):
        pairs.append((a, b))
        return original(a, b)

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
        args_a = (np.log(a.weights), a.means, a.covariances)
        args_b = (np.log(b.weights), b.means, b.covariances)
        batched = _cross_arrays(e1, *args_a, e2, *args_b)
        assert batched[0].shape == (e1.size, a.n_components, b.n_components)
        for k in range(e1.size):
            single = _cross_arrays(e1[k : k + 1], *args_a, e2[k : k + 1], *args_b)
            for got, want in zip(batched, single):
                np.testing.assert_array_equal(got[k], want[0])

    def test_self_product_inverts_once(self, monkeypatch):
        a = sized_state(np.random.default_rng(4), 5).spatial
        args = (np.log(a.weights), a.means, a.covariances)
        e1 = np.array([1.0 - o for o in OMEGA_GRID])
        e2 = np.array(OMEGA_GRID)
        copied = _cross_arrays(e1, *args, e2, *(x.copy() for x in args))
        inverted = []
        original = np.linalg.inv

        def counting(M):
            inverted.append(M.shape)
            return original(M)

        monkeypatch.setattr(np.linalg, "inv", counting)
        shared = _cross_arrays(e1, *args, e2, *args)
        # One inverse of the component stack, one of the fused precisions.
        assert inverted == [a.covariances.shape, (e1.size, 5, 5, 4, 4)]
        for got, want in zip(shared, copied):
            assert got.tobytes() == want.tobytes()

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
            log_w, means, covs = original(*args)
            corrupt(log_w, covs)
            return log_w, means, covs

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


def one_row_fusion(a, b, e1, e2):
    """Unreduced fused mixture and log alpha from a one-row _cross_arrays
    call, kept, conditioned and checked on its own."""
    A, B = a.spatial, b.spatial
    log_w, means, covs = _cross_arrays(
        [e1], np.log(A.weights), A.means, A.covariances,
        [e2], np.log(B.weights), B.means, B.covariances,
    )
    log_w = log_w.reshape(-1)
    top = int(np.argmax(log_w))
    keep = np.exp(log_w - log_w[top]) >= WEIGHT_UNDERFLOW
    mix = GaussianMaxMixture._derived(
        np.exp(log_w[keep] - log_w[top]),
        means.reshape(-1, A.dim)[keep],
        _conditioned_covariance(covs.reshape(-1, A.dim, A.dim)[keep]),
    )
    return mix, float(log_w[top])


def assert_same_result(got, want):
    assert (got.normalizer, got.alpha) == (want.normalizer, want.alpha)
    assert (got.state.q_absent, got.state.q_present) == (want.state.q_absent, want.state.q_present)
    for field in ("weights", "means", "covariances"):
        g, w = getattr(got.state.spatial, field), getattr(want.state.spatial, field)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), field


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the _cross_arrays calls fusion makes."""
    calls = []
    original = fusion_mod._cross_arrays

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(fusion_mod, "_cross_arrays", counting)
    return calls


class TestProductTable:
    """One product table per fused pair serves the search and both fusions."""

    REDUCTION = ReductionConfig(prune_ratio=1e-3, merge_mahalanobis=2.0, max_components=100)

    def fusions(self, a, b, omegas, reduction):
        """Chernoff at each omega, then independent, in the runner's order."""
        return [fuse_chernoff(a, b, o, reduction) for o in omegas] + [
            fuse_independent(a, b, reduction)
        ]

    @pytest.mark.parametrize("reduction", [None, REDUCTION])
    @pytest.mark.parametrize("seed, n_a, n_b", [(20, 1, 1), (21, 2, 3), (22, 5, 4), (23, 3, 0)])
    def test_fusions_after_search_match_fresh_inputs(self, seed, n_a, n_b, reduction, kernel_calls):
        rng = np.random.default_rng(seed)
        a = sized_state(rng, n_a)
        b = a if n_b == 0 else sized_state(rng, n_b)
        omega = select_omega(a, b)
        assert kernel_calls == [len(OMEGA_GRID) + 1]
        other = 0.05 if omega != 0.05 else 0.95
        # The search's table serves every grid omega and the independent row.
        cached = self.fusions(a, b, [omega, other], reduction)
        assert kernel_calls == [len(OMEGA_GRID) + 1]
        # 0.37 is not on the grid: one new table serves it and the
        # independent fusion after it.
        cached += self.fusions(a, b, [0.37], reduction)
        assert kernel_calls == [len(OMEGA_GRID) + 1, 2]
        fa = fresh(a)
        fb = fa if b is a else fresh(b)
        assert select_omega(fa, fb) == omega
        want = self.fusions(fresh(a), fresh(b), [omega, other], reduction)
        want += self.fusions(fresh(a), fresh(b), [0.37], reduction)
        for got, expected in zip(cached, want):
            assert_same_result(got, expected)
        if reduction is None:
            for got, (e1, e2) in zip(
                cached, [(1.0 - omega, omega), (1.0 - other, other), (1.0, 1.0), (0.63, 0.37), (1.0, 1.0)]
            ):
                mix, log_alpha = one_row_fusion(a, b, e1, e2)
                assert got.alpha == math.exp(log_alpha)
                for field in ("weights", "means", "covariances"):
                    assert getattr(got.state.spatial, field).tobytes() == getattr(mix, field).tobytes()

    def test_table_is_never_used_for_another_pair(self, kernel_calls):
        rng = np.random.default_rng(30)
        a, b, c = (sized_state(rng, 3) for _ in range(3))
        select_omega(a, b)
        assert len(kernel_calls) == 1
        # Same shapes throughout, so a table wrongly reused would still fit.
        pairs = ((b, a), (a, c), (c, a))
        got = [self.fusions(x, y, [0.3], None) for x, y in pairs]
        # One new table per pair, which its independent fusion reuses.
        assert len(kernel_calls) == 1 + len(pairs)
        for (x, y), results in zip(pairs, got):
            for g, want in zip(results, self.fusions(fresh(x), fresh(y), [0.3], None)):
                assert_same_result(g, want)

    @pytest.mark.parametrize("self_fusion", [False, True])
    def test_multi_block_search_fuses_correctly(self, self_fusion, kernel_calls):
        rng = np.random.default_rng(31)
        a = sized_state(rng, 8)
        b = a if self_fusion else sized_state(rng, 8)
        omega = select_omega(a, b)
        # 64 pairs: 16 rows per block, so the grid and the independent row
        # take two blocks.
        search = [16, len(OMEGA_GRID) + 1 - 16]
        assert kernel_calls == search
        # The one table holds both blocks: rows from the first (0.05) and
        # the second (0.95 and independent) need no new table.
        got = {o: self.fusions(a, b, [o], None) for o in (omega, 0.05, 0.95)}
        assert kernel_calls == search
        assert omega == reference_select_omega(a, b)
        for o, results in got.items():
            for g, want in zip(results, self.fusions(fresh(a), fresh(b), [o], None)):
                assert_same_result(g, want)
            for g, (e1, e2) in zip(results, [(1.0 - o, o), (1.0, 1.0)]):
                mix, log_alpha = one_row_fusion(a, b, e1, e2)
                assert g.alpha == math.exp(log_alpha)
                for field in ("weights", "means", "covariances"):
                    assert getattr(g.state.spatial, field).tobytes() == getattr(mix, field).tobytes()

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
        # One table per step's pair, which takes one _cross_arrays call per
        # block of rows: one, or several once its (row, pair) combinations
        # outgrow SEARCH_BLOCK_PAIRS.  Counted at each step's last fusion,
        # with the pair it fused.  A fixed omega's table holds two rows,
        # the omega's and the independent one, however large.
        per_step = []
        inner = runner_mod.fuse_independent

        def marking(a, b, **kwargs):
            per_step.append((len(kernel_calls), a.spatial.n_components * b.spatial.n_components))
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", marking)
        sensors = [{"pd_true": p, "clutter_rate": clutter} for p in (0.8, 0.6)]
        cfg = parse_experiment(
            {"runs": 1, "scenario": {"sensors": sensors}, "fusion": {"omega_strategy": strategy}}
        )
        run_once(cfg, 0, mode)
        assert len(per_step) == cfg.scenario.steps
        counts = np.diff([0] + [n for n, _ in per_step])
        pairs = np.array([p for _, p in per_step])
        rows = len(OMEGA_GRID) + 1 if strategy == "min-trace" else 2
        per_call = np.maximum(1, fusion_mod.SEARCH_BLOCK_PAIRS // pairs)
        expected = -(-rows // per_call)
        assert (counts == expected).all()
        if clutter > 4.0:
            # Some tables take several blocks.
            assert (expected > 1).sum() >= 5


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
