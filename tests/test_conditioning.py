"""Where covariances are checked: once where they enter, once where an
operation computes them, never again on the way through."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import possfuse.bernoulli as bernoulli_mod
import possfuse.fusion as fusion_mod
import possfuse.gaussmax as gaussmax_mod
import possfuse.simulate as simulate_mod
from possfuse.bernoulli import BernoulliPossState, ReductionConfig, predict, reduce, update
from possfuse.config import default_experiment
from possfuse.fusion import OMEGA_GRID, fuse_chernoff, fuse_independent, select_omega
from possfuse.gaussmax import GaussianMaxMixture
from possfuse.runner import _Filter
from possfuse.simulate import BirthConfig, Rect, Scan, build_birth_mixture
from support import random_mixture, reference_conditioned_covariance

CFG = default_experiment()
SETUP = _Filter(CFG, CFG.scenario.sensors[0])
REGION = Rect(0.0, 60.0, 0.0, 60.0)
NEAR_SINGULAR = np.diag([1.0, 1e-12, 1.0, 1.0])
GATE = gaussmax_mod.SCREEN_MIN_STACK


def random_state(rng, max_comps=5) -> BernoulliPossState:
    w, m, P = random_mixture(rng, 4, max_comps)
    mix = GaussianMaxMixture(w, m * 5.0 + 30.0, P)
    q = float(rng.uniform(0.2, 1.0))
    q0, q1 = (1.0, q) if rng.random() < 0.5 else (q, 1.0)
    return BernoulliPossState(q0, q1, mix)


def random_scan(rng, state) -> Scan:
    n = int(rng.integers(0, 4))
    near = state.spatial.means[:, [0, 2]]
    pts = near[rng.integers(0, near.shape[0], size=n)] + rng.normal(scale=2.0, size=(n, 2))
    return Scan(1, pts)


def assert_same_bits(a: GaussianMaxMixture, b: GaussianMaxMixture) -> None:
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.means.tobytes() == b.means.tobytes()
    assert a.covariances.tobytes() == b.covariances.tobytes()


def rebuilt(mix: GaussianMaxMixture) -> GaussianMaxMixture:
    return GaussianMaxMixture(mix.weights, mix.means, mix.covariances)


class TestOutputsAreConditioned:
    """Every operation's output already is what the public constructor
    makes of it, so an operation that forgets to condition what it
    computes fails here."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_filter_operations(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng)
        scan = random_scan(rng, state)
        birth = build_birth_mixture(scan, SETUP.birth)
        assert_same_bits(birth, rebuilt(birth))
        pred = predict(state, SETUP.motion, SETUP.phi, birth)
        assert_same_bits(pred.spatial, rebuilt(pred.spatial))
        post = update(pred, random_scan(rng, pred), SETUP.meas, SETUP.det)
        assert_same_bits(post.spatial, rebuilt(post.spatial))
        red = reduce(post.spatial, SETUP.reduction)
        assert_same_bits(red, rebuilt(red))

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fusions(self, seed, omega, reduced):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng), random_state(rng)
        reduction = SETUP.reduction if reduced else None
        for result in (fuse_chernoff(a, b, omega, reduction), fuse_independent(a, b, reduction)):
            assert_same_bits(result.state.spatial, rebuilt(result.state.spatial))


class TestConditionedOnce:
    """Each computed stack of covariances goes through
    _conditioned_covariance in exactly one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = gaussmax_mod._conditioned_covariance

        def counting(P, **kwargs):
            seen.append(np.shape(P))
            return original(P, **kwargs)

        for mod in (bernoulli_mod, fusion_mod, simulate_mod):
            monkeypatch.setattr(mod, "_conditioned_covariance", counting)
        return seen

    def test_per_operation(self, calls):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        scan = Scan(1, [[30.0, 30.0], [31.0, 29.0], [5.0, 50.0]])
        # The birth diagonal is conditioned once per BirthConfig: on the
        # first call, and never after.
        birth_cfg = replace(SETUP.birth)
        birth = build_birth_mixture(scan, birth_cfg)
        assert calls == [(4, 4)]
        calls.clear()
        again = build_birth_mixture(scan, birth_cfg)
        assert again.covariances.tobytes() == birth.covariances.tobytes()
        assert build_birth_mixture(Scan(1), birth_cfg) is build_birth_mixture(None, birth_cfg)
        assert calls == []
        pred = predict(state, SETUP.motion, SETUP.phi, birth)
        assert calls == [(state.spatial.n_components, 4, 4)]
        calls.clear()
        post = update(pred, scan, SETUP.meas, SETUP.det)
        assert calls == [(pred.spatial.n_components, 4, 4)]
        calls.clear()
        # An empty scan takes the general path, Kalman covariances included.
        update(pred, Scan(1), SETUP.meas, SETUP.det)
        assert calls == [(pred.spatial.n_components, 4, 4)]
        calls.clear()
        kept = reduce(state.spatial, ReductionConfig(prune_ratio=0.0, merge_mahalanobis=0.0))
        assert kept.n_components == state.spatial.n_components
        assert calls == []
        merged = reduce(post.spatial, ReductionConfig(prune_ratio=0.0, merge_mahalanobis=1e6))
        assert merged.n_components == 1
        assert calls == [(1, 4, 4)]
        calls.clear()
        fused = fuse_independent(state, state)
        assert calls == [(fused.state.spatial.n_components, 4, 4)]

    def test_birth_components_share_the_conditioned_diagonal(self):
        cfg = BirthConfig(region=REGION, pos_var=3.0, vel_var=0.25)
        birth = build_birth_mixture(Scan(1, [[1.0, 2.0], [3.0, 4.0]]), cfg)
        expected = gaussmax_mod._conditioned_covariance(np.diag([3.0, 0.25, 3.0, 0.25]))
        assert birth.covariances.shape == (2, 4, 4)
        for P in birth.covariances:
            assert P.tobytes() == expected.tobytes()


def screen_member(rng, kind: str, n: int, scale: float, symmetric: bool) -> np.ndarray:
    """One n x n test covariance of the given kind, largest eigenvalue
    about scale, in a random orientation.

    "near" has an eigenvalue ratio between 1e-10 and 1e-8, and "edge" one
    within rounding noise of EIG_FLOOR, where eigvalsh's own decision is
    noise.
    """
    if kind == "zero":
        return np.zeros((n, n))
    eigs = scale * 10.0 ** rng.uniform(-3.0, 0.0, size=n)
    eigs[0] = scale
    if kind == "near":
        eigs[-1] = scale * 10.0 ** rng.uniform(-10.0, -8.0)
    elif kind == "edge":
        eigs[-1] = scale * 1e-9 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -6.0))
    elif kind == "indefinite":
        eigs[-1] = -scale * 10.0 ** rng.uniform(-12.0, 0.0)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    P = (Q * eigs) @ Q.T
    # P + P.T is bitwise symmetric; P alone is only symmetric to rounding.
    return 0.5 * (P + P.T) if symmetric else P


def conditioning_outcome(condition, P: np.ndarray):
    """The bytes a conditioning function returns for P, or its error
    message; any warning fails the caller."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = condition(P)
        except ValueError as err:
            return "error", str(err)
    return out.shape, out.tobytes()


class TestCholeskyScreen:
    """The Cholesky screen changes the cost of the covariance check, never
    its outcome: every stack gets the bytes, or the error, that eigvalsh
    alone gives it."""

    @given(
        size=st.one_of(st.integers(1, 100), st.sampled_from([GATE - 1, GATE])),
        # 2 x 2 is where the determinant bound is tightest.
        n=st.sampled_from([1, 2, 2, 2, 3, 4]),
        log_scale=st.floats(-150.0, 150.0),
        bad=st.sampled_from(["none", "one", "one", "one", "some", "all"]),
        bad_kinds=st.sampled_from(
            [("near", "edge"), ("edge",), ("indefinite",), ("zero",), ("near", "edge", "indefinite", "zero")]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_eigvalsh_rule(self, size, n, log_scale, bad, bad_kinds, seed):
        rng = np.random.default_rng(seed)
        exponents = np.clip(log_scale + rng.uniform(-2.0, 2.0, size=size), -150.0, 150.0)
        kinds = np.full(size, "well", dtype=object)
        count = {"none": 0, "one": 1, "some": int(rng.integers(1, size + 1)), "all": size}[bad]
        kinds[rng.choice(size, count, replace=False)] = rng.choice(bad_kinds, count)
        symmetric = rng.random() < 0.8
        P = np.stack([
            screen_member(rng, kind, n, 10.0**e, symmetric) for kind, e in zip(kinds, exponents)
        ])
        want = conditioning_outcome(reference_conditioned_covariance, P)
        assert conditioning_outcome(gaussmax_mod._conditioned_covariance, P) == want

    def test_member_at_the_jitter_boundary(self):
        # A 2 x 2 member within rounding of EIG_FLOOR, alone among
        # well-conditioned ones: the screen must leave its fate to eigvalsh.
        rng = np.random.default_rng(11)
        for _ in range(200):
            members = [screen_member(rng, "well", 2, 1.0, True) for _ in range(GATE - 1)]
            P = np.stack(members + [screen_member(rng, "edge", 2, 1.0, True)])
            want = conditioning_outcome(reference_conditioned_covariance, P)
            assert conditioning_outcome(gaussmax_mod._conditioned_covariance, P) == want

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(P):
            calls.append(np.shape(P))
            return original(P)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_gate(self, eigvalsh_calls):
        stack = np.stack([np.diag([2.0, 1.0, 3.0, 0.5])] * GATE)
        for P in (stack[:1], stack[: GATE - 1], stack[0]):
            assert gaussmax_mod._conditioned_covariance(P) is P
        assert eigvalsh_calls == [(1, 4, 4), (GATE - 1, 4, 4), (4, 4)]
        eigvalsh_calls.clear()
        assert gaussmax_mod._conditioned_covariance(stack) is stack
        assert eigvalsh_calls == []
        # One near-singular member sends the whole stack through eigvalsh.
        stack[3] = NEAR_SINGULAR
        gaussmax_mod._conditioned_covariance(stack)
        assert eigvalsh_calls == [(GATE, 4, 4)]

    def test_search_table_needs_no_eigvalsh(self, eigvalsh_calls, monkeypatch):
        rng = np.random.default_rng(7)
        a, b = random_state(rng, max_comps=3), random_state(rng, max_comps=3)
        built = []
        inner = fusion_mod._product_tables

        def recording(*args):
            built.extend(inner(*args))
            return built[-1:]

        monkeypatch.setattr(fusion_mod, "_product_tables", recording)
        eigvalsh_calls.clear()
        select_omega(a, b)
        # One table of the 19 grid rows and the independent row, all
        # cleared by the screen.
        (table,) = built
        assert len(table.index) == len(OMEGA_GRID) + 1
        assert eigvalsh_calls == []


class TestJitterOnce:
    """A near-singular covariance is jittered once, where it enters; a
    component that passes through an operation keeps its bits."""

    def mixture(self):
        mix = GaussianMaxMixture(
            [1.0, 0.5], [[10.0, 0.0, 10.0, 0.0], [40.0, 0.0, 40.0, 0.0]], [NEAR_SINGULAR, np.eye(4)]
        )
        # Entry jitters the near-singular matrix by EIG_FLOOR * trace / n.
        assert mix.covariances[0, 1, 1] == 1e-12 + 1e-9 * (3.0 + 1e-12) / 4
        return mix

    def test_empty_scan_update_keeps_bits(self):
        mix = self.mixture()
        post = update(BernoulliPossState(1.0, 1.0, mix), Scan(1), SETUP.meas, SETUP.det)
        assert post.spatial.covariances.tobytes() == mix.covariances.tobytes()

    def test_reduce_keeps_bits_of_untouched_components(self):
        mix = self.mixture()
        red = reduce(mix, ReductionConfig())
        assert red.n_components == 2
        assert red.covariances.tobytes() == mix.covariances.tobytes()

    def test_stack_member_keeps_the_bits_it_has_alone(self):
        # Jitter on a near-singular member leaves the other members' bits
        # alone, signed zeros included, so a fusion's product table
        # conditions each row as a table of that row alone would.
        other = np.diag([2.0, 1.0, 3.0, 1.0])
        other[0, 1] = other[1, 0] = -0.0
        stack = gaussmax_mod._conditioned_covariance(np.stack([NEAR_SINGULAR, other]))
        for P, got in zip((NEAR_SINGULAR, other), stack):
            assert got.tobytes() == gaussmax_mod._conditioned_covariance(P).tobytes()


class TestDerivedConstructor:
    def test_freezes_without_copying(self):
        w, m, P = np.array([1.0, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
        mix = GaussianMaxMixture._derived(w, m, P)
        assert mix.weights is w and mix.means is m and mix.covariances is P
        for a in (w, m, P):
            assert not a.flags.writeable

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([1.0, np.nan], "finite and strictly positive"),
            ([1.0, np.inf], "finite and strictly positive"),
            ([1.0, 0.0], "finite and strictly positive"),
            ([1.0, -0.5], "finite and strictly positive"),
            ([1.0, 1.5], "must not exceed 1"),
        ],
    )
    def test_rejects_bad_weights(self, weights, match):
        with pytest.raises(ValueError, match=match):
            GaussianMaxMixture._derived(
                np.array(weights), np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_means(self, bad):
        means = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="means must be finite"):
            GaussianMaxMixture._derived(np.array([1.0, 0.5]), means, np.stack([np.eye(2)] * 2))

    def test_clips_weights_within_tolerance_to_one(self):
        mix = GaussianMaxMixture._derived(
            np.array([1.0 + 1e-13]), np.zeros((1, 1)), np.ones((1, 1, 1))
        )
        assert mix.weights[0] == 1.0


class TestPublicConstructor:
    def test_copies_its_input(self):
        w, m, P = np.array([1.0]), np.array([[1.0, 2.0]]), np.eye(2)[None]
        mix = GaussianMaxMixture(w, m, P)
        w[0], m[0, 0], P[0, 0, 0] = 0.5, 9.0, 9.0
        assert mix.weights[0] == 1.0 and mix.means[0, 0] == 1.0 and mix.covariances[0, 0, 0] == 1.0

    def test_near_symmetric_input_is_averaged(self):
        P = np.array([[2.0, 0.5 + 1e-12], [0.5, 1.0]])
        mix = GaussianMaxMixture([1.0], [0.0, 0.0], P)
        assert mix.covariances[0].tobytes() == (0.5 * (P + P.T)).tobytes()

    def test_signed_zeros_are_made_symmetric(self):
        mix = GaussianMaxMixture([1.0], [0.0, 0.0], np.array([[1.0, 0.0], [-0.0, 1.0]]))
        bits = mix.covariances[0].view(np.int64)
        assert (bits == bits.T).all()
