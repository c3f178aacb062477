"""Bernoulli possibilistic filter recursion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possfuse.bernoulli import (
    MERGE_TABLE_BUDGET,
    BernoulliPossState,
    DetectionPossibility,
    Estimate,
    MeasurementModel,
    MotionModel,
    ReductionConfig,
    TransitionPossibilityMatrix,
    _detected,
    _propagated,
    _survivors,
    extract,
    predict,
    probability_interval_to_possibility,
    reduce,
    update,
)
from possfuse.gaussmax import GaussianMaxMixture, sup_linear_gaussian_product
from possfuse.simulate import (
    BirthConfig,
    Rect,
    Scan,
    build_birth_mixture,
    cv_process_noise,
    cv_transition,
    position_observation,
)
from support import gauss_value, mixture_value, random_mixture, reduce_reference

BENCH_PHI = TransitionPossibilityMatrix.from_matrix([[1.0, 0.01], [0.01, 1.0]])
REGION = Rect(0.0, 60.0, 0.0, 60.0)


def planar_meas(clutter_rate=4.0, noise=1.0):
    """Position-only 2-D measurement model over the benchmark region."""
    return MeasurementModel(
        observation=np.eye(2),
        noise=noise * np.eye(2),
        clutter_rate=clutter_rate,
        region=REGION,
    )


class TestDetectionTransform:
    def test_benchmark_interval_is_exact(self):
        det = probability_interval_to_possibility(0.5, 1.0)
        assert det.detection == 1.0
        assert det.nondetection == 0.5

    def test_interior_interval(self):
        det = probability_interval_to_possibility(0.6, 0.9)
        assert det.detection == 1.0
        assert det.nondetection == pytest.approx(0.4444444444444445, abs=1e-16)

    def test_low_interval_keeps_nondetection_at_one(self):
        det = probability_interval_to_possibility(0.0, 0.4)
        assert det.nondetection == 1.0
        assert det.detection == 0.4

    def test_point_interval_half(self):
        det = probability_interval_to_possibility(0.5, 0.5)
        assert det.detection == 1.0
        assert det.nondetection == 1.0

    @pytest.mark.parametrize("lo,hi", [(0.9, 0.5), (-0.1, 0.5), (0.5, 1.1), (1.0, 1.0)])
    def test_invalid_intervals(self, lo, hi):
        with pytest.raises(ValueError):
            probability_interval_to_possibility(lo, hi)


class TestTransitionMatrix:
    def test_benchmark_matrix(self):
        assert BENCH_PHI.stay_absent == 1.0
        assert BENCH_PHI.become_present == 0.01
        assert BENCH_PHI.become_absent == 0.01
        assert BENCH_PHI.stay_present == 1.0

    def test_rows_must_be_max_normalized(self):
        with pytest.raises(ValueError):
            TransitionPossibilityMatrix.from_matrix([[0.9, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError):
            TransitionPossibilityMatrix.from_matrix([[1.0, 0.5], [0.1, 0.8]])

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            TransitionPossibilityMatrix.from_matrix([[1.0, -0.1], [0.1, 1.0]])
        with pytest.raises(ValueError):
            TransitionPossibilityMatrix.from_matrix([[1.0, 1.2], [0.1, 1.0]])


class TestModelInputs:
    NAN = float("nan")
    INF = float("inf")

    @pytest.mark.parametrize("bad", [NAN, INF])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_process_noise_named(self, bad, where):
        Q = np.eye(2)
        Q[where] = Q[where[::-1]] = bad
        with pytest.raises(ValueError, match="process noise must be finite"):
            MotionModel(np.eye(2), Q)

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_non_finite_transition_named(self, bad):
        F = np.eye(2)
        F[0, 1] = bad
        with pytest.raises(ValueError, match="transition matrix must be finite"):
            MotionModel(F, np.eye(2))

    def test_cv_process_noise_with_infinite_psd_named(self):
        with pytest.raises(ValueError, match="process noise must be finite"):
            MotionModel(cv_transition(2.0), cv_process_noise(2.0, self.INF))

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_non_finite_measurement_inputs_named(self, bad):
        with pytest.raises(ValueError, match="clutter rate must be positive and finite"):
            planar_meas(clutter_rate=bad)
        with pytest.raises(ValueError, match="observation matrix must be finite"):
            MeasurementModel(np.array([[1.0, bad]]), np.eye(1), 4.0, REGION)


def one_d_state(q0, q1, weights, means, variances):
    mix = GaussianMaxMixture(
        np.asarray(weights, dtype=float),
        np.asarray(means, dtype=float)[:, None],
        np.asarray(variances, dtype=float)[:, None, None],
    )
    return BernoulliPossState(q0, q1, mix)


class TestPredict:
    MOTION = MotionModel(np.array([[2.0]]), np.array([[0.5]]))
    BIRTH = GaussianMaxMixture([1.0], [[1.0]], [[[9.0]]])

    def test_existence_both_certain(self):
        state = one_d_state(1.0, 1.0, [1.0], [0.0], [1.0])
        pred = predict(state, self.MOTION, BENCH_PHI, self.BIRTH)
        assert pred.q_absent == 1.0
        assert pred.q_present == 1.0

    def test_existence_partial(self):
        state = one_d_state(0.2, 1.0, [1.0], [0.0], [1.0])
        pred = predict(state, self.MOTION, BENCH_PHI, self.BIRTH)
        assert pred.q_absent == 0.2
        assert pred.q_present == 1.0

        state = one_d_state(1.0, 0.05, [1.0], [0.0], [1.0])
        pred = predict(state, self.MOTION, BENCH_PHI, self.BIRTH)
        assert pred.q_absent == 1.0
        assert pred.q_present == 0.05

    def test_component_algebra(self):
        # Survival pushes (m, P) to (F m, F P F' + Q); the birth component
        # rides along scaled by become_present * q_absent.
        state = one_d_state(0.8, 1.0, [1.0, 0.6], [0.0, 3.0], [1.0, 2.0])
        pred = predict(state, self.MOTION, BENCH_PHI, self.BIRTH)
        assert pred.spatial.max_weight == 1.0
        np.testing.assert_allclose(pred.spatial.weights, [1.0, 0.6, 0.008], atol=1e-15)
        np.testing.assert_allclose(
            pred.spatial.means[:, 0], [0.0, 6.0, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            pred.spatial.covariances[:, 0, 0], [4.5, 8.5, 9.0], atol=1e-12
        )

    def test_pointwise_against_grid_supremum(self):
        # The predicted possibility at x' is the sup over x of
        # prior(x) * gauss(x'; F x, Q), maxed with the scaled birth and
        # renormalised.  The oracle does the sup by brute force.
        state = one_d_state(0.8, 1.0, [1.0, 0.6], [0.0, 3.0], [1.0, 2.0])
        pred = predict(state, self.MOTION, BENCH_PHI, self.BIRTH)

        xs = np.linspace(-6.0, 9.0, 30001)
        prior = np.maximum(
            1.0 * np.exp(-0.5 * (xs - 0.0) ** 2 / 1.0),
            0.6 * np.exp(-0.5 * (xs - 3.0) ** 2 / 2.0),
        )
        targets = np.linspace(-8.0, 14.0, 81)
        impl = pred.spatial.values(targets[:, None])
        for t, got in zip(targets, impl):
            transition = np.exp(-0.5 * (t - 2.0 * xs) ** 2 / 0.5)
            survival = 1.0 * float(np.max(prior * transition))
            birth = 0.008 * math.exp(-0.5 * (t - 1.0) ** 2 / 9.0)
            expected = max(survival, birth) / 1.0
            assert got == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("q", [(1.0, 1.0), (1.0, 0.0)])
    def test_impossible_presence_keeps_the_survival_branch(self, q):
        # No birth and no survival: the state is (1, 0), and its spatial
        # part is the survival branch at unit scale, as a certain survivor's.
        no_presence = TransitionPossibilityMatrix.from_matrix([[1.0, 0.0], [1.0, 0.0]])
        state = one_d_state(*q, [1.0, 0.6], [0.0, 3.0], [1.0, 2.0])
        pred = predict(state, self.MOTION, no_presence, self.BIRTH)
        assert (pred.q_absent, pred.q_present) == (1.0, 0.0)
        keep = TransitionPossibilityMatrix.from_matrix([[1.0, 0.0], [0.0, 1.0]])
        survivor = one_d_state(0.0, 1.0, [1.0, 0.6], [0.0, 3.0], [1.0, 2.0])
        want = predict(survivor, self.MOTION, keep, self.BIRTH).spatial
        for name in ("weights", "means", "covariances"):
            assert getattr(pred.spatial, name).tobytes() == getattr(want, name).tobytes(), name

    def test_component_whose_scaled_weight_underflows_is_dropped(self):
        # A subnormal q_present scales the lighter component's weight to
        # exactly 0, which the one underflow rule drops; with no birth, the
        # heavier component alone is left, at weight 1.
        q1 = 1.2e-322
        assert q1 * 0.006 == 0.0
        keep = TransitionPossibilityMatrix.from_matrix([[1.0, 0.0], [0.0, 1.0]])
        state = one_d_state(1.0, q1, [1.0, 0.006], [0.0, 3.0], [1.0, 2.0])
        pred = predict(state, self.MOTION, keep, self.BIRTH)
        assert (pred.q_absent, pred.q_present) == (1.0, q1)
        assert pred.spatial.n_components == 1
        assert pred.spatial.max_weight == 1.0
        assert pred.spatial.means[0, 0] == 0.0

    def test_dimension_mismatch(self):
        state = one_d_state(1.0, 1.0, [1.0], [0.0], [1.0])
        bad_motion = MotionModel(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            predict(state, bad_motion, BENCH_PHI, self.BIRTH)

    def test_unnormalized_birth_rejected(self):
        state = one_d_state(1.0, 1.0, [1.0], [0.0], [1.0])
        bad_birth = GaussianMaxMixture([0.5], [[0.0]], [[[1.0]]])
        with pytest.raises(ValueError):
            predict(state, self.MOTION, BENCH_PHI, bad_birth)


def planar_state(q0, q1, weights, means, covs):
    return BernoulliPossState(
        q0, q1, GaussianMaxMixture(weights, means, covs)
    )


DET_BENCH = probability_interval_to_possibility(0.5, 1.0)


def update_theta(state, scan, meas, det) -> float:
    """The update normaliser, read off the posterior existence pair.

    From a q = (1, 1) prior, update gives (1, theta) / max(1, theta):
    q_absent = 1 / theta when theta > 1, and q_present = theta otherwise.
    """
    assert state.q_absent == state.q_present == 1.0
    post = update(state, scan, meas, det)
    return 1.0 / post.q_absent if post.q_absent < 1.0 else post.q_present


def theta_oracle(weights, means, covs, points, meas, det) -> float:
    """max(d0, d1 * clutter ratio * max over z and i of w_i N(z; m_i, P_i + R)),
    for the identity observation of planar_meas, with explicit inverses."""
    best = max(
        (w * gauss_value(z, m, np.asarray(P) + meas.noise)
         for w, m, P in zip(weights, means, covs) for z in points),
        default=0.0,
    )
    return max(det.nondetection, det.detection * meas.clutter_ratio() * best)


class TestTheta:
    def test_empty_scan_gives_nondetection(self):
        state = planar_state(1.0, 1.0, [1.0], [[30.0, 30.0]], [np.eye(2)])
        theta = update_theta(state, Scan(1, np.empty((0, 2))), planar_meas(), DET_BENCH)
        assert theta == 0.5

    def test_single_component_single_point(self):
        meas = planar_meas(clutter_rate=4.0, noise=1.0)
        assert meas.clutter_ratio() == 900.0
        state = planar_state(1.0, 1.0, [1.0], [[10.0, 20.0]], [2.0 * np.eye(2)])
        z = np.array([11.0, 21.0])
        theta = update_theta(state, Scan(1, z[None, :]), meas, DET_BENCH)
        expected = 1.0 * 900.0 * gauss_value(z, [10.0, 20.0], 3.0 * np.eye(2))
        assert theta == pytest.approx(expected, rel=1e-12)

    def test_far_measurement_falls_back_to_nondetection(self):
        # Clutter ratio 1 and a hopeless match leave the non-detection
        # branch on top.
        meas = MeasurementModel(
            observation=np.eye(2),
            noise=np.eye(2),
            clutter_rate=3600.0,
            region=REGION,
        )
        state = planar_state(1.0, 1.0, [1.0], [[10.0, 10.0]], [np.eye(2)])
        scan = Scan(1, np.array([[50.0, 50.0]]))
        assert update_theta(state, scan, meas, DET_BENCH) == 0.5

    def test_max_over_measurements_and_components(self):
        meas = planar_meas()
        state = planar_state(
            1.0, 1.0,
            [1.0, 0.4],
            [[10.0, 10.0], [40.0, 40.0]],
            [np.eye(2), 2.0 * np.eye(2)],
        )
        scan = Scan(1, np.array([[12.0, 10.0], [40.5, 40.0]]))
        expected = theta_oracle(
            [1.0, 0.4], [[10.0, 10.0], [40.0, 40.0]], [np.eye(2), 2.0 * np.eye(2)],
            scan.points, meas, DET_BENCH,
        )
        theta = update_theta(state, scan, meas, DET_BENCH)
        assert theta == pytest.approx(expected, rel=1e-12)

    def test_matches_linear_gaussian_supremum(self):
        # Theta's detection term is the supremum that criterion 7 checks
        # against a refined grid, for any observation matrix.
        rng = np.random.default_rng(12)
        detected = 0
        for _ in range(200):
            nx, nz = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            H = rng.uniform(-1.0, 1.0, size=(nz, nx))
            A, B = rng.normal(size=(nx, nx)), rng.normal(size=(nz, nz))
            meas = MeasurementModel(
                observation=H,
                noise=B @ B.T + np.eye(nz),
                clutter_rate=float(rng.uniform(1.0, 4000.0)),
                region=REGION,
            )
            prior = GaussianMaxMixture([1.0], rng.uniform(-5.0, 5.0, size=nx), A @ A.T + np.eye(nx))
            m, P = prior.means[0], prior.covariances[0]
            z = H @ m + rng.normal(scale=2.0, size=nz)
            state = BernoulliPossState(1.0, 1.0, prior)
            theta = update_theta(state, Scan(1, z[None, :]), meas, DET_BENCH)
            sup = sup_linear_gaussian_product(z, H, meas.noise, m, P)
            expected = max(DET_BENCH.nondetection, DET_BENCH.detection * meas.clutter_ratio() * sup)
            assert theta == pytest.approx(expected, rel=1e-12)
            detected += theta > DET_BENCH.nondetection
        assert 50 < detected < 200


class TestUpdate:
    def test_empty_scan_keeps_spatial(self):
        state = planar_state(1.0, 1.0, [1.0, 0.5], [[10.0, 10.0], [20.0, 20.0]],
                             [np.eye(2), np.eye(2)])
        post = update(state, Scan(1, np.empty((0, 2))), planar_meas(), DET_BENCH)
        # theta = d0 cancels, so the mixture is untouched and existence
        # tilts toward absence by exactly d0.
        np.testing.assert_array_equal(post.spatial.weights, state.spatial.weights)
        np.testing.assert_array_equal(post.spatial.means, state.spatial.means)
        assert post.q_absent == 1.0
        assert post.q_present == 0.5

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0), st.booleans(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_empty_scan_keeps_every_component(self, seed, d, detection_top, q):
        # An empty scan goes through the general update with no table
        # entries: theta = d0, so the prior mixture comes back bit for bit
        # and existence becomes (q0, d0 q1) over its max.
        rng = np.random.default_rng(seed)
        w, m, P = random_mixture(rng, 2, max_comps=5)
        q0, q1 = (1.0, q) if detection_top else (q, 1.0)
        state = planar_state(q0, q1, w, m + 30.0, P)
        det = DetectionPossibility(nondetection=d, detection=1.0) if detection_top else (
            DetectionPossibility(nondetection=1.0, detection=d)
        )
        post = update(state, Scan(1, np.empty((0, 2))), planar_meas(), det)
        for field in ("weights", "means", "covariances"):
            got, prior = getattr(post.spatial, field), getattr(state.spatial, field)
            assert got.tobytes() == prior.tobytes(), field
        top = max(q0, det.nondetection * q1)
        assert (post.q_absent, post.q_present) == (q0 / top, det.nondetection * q1 / top)

    def test_existence_follows_theta(self):
        meas = planar_meas()
        state = planar_state(1.0, 1.0, [1.0], [[10.0, 20.0]], [2.0 * np.eye(2)])
        z = np.array([[11.0, 21.0]])
        theta = theta_oracle([1.0], [[10.0, 20.0]], [2.0 * np.eye(2)], z, meas, DET_BENCH)
        post = update(state, Scan(1, z), meas, DET_BENCH)
        assert theta > 1.0
        assert post.q_absent == pytest.approx(1.0 / theta, rel=1e-14)
        assert post.q_present == 1.0

    def test_posterior_is_renormalized_exactly(self):
        rng = np.random.default_rng(77)
        for trial in range(5):
            w, m, P = random_mixture(rng, 2, max_comps=3)
            m = m + 30.0
            state = planar_state(1.0, 1.0, w, m, P)
            pts = rng.uniform(25.0, 35.0, size=(3, 2))
            post = update(state, Scan(1, pts), planar_meas(), DET_BENCH)
            assert post.spatial.max_weight == 1.0

    def test_component_count(self):
        state = planar_state(
            1.0, 1.0, [1.0, 0.7], [[30.0, 30.0], [32.0, 30.0]],
            [np.eye(2), np.eye(2)],
        )
        scan = Scan(1, np.array([[30.5, 30.0], [31.5, 29.5], [33.0, 31.0]]))
        post = update(state, scan, planar_meas(), DET_BENCH)
        # two non-detection copies plus a Kalman pair for every
        # (component, measurement) combination
        assert post.spatial.n_components == 2 + 2 * 3

    def test_kalman_moments_match_inverse_formulas(self):
        meas = planar_meas(noise=2.0)
        m0 = np.array([28.0, 31.0])
        P0 = np.array([[3.0, 0.5], [0.5, 1.5]])
        state = planar_state(1.0, 1.0, [1.0], [m0], [P0])
        z = np.array([30.0, 30.0])
        post = update(state, Scan(1, z[None, :]), meas, DET_BENCH)

        S = P0 + 2.0 * np.eye(2)
        K = P0 @ np.linalg.inv(S)
        mean_expected = m0 + K @ (z - m0)
        cov_expected = P0 - K @ P0
        # component 0 is the non-detection copy, component 1 the update
        np.testing.assert_allclose(post.spatial.means[1], mean_expected, atol=1e-12)
        np.testing.assert_allclose(post.spatial.covariances[1], cov_expected, atol=1e-12)

    def test_pointwise_against_direct_formula(self):
        # The posterior possibility at x must equal
        #   max(d0 * prior(x), d1 * cr * max_z prior(x) gauss(z; H x, R)) / theta
        # pointwise; the oracle evaluates that with explicit inverses.
        rng = np.random.default_rng(123)
        meas = planar_meas(clutter_rate=400.0, noise=1.5)
        cr = meas.clutter_ratio()
        for trial in range(4):
            w, m, P = random_mixture(rng, 2, max_comps=3)
            m = m + 30.0
            state = planar_state(1.0, 1.0, w, m, P)
            prior = (w, m, P)
            pts = np.concatenate(
                [rng.uniform(26.0, 34.0, size=(2, 2)), rng.uniform(0.0, 60.0, size=(1, 2))]
            )
            post = update(state, Scan(1, pts), meas, DET_BENCH)
            theta = theta_oracle(w, m, P, pts, meas, DET_BENCH)

            xs = rng.uniform(24.0, 36.0, size=(120, 2))
            impl = post.spatial.values(xs)
            for x, got in zip(xs, impl):
                px = mixture_value(x, *prior)
                match = max(gauss_value(z, x, 1.5 * np.eye(2)) for z in pts)
                expected = max(0.5 * px, 1.0 * cr * px * match) / theta
                assert got == pytest.approx(expected, abs=1e-9)

    def test_wrong_point_dimension(self):
        state = planar_state(1.0, 1.0, [1.0], [[30.0, 30.0]], [np.eye(2)])
        with pytest.raises(ValueError):
            update(state, Scan(1, np.zeros((1, 3))), planar_meas(), DET_BENCH)


class TestReduce:
    CFG = ReductionConfig(prune_ratio=1e-3, merge_mahalanobis=2.0, max_components=100)

    def test_prune_drops_negligible(self):
        mix = GaussianMaxMixture(
            [1.0, 1e-5], [[0.0], [50.0]], [[[1.0]], [[1.0]]]
        )
        red = reduce(mix, self.CFG)
        assert red.n_components == 1
        assert red.means[0, 0] == 0.0

    def test_far_components_survive_bitwise(self):
        rng = np.random.default_rng(9)
        w = np.array([1.0, 0.6, 0.3])
        means = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        covs = np.stack([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)])
        red = reduce(GaussianMaxMixture(w, means, covs), self.CFG)
        assert red.n_components == 3
        np.testing.assert_array_equal(red.weights, w)
        np.testing.assert_array_equal(red.means, means)
        np.testing.assert_array_equal(red.covariances, covs)

    def test_merge_keeps_head_weight_and_moments(self):
        mix = GaussianMaxMixture(
            [1.0, 0.9], [[0.0], [0.1]], [[[1.0]], [[1.0]]]
        )
        red = reduce(mix, self.CFG)
        assert red.n_components == 1
        assert red.weights[0] == 1.0
        mbar = (1.0 * 0.0 + 0.9 * 0.1) / 1.9
        Pbar = (
            1.0 * (1.0 + (0.0 - mbar) ** 2) + 0.9 * (1.0 + (0.1 - mbar) ** 2)
        ) / 1.9
        assert red.means[0, 0] == pytest.approx(mbar, abs=1e-15)
        assert red.covariances[0, 0, 0] == pytest.approx(Pbar, abs=1e-15)

    def test_merge_radius_uses_head_covariance(self):
        # distance measured in the head's metric: sigma 5 head absorbs a
        # component 6 away, but a unit-variance head would not
        mix = GaussianMaxMixture(
            [1.0, 0.5], [[0.0], [6.0]], [[[25.0]], [[1.0]]]
        )
        red = reduce(mix, self.CFG)
        assert red.n_components == 1
        mix2 = GaussianMaxMixture(
            [1.0, 0.5], [[0.0], [6.0]], [[[1.0]], [[1.0]]]
        )
        red2 = reduce(mix2, self.CFG)
        assert red2.n_components == 2

    def test_huge_merge_radius_merges_everything(self):
        # 1e300 squared overflows to inf, which every distance is within.
        mix = GaussianMaxMixture([1.0, 0.5], [[0.0], [1e6]], [[[1.0]], [[1.0]]])
        red = reduce(mix, ReductionConfig(merge_mahalanobis=1e300))
        assert red.n_components == 1
        assert red.means[0, 0] == pytest.approx(0.5e6 / 1.5)

    def test_cap_keeps_heaviest(self):
        n = 10
        w = np.linspace(1.0, 0.1, n)
        means = (np.arange(n) * 100.0)[:, None]
        covs = np.broadcast_to(np.eye(1), (n, 1, 1)).copy()
        red = reduce(
            GaussianMaxMixture(w, means, covs),
            ReductionConfig(prune_ratio=0.0, merge_mahalanobis=2.0, max_components=3),
        )
        assert red.n_components == 3
        np.testing.assert_array_equal(red.means[:, 0], [0.0, 100.0, 200.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_always_normalized_and_capped(self, seed):
        rng = np.random.default_rng(seed)
        w, m, P = random_mixture(rng, 2, max_comps=4)
        cap = int(rng.integers(1, 5))
        cfg = ReductionConfig(
            prune_ratio=float(rng.uniform(0.0, 0.5)),
            merge_mahalanobis=float(rng.uniform(0.1, 3.0)),
            max_components=cap,
        )
        red = reduce(GaussianMaxMixture(w, m, P), cfg)
        assert red.max_weight == 1.0
        assert red.n_components <= cap

    @pytest.mark.parametrize("weights", [[0.7], [1.0, 1e-5]])
    def test_single_survivor_skips_the_merge_table(self, weights, monkeypatch):
        n = len(weights)
        mix = GaussianMaxMixture(weights, np.arange(n)[:, None] * 50.0, np.full((n, 1, 1), 2.0))
        want = reduce_reference(mix, self.CFG)

        def no_table(*args):
            raise AssertionError("a lone survivor needs no Mahalanobis table")

        monkeypatch.setattr(np.linalg, "cholesky", no_table)
        got = reduce(mix, self.CFG)
        assert got.weights.tolist() == [1.0]
        for field in ("weights", "means", "covariances"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReductionConfig(prune_ratio=1.0, merge_mahalanobis=2.0, max_components=10)
        with pytest.raises(ValueError):
            ReductionConfig(prune_ratio=0.1, merge_mahalanobis=-1.0, max_components=10)
        with pytest.raises(ValueError):
            ReductionConfig(prune_ratio=0.1, merge_mahalanobis=2.0, max_components=0)

    @pytest.mark.parametrize("cap", [2.5, True, None, "3"])
    def test_config_rejects_non_integer_cap(self, cap):
        with pytest.raises(ValueError, match="max_components must be an integer"):
            ReductionConfig(max_components=cap)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 14),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([0.0, 1e-3, 0.2, 0.6]),
        st.sampled_from([0.0, 0.5, 2.0, 4.0]),
        st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_head_loop(self, seed, n, dim, prune, merge, cap):
        # Clustered means and a few repeated weights make the walk merge,
        # prune, cap and break ties by index.
        rng = np.random.default_rng(seed)
        w = rng.choice([5e-4, 0.05, 0.3, 0.5, 0.8, 1.0], size=n)
        w[int(rng.integers(n))] = 1.0
        centres = rng.uniform(-6.0, 6.0, size=(3, dim))
        means = centres[rng.integers(0, 3, size=n)] + rng.normal(scale=0.8, size=(n, dim))
        A = rng.normal(size=(n, dim, dim)) * 0.6
        covs = A @ A.swapaxes(1, 2) + np.eye(dim) * rng.uniform(0.3, 2.0, size=(n, 1, 1))
        mix = GaussianMaxMixture(w, means, covs)
        cfg = ReductionConfig(prune_ratio=prune, merge_mahalanobis=merge, max_components=cap)
        got = reduce(mix, cfg)
        want = reduce_reference(mix, cfg)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.means.tobytes() == want.means.tobytes()
        assert got.covariances.tobytes() == want.covariances.tobytes()

    @pytest.mark.parametrize("cap", [5, 60, 1000])
    def test_blocked_table_matches_per_head_loop(self, cap):
        # 700 components need several blocks of the Mahalanobis table.
        n = 700
        assert n * n > MERGE_TABLE_BUDGET
        rng = np.random.default_rng(cap)
        centres = rng.uniform(0.0, 60.0, size=(40, 4))
        means = centres[rng.integers(0, 40, size=n)] + rng.normal(size=(n, 4))
        A = rng.normal(size=(n, 4, 4)) * 0.6
        covs = A @ A.swapaxes(1, 2) + np.eye(4) * rng.uniform(0.3, 2.0, size=(n, 1, 1))
        w = rng.choice([5e-4, 0.05, 0.3, 0.5, 0.8, 1.0], size=n)
        mix = GaussianMaxMixture(w, means, covs)
        cfg = ReductionConfig(prune_ratio=1e-3, merge_mahalanobis=2.0, max_components=cap)
        got = reduce(mix, cfg)
        want = reduce_reference(mix, cfg)
        assert got.n_components == min(cap, want.n_components)
        for field in ("weights", "means", "covariances"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_memory_is_bounded_by_the_kept_clusters(self):
        # A whole 9,409 x 9,409 table would take 2.8 GB for diff alone.
        n = 97 * 97
        rng = np.random.default_rng(3)
        w = rng.uniform(1e-6, 1.0, size=n)
        w[0] = 1.0
        covs = np.broadcast_to(np.diag([2.0, 0.1, 2.0, 0.1]), (n, 4, 4))
        mix = GaussianMaxMixture(w, rng.uniform(0.0, 60.0, size=(n, 4)), covs)
        cfg = ReductionConfig(prune_ratio=1e-12, merge_mahalanobis=1e-6, max_components=100)
        tracemalloc.start()
        try:
            red = reduce(mix, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert red.n_components == 100
        heaviest = np.argsort(-w, kind="stable")[:100]
        assert red.means.tobytes() == mix.means[heaviest].tobytes()

    def test_windows_without_a_live_head_compute_nothing(self, monkeypatch):
        # The heaviest component absorbs all 1,000, so of the 16 windows
        # of 65 heads only the first computes a table.
        n = 1000
        rng = np.random.default_rng(4)
        covs = np.broadcast_to(np.eye(2), (n, 2, 2))
        mix = GaussianMaxMixture(np.linspace(1.0, 0.5, n), rng.normal(0.0, 0.01, size=(n, 2)), covs)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda P: calls.append(len(P)) or cholesky(P))
        assert reduce(mix, self.CFG).n_components == 1
        assert calls == [MERGE_TABLE_BUDGET // n]


class TestStateAndExtract:
    def test_state_requires_normalized_existence(self):
        mix = GaussianMaxMixture([1.0], [[0.0]], [[[1.0]]])
        with pytest.raises(ValueError):
            BernoulliPossState(0.5, 0.9, mix)
        with pytest.raises(ValueError):
            BernoulliPossState(1.2, 1.0, mix)

    def test_state_requires_normalized_mixture(self):
        mix = GaussianMaxMixture([0.5], [[0.0]], [[[1.0]]])
        with pytest.raises(ValueError):
            BernoulliPossState(1.0, 1.0, mix)

    def test_extract_present(self):
        mix = GaussianMaxMixture(
            [0.4, 1.0], [[0.0], [7.0]], [[[1.0]], [[2.0]]]
        )
        state = BernoulliPossState(0.3, 1.0, mix)
        est = extract(state)
        assert est is not None
        assert est.mean[0] == 7.0
        assert est.covariance[0, 0] == 2.0

    def test_extract_keeps_readonly_views(self):
        mix = GaussianMaxMixture([0.4, 1.0], [[0.0], [7.0]], [[[1.0]], [[2.0]]])
        est = extract(BernoulliPossState(0.3, 1.0, mix))
        assert np.shares_memory(est.mean, mix.means)
        assert np.shares_memory(est.covariance, mix.covariances)
        assert not (est.mean.flags.writeable or est.covariance.flags.writeable)

    def test_estimate_copies_writable_input(self):
        mean, cov = np.array([1.0, 2.0]), np.eye(2)
        est = Estimate(mean, cov)
        mean[0] = cov[0, 0] = 9.0
        assert est.mean[0] == 1.0 and est.covariance[0, 0] == 1.0
        assert not (est.mean.flags.writeable or est.covariance.flags.writeable)

    def test_extract_absent_or_tied(self):
        mix = GaussianMaxMixture([1.0], [[0.0]], [[[1.0]]])
        assert extract(BernoulliPossState(1.0, 0.4, mix)) is None
        assert extract(BernoulliPossState(1.0, 1.0, mix)) is None


def drawn_cv_states(rng, count):
    """count constant-velocity states over the benchmark region, each with
    up to 6 random components and its own existence pair."""
    states = []
    for _ in range(count):
        w, m, P = random_mixture(rng, 4, max_comps=6)
        q = float(rng.uniform(0.05, 1.0))
        q0, q1 = (1.0, q) if rng.integers(2) else (q, 1.0)
        states.append(BernoulliPossState(q0, q1, GaussianMaxMixture(w, 10.0 * m + 30.0, P)))
    return states


def assert_same_state(got, want):
    assert (got.q_absent, got.q_present) == (want.q_absent, want.q_present)
    for field in ("weights", "means", "covariances"):
        assert getattr(got.spatial, field).tobytes() == getattr(want.spatial, field).tobytes(), field


def assert_same_entry(got, want):
    """Two entries of a stage, element by element: arrays bit for bit, and
    anything else (an order list, a missing table) by equality."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def nan_entry(entry, index):
    """entry with its array at index replaced by NaN."""
    return tuple(np.full_like(a, np.nan) if i == index else a for i, a in enumerate(entry))


class TestHandedInStages:
    """Each stage takes a list of lanes, one per state, and returns one
    entry per lane, bit for bit the entry of that lane's lone call.  An
    operation handed staged=(source, entry) reads the entry only when
    source names its own inputs, the very objects, not equal copies; then
    the entry is what it reads, and its result is its lone result."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_predict(self, seed, lane, psd):
        rng = np.random.default_rng(seed)
        states = drawn_cv_states(rng, 6)
        motion = MotionModel(cv_transition(2.0), cv_process_noise(2.0, psd))
        scan = Scan(1, rng.uniform(0.0, 60.0, size=(int(rng.integers(0, 4)), 2)))
        birth = build_birth_mixture(scan, BirthConfig(REGION))
        entries = _propagated([s.spatial.covariances for s in states], motion)
        for state, entry in zip(states, entries):
            assert_same_entry([entry], _propagated([state.spatial.covariances], motion))
            got = predict(state, motion, BENCH_PHI, birth, staged=(state.spatial, entry))
            assert_same_state(got, predict(state, motion, BENCH_PHI, birth))
        state = states[lane]
        mix = state.spatial
        want = predict(state, motion, BENCH_PHI, birth)
        junk = np.full_like(entries[lane], np.nan)
        # Named for another state, or for an equal copy of this mixture: not read.
        for source in (states[lane - 1].spatial, GaussianMaxMixture(mix.weights, mix.means, mix.covariances)):
            assert_same_state(predict(state, motion, BENCH_PHI, birth, staged=(source, junk)), want)
        # Named for this mixture: read, so its NaN rows reach the output.
        used = predict(state, motion, BENCH_PHI, birth, staged=(mix, junk))
        assert np.isnan(used.spatial.covariances[: mix.n_components]).all()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_update(self, seed, lane):
        # Six states, each with its own noise matrix and scan, one scan empty.
        rng = np.random.default_rng(seed)
        states = drawn_cv_states(rng, 6)
        models = []
        for _ in states:
            A = rng.normal(size=(2, 2))
            models.append(MeasurementModel(position_observation(), A @ A.T + rng.uniform(0.1, 5.0) * np.eye(2), 4.0, REGION))
        scans = [Scan(1, rng.uniform(0.0, 60.0, size=(int(rng.integers(0, 4)), 2))) for _ in states]
        scans[int(rng.integers(6))] = Scan(1)
        H = position_observation()

        def lane_of(state, meas, scan):
            return state.spatial.covariances, meas.noise, state.spatial.means, scan.points

        entries = _detected([lane_of(*args) for args in zip(states, models, scans)], H)
        for state, meas, scan, entry in zip(states, models, scans, entries):
            assert_same_entry(entry, _detected([lane_of(state, meas, scan)], H)[0])
            got = update(state, scan, meas, DET_BENCH, staged=((state.spatial, scan), entry))
            assert_same_state(got, update(state, scan, meas, DET_BENCH))
        state, meas, scan = states[lane], models[lane], scans[lane]
        want = update(state, scan, meas, DET_BENCH)
        junk = tuple(np.full_like(a, np.nan) for a in entries[lane])
        # Named for another state, or for an equal copy of this scan: not read.
        for source in ((states[lane - 1].spatial, scans[lane - 1]), (state.spatial, Scan(1, scan.points))):
            assert_same_state(update(state, scan, meas, DET_BENCH, staged=(source, junk)), want)
        # Named for this state and scan: read.  At a detection on the
        # heaviest mean, NaN updated covariances reach the output, and NaN
        # log suprema make NaN weights.
        mix = state.spatial
        at_head = Scan(1, (H @ mix.means[mix.argmax_component()])[None])
        entry = _detected([lane_of(state, meas, at_head)], H)[0]
        used = update(state, at_head, meas, DET_BENCH, staged=((mix, at_head), nan_entry(entry, 0)))
        assert np.isnan(used.spatial.covariances).any()
        with pytest.raises(ValueError, match="weights must be finite"):
            update(state, at_head, meas, DET_BENCH, staged=((mix, at_head), nan_entry(entry, 1)))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_reduce_tables(self, seed, lane):
        # Eight mixtures, among them one that prunes to a single component
        # and one with more survivors than one table window holds.
        rng = np.random.default_rng(seed)
        mixtures = [s.spatial for s in drawn_cv_states(rng, 6)]
        mixtures.insert(int(rng.integers(7)), GaussianMaxMixture([1.0, 1e-6], np.zeros((2, 4)), np.tile(np.eye(4), (2, 1, 1))))
        n = 300
        assert n * n > MERGE_TABLE_BUDGET
        covs = np.tile(np.eye(4), (n, 1, 1)) * rng.uniform(0.5, 2.0, size=(n, 1, 1))
        mixtures.insert(int(rng.integers(8)), GaussianMaxMixture(
            rng.uniform(0.01, 1.0, size=n), rng.uniform(0.0, 60.0, size=(n, 4)), covs))
        config = ReductionConfig(prune_ratio=1e-3, merge_mahalanobis=float(rng.uniform(0.5, 4.0)), max_components=50)
        entries = _survivors(mixtures, config)
        untabled = {len(w) for w, *_, table in entries if table is None}
        assert {1, n} <= untabled <= {1, n}
        for mix, entry in zip(mixtures, entries):
            assert_same_entry(entry, _survivors([mix], config)[0])
            got = reduce(mix, config, staged=((mix, config), entry))
            for field in ("weights", "means", "covariances"):
                assert getattr(got, field).tobytes() == getattr(reduce(mix, config), field).tobytes()
        mix = mixtures[lane]
        want = reduce(mix, config)
        junk = nan_entry(entries[lane], 1)
        # Named for another mixture, or for an equal copy of this config: not read.
        for source in ((mixtures[lane - 1], config), (mix, ReductionConfig(config.prune_ratio, config.merge_mahalanobis, 50))):
            assert reduce(mix, config, staged=(source, junk)).means.tobytes() == want.means.tobytes()
        # Named for this mixture and config: read, so NaN means are rejected.
        with pytest.raises(ValueError, match="means must be finite"):
            reduce(mix, config, staged=((mix, config), junk))
