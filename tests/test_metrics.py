"""OSPA metric, assignment solver, and per-step aggregation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from possfuse.bernoulli import Estimate
from possfuse.metrics import (
    ASSIGNMENT_LIMIT,
    RunRecord,
    SeriesTrack,
    aggregate,
    covariance_trace,
    ospa,
)
from support import aggregate_reference, ospa_permutations


class TestOspaExamples:
    def test_both_empty(self):
        assert ospa([], [], cutoff=10.0, order=1.0) == 0.0

    def test_one_empty_is_cutoff(self):
        assert ospa([np.array([1.0, 2.0])], [], cutoff=10.0, order=1.0) == 10.0
        assert ospa([], [np.array([1.0, 2.0])], cutoff=10.0, order=1.0) == 10.0

    def test_single_pair_1d(self):
        assert ospa([np.array([0.0])], [np.array([3.0])], cutoff=10.0, order=1.0) == 3.0

    def test_saturation(self):
        d = ospa([np.array([0.0, 0.0])], [np.array([100.0, 0.0])], cutoff=10.0, order=1.0)
        assert d == 10.0

    def test_cardinality_penalty(self):
        X = [np.array([0.0, 0.0])]
        Y = [np.array([0.0, 0.0]), np.array([50.0, 50.0])]
        # one perfect match plus one unmatched point: (0 + c) / 2
        assert ospa(X, Y, cutoff=10.0, order=1.0) == 5.0

    def test_order_two(self):
        X = [np.array([0.0]), np.array([10.0])]
        Y = [np.array([3.0]), np.array([14.0])]
        expected = np.sqrt((3.0**2 + 4.0**2) / 2.0)
        assert ospa(X, Y, cutoff=10.0, order=2.0) == pytest.approx(expected, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ospa([], [], cutoff=0.0, order=1.0)
        with pytest.raises(ValueError):
            ospa([], [], cutoff=10.0, order=0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ospa([np.array([0.0])], [np.array([0.0, 1.0])], cutoff=10.0, order=1.0)

    def test_solver_size_limit(self):
        pts = [np.array([float(i), 0.0]) for i in range(ASSIGNMENT_LIMIT + 1)]
        with pytest.raises(ValueError):
            ospa(pts, pts, cutoff=10.0, order=1.0)


points_strategy = st.lists(
    st.tuples(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.floats(-20.0, 20.0, allow_nan=False),
    ),
    min_size=0,
    max_size=4,
)


class TestOspaProperties:
    @given(points_strategy, points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_permutation_oracle_exactly(self, xs, ys):
        X = [np.array(p) for p in xs]
        Y = [np.array(p) for p in ys]
        assert ospa(X, Y, cutoff=10.0, order=1.0) == ospa_permutations(X, Y, 10.0, 1.0)

    @given(points_strategy, points_strategy)
    @example([(0.0, 0.0)] * 4, [(0.0, 0.0), (0.0, 1.0), (1.0, 3.0), (1.0, 1.0)])
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, xs, ys):
        X = [np.array(p) for p in xs]
        Y = [np.array(p) for p in ys]
        d = ospa(X, Y, cutoff=10.0, order=1.0)
        assert d == ospa(Y, X, cutoff=10.0, order=1.0)
        assert 0.0 <= d <= 10.0

    @given(points_strategy)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, xs):
        X = [np.array(p) for p in xs]
        assert ospa(X, X, cutoff=10.0, order=1.0) == 0.0

    def test_larger_sets_against_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            X = [rng.uniform(-5, 5, size=2) for _ in range(int(rng.integers(0, 6)))]
            Y = [rng.uniform(-5, 5, size=2) for _ in range(int(rng.integers(0, 7)))]
            got = ospa(X, Y, cutoff=4.0, order=2.0)
            want = ospa_permutations(X, Y, 4.0, 2.0)
            assert got == pytest.approx(want, abs=1e-12)


def mk_estimate(mean4, cov4=None):
    cov = np.eye(4) if cov4 is None else cov4
    return Estimate(np.asarray(mean4, dtype=float), cov)


class TestCovarianceTrace:
    def test_identity(self):
        est = mk_estimate([0, 0, 0, 0], np.eye(4))
        assert covariance_trace(est) == 4.0

    def test_diagonal(self):
        est = mk_estimate([0, 0, 0, 0], np.diag([1.0, 2.0, 3.0, 4.0]))
        assert covariance_trace(est) == 10.0

    def test_absent_estimate_rejected(self):
        with pytest.raises(ValueError):
            covariance_trace(None)


def mk_record(truth_xy, est_means):
    """One-series record: truth positions and estimate means per step."""
    n = len(truth_xy)
    estimates = [None if m is None else mk_estimate(m) for m in est_means]
    track = SeriesTrack(
        estimates=estimates,
        q_absent=[0.5] * n,
        q_present=[1.0] * n,
        n_components=[1] * n,
    )
    truth = [None if t is None else np.asarray(t, dtype=float) for t in truth_xy]
    return RunRecord(truth_positions=truth, series={"s": track})


class TestAggregate:
    def test_single_record_identity(self):
        rec = mk_record(
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0]],
        )
        agg = aggregate([rec], cutoff=10.0, order=1.0)
        assert agg.runs == 1 and agg.steps == 2
        assert agg.series == ("s",)
        np.testing.assert_allclose(agg.mean_ospa["s"], [0.0, 3.0])
        np.testing.assert_allclose(agg.mean_trace["s"], [4.0, 4.0])
        np.testing.assert_array_equal(agg.present_count["s"], [1, 1])
        np.testing.assert_allclose(agg.mean_q_absent["s"], [0.5, 0.5])
        np.testing.assert_allclose(agg.mean_q_present["s"], [1.0, 1.0])

    def test_two_records_average(self):
        r1 = mk_record([[0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        r2 = mk_record([[0.0, 0.0]], [[4.0, 0.0, 0.0, 0.0]])
        agg = aggregate([r1, r2], cutoff=10.0, order=1.0)
        np.testing.assert_allclose(agg.mean_ospa["s"], [2.0])

    def test_record_order_invariance(self):
        rng = np.random.default_rng(3)
        recs = [
            mk_record([[0.0, 0.0]], [rng.uniform(-5, 5, size=4)]) for _ in range(6)
        ]
        a = aggregate(recs, cutoff=10.0, order=1.0)
        b = aggregate(list(reversed(recs)), cutoff=10.0, order=1.0)
        np.testing.assert_allclose(a.mean_ospa["s"], b.mean_ospa["s"], atol=1e-12)

    def test_absent_estimate_uses_empty_set_and_skips_trace(self):
        rec = mk_record([[0.0, 0.0]], [None])
        agg = aggregate([rec], cutoff=10.0, order=1.0)
        # truth present, estimate absent: pure cardinality error
        np.testing.assert_allclose(agg.mean_ospa["s"], [10.0])
        assert np.isnan(agg.mean_trace["s"][0])
        np.testing.assert_array_equal(agg.present_count["s"], [0])

    def test_absent_truth_and_estimate_is_zero(self):
        rec = mk_record([None], [None])
        agg = aggregate([rec], cutoff=10.0, order=1.0)
        np.testing.assert_allclose(agg.mean_ospa["s"], [0.0])

    def test_matches_brute_force_means(self):
        rng = np.random.default_rng(41)
        recs = []
        for _ in range(5):
            means = [rng.uniform(-3, 3, size=4) for _ in range(3)]
            truth = [rng.uniform(-3, 3, size=2) for _ in range(3)]
            recs.append(mk_record(truth, means))
        agg = aggregate(recs, cutoff=10.0, order=1.0)
        for k in range(3):
            expected = np.mean(
                [
                    ospa(
                        [r.truth_positions[k]],
                        [r.series["s"].estimates[k].mean[[0, 2]]],
                        cutoff=10.0,
                        order=1.0,
                    )
                    for r in recs
                ]
            )
            assert agg.mean_ospa["s"][k] == pytest.approx(expected, abs=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from([0.5, 2.0, 5.0, 10.0]),
        st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_step_ospa_loop(self, seed, runs, steps, n_series, cutoff, order):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(n_series)]
        recs = []
        for _ in range(runs):
            truth = [
                rng.uniform(-8.0, 8.0, size=2) if rng.random() < 0.7 else None
                for _ in range(steps)
            ]
            series = {}
            for name in names:
                estimates = []
                for _ in range(steps):
                    if rng.random() < 0.6:
                        A = rng.normal(size=(4, 4))
                        mean = rng.uniform(-8.0, 8.0, size=4)
                        estimates.append(mk_estimate(mean, A @ A.T + np.eye(4)))
                    else:
                        estimates.append(None)
                series[name] = SeriesTrack(
                    estimates=estimates,
                    q_absent=rng.uniform(0.0, 1.0, size=steps).tolist(),
                    q_present=rng.uniform(0.0, 1.0, size=steps).tolist(),
                    n_components=[1] * steps,
                )
            recs.append(RunRecord(truth_positions=truth, series=series))
        got = aggregate(recs, cutoff=cutoff, order=order)
        want = aggregate_reference(recs, cutoff, order)
        assert (got.runs, got.steps, got.series) == (want["runs"], want["steps"], want["series"])
        for field in ("mean_ospa", "mean_trace", "present_count", "mean_q_absent", "mean_q_present"):
            for name in names:
                a = getattr(got, field)[name]
                b = want[field][name]
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (field, name)

    @pytest.mark.parametrize("cutoff, order", [(0.0, 1.0), (10.0, 0.5)])
    def test_bad_cutoff_or_order_rejected(self, cutoff, order):
        rec = mk_record([[0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            aggregate([rec], cutoff=cutoff, order=order)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], cutoff=10.0, order=1.0)

    def test_unequal_lengths_rejected(self):
        r1 = mk_record([[0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        r2 = mk_record([[0.0, 0.0]] * 2, [[0.0, 0.0, 0.0, 0.0]] * 2)
        with pytest.raises(ValueError):
            aggregate([r1, r2], cutoff=10.0, order=1.0)
