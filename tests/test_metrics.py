"""OSPA metric, run scoring and the per-step fold."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from possfuse.bernoulli import Estimate
from possfuse.metrics import (
    RunRecord,
    SeriesTrack,
    fold_scores,
    ospa,
    score_run,
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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ospa([], [], cutoff=0.0, order=1.0)
        with pytest.raises(ValueError):
            ospa([], [], cutoff=10.0, order=0.5)

    @pytest.mark.parametrize(
        "X, Y, kwargs, name",
        [
            ([[0.0, 0.0]], [], {"cutoff": np.nan}, "cutoff"),
            ([[0.0, 0.0]], [], {"cutoff": np.inf}, "cutoff"),
            ([[0.0, 0.0]], [[1.0, 1.0]], {"order": np.inf}, "order"),
            ([[0.0, 0.0]], [[1.0, 1.0]], {"order": np.nan}, "order"),
            ([[np.nan, 0.0]], [[0.0, 0.0]], {}, "X"),
            ([[0.0, 0.0]], [[0.0, -np.inf]], {}, "Y"),
        ],
        ids=["cutoff-nan", "cutoff-inf", "order-inf", "order-nan", "X-nan", "Y-inf"],
    )
    def test_non_finite_argument_named(self, X, Y, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            ospa(X, Y, **kwargs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ospa([np.array([0.0])], [np.array([0.0, 1.0])], cutoff=10.0, order=1.0)

    @pytest.mark.parametrize(
        "nx, ny, name",
        [(2, 1, "X"), (0, 2, "Y"), (9, 9, "X")],
        ids=["X-two", "Y-two", "nine-each"],
    )
    def test_more_than_one_point_rejected(self, nx, ny, name):
        # The filter reports at most one estimate of at most one target, so
        # ospa scores sets of 0 or 1 point only.
        X = [np.array([float(i), 0.0]) for i in range(nx)]
        Y = [np.array([0.0, float(i)]) for i in range(ny)]
        with pytest.raises(ValueError, match=f"^{name} must hold at most one point"):
            ospa(X, Y, cutoff=10.0, order=1.0)


points_strategy = st.lists(
    st.tuples(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.floats(-20.0, 20.0, allow_nan=False),
    ),
    min_size=0,
    max_size=1,
)


class TestOspaProperties:
    @given(points_strategy, points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_permutation_oracle_exactly(self, xs, ys):
        X = [np.array(p) for p in xs]
        Y = [np.array(p) for p in ys]
        assert ospa(X, Y, cutoff=10.0, order=1.0) == ospa_permutations(X, Y, 10.0, 1.0)

    @given(points_strategy, points_strategy)
    @example([(0.0, 0.0)], [(0.1, -20.0)])
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

    def test_order_two_against_oracle(self):
        # The order cancels on one pair, up to the oracle's power and root.
        rng = np.random.default_rng(33)
        for _ in range(20):
            X = [rng.uniform(-5, 5, size=2) for _ in range(int(rng.integers(0, 2)))]
            Y = [rng.uniform(-5, 5, size=2) for _ in range(int(rng.integers(0, 2)))]
            got = ospa(X, Y, cutoff=4.0, order=2.0)
            want = ospa_permutations(X, Y, 4.0, 2.0)
            assert got == pytest.approx(want, abs=1e-12)


def mk_estimate(mean4, cov4=None):
    cov = np.eye(4) if cov4 is None else cov4
    return Estimate(np.asarray(mean4, dtype=float), cov)


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
        agg = fold_scores([score_run(rec, 10.0)])
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
        agg = fold_scores([score_run(r, 10.0) for r in [r1, r2]])
        np.testing.assert_allclose(agg.mean_ospa["s"], [2.0])

    def test_record_order_invariance(self):
        rng = np.random.default_rng(3)
        recs = [
            mk_record([[0.0, 0.0]], [rng.uniform(-5, 5, size=4)]) for _ in range(6)
        ]
        a = fold_scores([score_run(r, 10.0) for r in recs])
        b = fold_scores([score_run(r, 10.0) for r in reversed(recs)])
        np.testing.assert_allclose(a.mean_ospa["s"], b.mean_ospa["s"], atol=1e-12)

    def test_absent_estimate_uses_empty_set_and_skips_trace(self):
        rec = mk_record([[0.0, 0.0]], [None])
        agg = fold_scores([score_run(rec, 10.0)])
        # truth present, estimate absent: pure cardinality error
        np.testing.assert_allclose(agg.mean_ospa["s"], [10.0])
        assert np.isnan(agg.mean_trace["s"][0])
        np.testing.assert_array_equal(agg.present_count["s"], [0])

    def test_absent_truth_and_estimate_is_zero(self):
        rec = mk_record([None], [None])
        agg = fold_scores([score_run(rec, 10.0)])
        np.testing.assert_allclose(agg.mean_ospa["s"], [0.0])

    def test_matches_brute_force_means(self):
        rng = np.random.default_rng(41)
        recs = []
        for _ in range(5):
            means = [rng.uniform(-3, 3, size=4) for _ in range(3)]
            truth = [rng.uniform(-3, 3, size=2) for _ in range(3)]
            recs.append(mk_record(truth, means))
        agg = fold_scores([score_run(r, 10.0) for r in recs])
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
        # score_run takes no order: for one point per set, ospa's order-p
        # power and root cancel.  At order 1 it matches the loop bit for
        # bit; at other orders only the round trip's rounding separates them.
        got = fold_scores([score_run(r, cutoff) for r in recs])
        want = aggregate_reference(recs, cutoff, order)
        assert (got.runs, got.steps, got.series) == (want["runs"], want["steps"], want["series"])
        for field in ("mean_ospa", "mean_trace", "present_count", "mean_q_absent", "mean_q_present"):
            for name in names:
                a = getattr(got, field)[name]
                b = want[field][name]
                assert a.dtype == b.dtype and a.shape == b.shape
                if field == "mean_ospa" and order != 1.0:
                    np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0, err_msg=name)
                else:
                    assert a.tobytes() == b.tobytes(), (field, name)
        # Pool workers score their runs and send the scores by pickle; the
        # round trip changes no bit of the fold.
        folded = fold_scores([pickle.loads(pickle.dumps(score_run(r, cutoff))) for r in recs])
        assert (folded.runs, folded.steps, folded.series) == (got.runs, got.steps, got.series)
        for field in ("mean_ospa", "mean_trace", "present_count", "mean_q_absent", "mean_q_present"):
            for name in names:
                a = getattr(folded, field)[name]
                b = getattr(got, field)[name]
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (field, name)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, np.nan, np.inf])
    def test_bad_cutoff_rejected(self, cutoff):
        rec = mk_record([[0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="cutoff must be positive"):
            fold_scores([score_run(rec, cutoff)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fold_scores([])

    def test_unequal_lengths_rejected(self):
        r1 = mk_record([[0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        r2 = mk_record([[0.0, 0.0]] * 2, [[0.0, 0.0, 0.0, 0.0]] * 2)
        with pytest.raises(ValueError):
            fold_scores([score_run(r, 10.0) for r in [r1, r2]])

    def test_points_of_different_dimensions_rejected(self):
        rec = mk_record([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="all points must share a dimension"):
            score_run(rec, 10.0)

    def test_series_shorter_than_truth_rejected(self):
        track = SeriesTrack(estimates=[None], q_absent=[1.0], q_present=[1.0], n_components=[1])
        with pytest.raises(ValueError, match="length does not match truth"):
            RunRecord(truth_positions=[None, None], series={"s": track})
