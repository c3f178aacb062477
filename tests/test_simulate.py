"""Scenario generation: truth, measurements, clutter, birth mixtures."""

import re

import numpy as np
import pytest
from scipy import stats

from possfuse.simulate import (
    BirthConfig,
    Rect,
    Scan,
    ScenarioConfig,
    SensorConfig,
    build_birth_mixture,
    cv_process_noise,
    cv_transition,
    generate_labeled_measurements,
    generate_truth,
    ignorance_mixture,
    position_observation,
)

REGION = Rect(0.0, 60.0, 0.0, 60.0)


class TestRect:
    def test_geometry(self):
        r = Rect(0.0, 60.0, 10.0, 40.0)
        assert r.width == 60.0
        assert r.height == 30.0
        assert r.area == 1800.0
        assert r.center == (30.0, 25.0)

    def test_contains(self):
        # Clutter scattered over a region lands inside its bounds.
        r = Rect(0.0, 10.0, 0.0, 10.0)
        sensor = SensorConfig(pd_true=0.0, clutter_rate=20.0)
        labeled = generate_labeled_measurements([None] * 20, sensor, r, seed=4)
        pts = np.concatenate([scan.points for scan, _ in labeled])
        assert pts.shape[0] > 0
        assert np.all((r.xmin <= pts[:, 0]) & (pts[:, 0] <= r.xmax))
        assert np.all((r.ymin <= pts[:, 1]) & (pts[:, 1] <= r.ymax))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(5.0, 5.0, 0.0, 10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bound_named(self, bad):
        with pytest.raises(ValueError, match="xmax must be finite"):
            Rect(0.0, bad, 0.0, 10.0)


class TestMotionMatrices:
    def test_transition_dt2(self):
        F = cv_transition(2.0)
        expected = np.array(
            [
                [1.0, 2.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 2.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(F, expected)

    def test_process_noise_dt2(self):
        Q = cv_process_noise(2.0, 1e-5)
        block = np.array([[2.666666666666667e-05, 2e-05], [2e-05, 2e-05]])
        np.testing.assert_allclose(Q[:2, :2], block, rtol=1e-12)
        np.testing.assert_allclose(Q[2:, 2:], block, rtol=1e-12)
        np.testing.assert_array_equal(Q[:2, 2:], np.zeros((2, 2)))

    def test_observation_picks_positions(self):
        H = position_observation()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(H @ x, [1.0, 3.0])


class TestTruth:
    def test_birth_state_exact_and_length(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg, seed=7)
        assert len(truth) == 50
        np.testing.assert_array_equal(truth[0], [10.0, 0.3, 55.0, -0.35])
        assert all(x is not None for x in truth)

    def test_absent_outside_lifetime(self):
        cfg = ScenarioConfig(birth_step=5, death_step=20)
        truth = generate_truth(cfg, seed=7)
        assert truth[0] is None and truth[3] is None
        assert truth[4] is not None and truth[19] is not None
        assert truth[20] is None and truth[-1] is None

    def test_zero_process_noise_is_straight_line(self):
        cfg = ScenarioConfig(psd=0.0)
        truth = generate_truth(cfg, seed=3)
        for k, x in enumerate(truth):
            np.testing.assert_allclose(
                x, [10.0 + 0.6 * k, 0.3, 55.0 - 0.7 * k, -0.35], atol=1e-10
            )

    def test_deterministic_in_seed(self):
        cfg = ScenarioConfig()
        a = generate_truth(cfg, seed=11)
        b = generate_truth(cfg, seed=11)
        c = generate_truth(cfg, seed=12)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
        assert any(not np.array_equal(xa, xc) for xa, xc in zip(a, c))


def flat_truth(n):
    """A stationary present target, handy for measurement statistics."""
    return [np.array([30.0, 0.0, 30.0, 0.0]) for _ in range(n)]


class TestMeasurements:
    def test_deterministic_and_label_consistent(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg, seed=1)
        sensor = cfg.sensors[0]
        labeled = generate_labeled_measurements(truth, sensor, cfg.region, seed=2)
        again = generate_labeled_measurements(truth, sensor, cfg.region, seed=2)
        assert len(labeled) == len(again) == 50
        for step, ((scan, labels), (scan_again, labels_again)) in enumerate(zip(labeled, again), 1):
            np.testing.assert_array_equal(scan.points, scan_again.points)
            np.testing.assert_array_equal(labels, labels_again)
            assert labels.shape == (scan.points.shape[0],)
            assert scan.time_index == scan_again.time_index == step

    def test_scan_points_readonly(self):
        scan = Scan(1, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            scan.points[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scan_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Scan(1, np.array([[1.0, 2.0], [bad, 3.0]]))

    def test_detection_frequency(self):
        n = 10000
        sensor = SensorConfig(pd_true=0.8, noise_var=2.0, clutter_rate=0.0)
        labeled = generate_labeled_measurements(flat_truth(n), sensor, REGION, seed=5)
        detections = sum(1 for scan, _ in labeled if scan.points.shape[0] > 0)
        assert detections / n == pytest.approx(0.8, abs=0.02)

    def test_clutter_count_poisson_mean(self):
        n = 10000
        sensor = SensorConfig(pd_true=0.0, noise_var=2.0, clutter_rate=4.0)
        labeled = generate_labeled_measurements([None] * n, sensor, REGION, seed=6)
        counts = [scan.points.shape[0] for scan, _ in labeled]
        assert np.mean(counts) == pytest.approx(4.0, abs=0.2)
        assert np.var(counts) == pytest.approx(4.0, abs=0.4)

    def test_clutter_uniform_over_region(self):
        n = 4000
        sensor = SensorConfig(pd_true=0.0, noise_var=2.0, clutter_rate=4.0)
        labeled = generate_labeled_measurements([None] * n, sensor, REGION, seed=8)
        pts = np.concatenate([scan.points for scan, _ in labeled if scan.points.size])
        hist, _, _ = np.histogram2d(
            pts[:, 0], pts[:, 1], bins=6, range=[[0, 60], [0, 60]]
        )
        _, p = stats.chisquare(hist.ravel())
        assert p > 0.01

    def test_noise_statistics(self):
        n = 10000
        sensor = SensorConfig(pd_true=1.0, noise_var=2.0, clutter_rate=0.0)
        labeled = generate_labeled_measurements(flat_truth(n), sensor, REGION, seed=9)
        pts = np.stack([scan.points[0] for scan, _ in labeled])
        err = pts - np.array([30.0, 30.0])
        np.testing.assert_allclose(err.mean(axis=0), [0.0, 0.0], atol=0.06)
        np.testing.assert_allclose(err.var(axis=0), [2.0, 2.0], atol=0.12)

    def test_absent_target_never_detected(self):
        sensor = SensorConfig(pd_true=1.0, noise_var=2.0, clutter_rate=0.0)
        labeled = generate_labeled_measurements([None] * 100, sensor, REGION, seed=10)
        assert all(scan.points.shape[0] == 0 for scan, _ in labeled)

    def test_shuffle_preserves_per_step_multiset(self):
        # Re-running with the same seed but checking the sorted point sets
        # guards the shuffle: order may differ from construction order but
        # content may not.
        cfg = ScenarioConfig()
        truth = generate_truth(cfg, seed=13)
        sensor = cfg.sensors[0]
        labeled = generate_labeled_measurements(truth, sensor, cfg.region, seed=13)
        for scan, labels in labeled:
            assert scan.points.shape[0] == labels.shape[0]
            # at most one target-originated point per scan
            assert (~labels).sum() <= 1


class TestBirth:
    def test_components_from_scan_points(self):
        cfg = BirthConfig(region=REGION, pos_var=3.0, vel_var=0.25)
        scan = Scan(4, np.array([[10.0, 50.0], [20.0, 30.0]]))
        mix = build_birth_mixture(scan, cfg)
        assert mix.n_components == 2
        np.testing.assert_array_equal(mix.weights, [1.0, 1.0])
        np.testing.assert_array_equal(mix.means[0], [10.0, 0.0, 50.0, 0.0])
        np.testing.assert_array_equal(mix.means[1], [20.0, 0.0, 30.0, 0.0])
        np.testing.assert_array_equal(
            mix.covariances[0], np.diag([3.0, 0.25, 3.0, 0.25])
        )

    def test_empty_scan_falls_back_to_ignorance(self):
        cfg = BirthConfig(region=REGION, pos_var=3.0, vel_var=0.25)
        for prev in (None, Scan(1, np.zeros((0, 2)))):
            mix = build_birth_mixture(prev, cfg)
            assert mix.n_components == 1
            np.testing.assert_array_equal(mix.means[0], [30.0, 0.0, 30.0, 0.0])
            np.testing.assert_array_equal(
                mix.covariances[0], np.diag([900.0, 0.25, 900.0, 0.25])
            )

    def test_ignorance_mixture_covers_region(self):
        mix = ignorance_mixture(Rect(0.0, 10.0, 20.0, 60.0), vel_var=1.0)
        np.testing.assert_array_equal(mix.means[0], [5.0, 0.0, 40.0, 0.0])
        np.testing.assert_array_equal(
            mix.covariances[0], np.diag([25.0, 1.0, 400.0, 1.0])
        )
        assert mix.weights[0] == 1.0


class TestConfigDefaults:
    def test_benchmark_values(self):
        cfg = ScenarioConfig()
        assert cfg.region.area == 3600.0
        assert cfg.steps == 50 and cfg.dt == 2.0 and cfg.psd == 1e-5
        assert cfg.birth_step == 1 and cfg.death_step == 50
        assert len(cfg.sensors) == 2
        assert cfg.sensors[0].pd_true == 0.8
        assert cfg.sensors[1].pd_true == 0.6
        assert cfg.sensors[0].noise_var == 2.0
        assert cfg.sensors[0].clutter_rate == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(steps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(birth_step=10, death_step=5)
        with pytest.raises(ValueError):
            SensorConfig(pd_true=1.5)
        with pytest.raises(ValueError):
            SensorConfig(clutter_rate=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda v: ScenarioConfig(psd=v), "psd"),
            (lambda v: ScenarioConfig(dt=v), "dt"),
            (lambda v: ScenarioConfig(initial_state=(10.0, v, 55.0, -0.35)), "initial_state[1]"),
            (lambda v: SensorConfig(pd_true=v), "pd_true"),
            (lambda v: SensorConfig(noise_var=v), "noise_var"),
            (lambda v: SensorConfig(clutter_rate=v), "clutter_rate"),
        ],
    )
    def test_non_finite_field_named(self, build, field, bad):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite"):
            build(bad)
