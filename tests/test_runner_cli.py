"""Experiment drivers, output files, determinism, and the CLI."""

import contextlib
import copy
import dataclasses
import errno
import itertools
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support

import possfuse.bernoulli as bernoulli_mod
import possfuse.fusion as fusion_mod
import possfuse.runner as runner_mod
from possfuse.bernoulli import BernoulliPossState
from possfuse.cli import main
from possfuse.config import (
    ConfigError,
    default_experiment,
    parse_experiment,
    serialize_experiment,
)
from possfuse.gaussmax import GaussianMaxMixture
from possfuse.metrics import RunScores, fold_scores, score_run
from possfuse.runner import (
    NumericsError,
    run_fusion_dependent,
    run_fusion_independent,
    run_once,
    run_single,
)
from possfuse.simulate import POISSON_RATE_MAX, ScenarioConfig, SensorConfig
from support import reference_run_once, run_cli

ABOVE_POISSON_BOUND = float(np.nextafter(POISSON_RATE_MAX, np.inf))


def small_cfg(runs=2, **scenario_kw):
    cfg = default_experiment()
    scenario = dataclasses.replace(cfg.scenario, **scenario_kw) if scenario_kw else cfg.scenario
    return dataclasses.replace(cfg, runs=runs, scenario=scenario)


def wait_for(probe, timeout: float = 30.0):
    """Poll probe() until it returns a truthy value, which is returned, or
    until timeout seconds have passed; then its last, falsy, value."""
    deadline = time.monotonic() + timeout
    while not (value := probe()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value


class TestRunOnce:
    def test_series_names_per_mode(self):
        cfg = small_cfg()
        rec = run_once(cfg, 0, "single")
        assert sorted(rec.series) == ["sensor1", "sensor2"]
        rec = run_once(cfg, 0, "independent")
        assert sorted(rec.series) == ["centralized", "chernoff", "sensor1", "sensor2"]
        rec = run_once(cfg, 0, "dependent")
        assert sorted(rec.series) == ["centralized", "chernoff", "single"]

    def test_series_lengths_match_steps(self):
        cfg = small_cfg()
        rec = run_once(cfg, 0, "single")
        assert len(rec.truth_positions) == 50
        for track in rec.series.values():
            assert len(track.estimates) == 50

    def test_fusion_needs_two_sensors(self):
        cfg = small_cfg(sensors=(SensorConfig(),))
        with pytest.raises(ValueError):
            run_once(cfg, 0, "independent")
        with pytest.raises(ValueError):
            run_once(cfg, 0, "dependent")

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("driver", [run_fusion_independent, run_fusion_dependent])
    def test_drivers_check_sensor_count_before_any_run(self, driver, count, monkeypatch, tmp_path):
        def no_runs(*args):
            raise AssertionError("runs started")

        monkeypatch.setattr(runner_mod, "_collect_runs", no_runs)
        cfg = small_cfg(sensors=(SensorConfig(),) * count)
        with pytest.raises(ConfigError) as err:
            driver(cfg, out_dir=tmp_path / "out")
        assert err.value.path == "scenario.sensors"
        assert f"got {count}" in str(err.value)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_once(small_cfg(), 0, "tandem")

    def test_audit_covers_every_phase(self, monkeypatch):
        # The audit lists states in the order the run computes them: each
        # step's filter states in step order, then each step's fusions.
        def computed(names, fused):
            recursion = [
                (step, phase, name)
                for step in range(1, 51)
                for name in names
                for phase in ("predicted", "updated")
            ]
            return recursion + [(step, "fused", name) for step in range(1, 51) for name in fused]

        cfg = small_cfg()
        for mode, names in [("independent", ["sensor1", "sensor2"]), ("dependent", ["single"])]:
            audit = []
            run_once(cfg, 0, mode, audit=audit)
            assert all(isinstance(state, BernoulliPossState) for *_, state in audit)
            assert [entry[:3] for entry in audit] == computed(names, ["chernoff", "centralized"])

        # Single mode has no fusion loop.
        def no_fusion(*args):
            raise AssertionError("fusion pass started")

        monkeypatch.setattr(runner_mod, "_prefilled", no_fusion)
        audit = []
        run_once(cfg, 0, "single", audit=audit)
        assert [entry[:3] for entry in audit] == computed(["sensor1", "sensor2"], [])

    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    def test_block_audit_matches_the_lone_run(self, mode):
        # A run recursed in a block reports every state it reports alone,
        # fused ones included, in the same order and with the same bits.
        def bits(state):
            spatial = state.spatial
            return (np.float64(state.q_absent).tobytes(), np.float64(state.q_present).tobytes(),
                    spatial.weights.tobytes(), spatial.means.tobytes(), spatial.covariances.tobytes())

        cfg = small_cfg(runs=3, steps=8, death_step=8)
        audits = [[] for _ in range(cfg.runs)]
        for run_idx, recursion in enumerate(runner_mod._recurse(cfg, range(cfg.runs), mode, audits)):
            run_once(cfg, run_idx, mode, recursion=recursion)
        for run_idx, got in enumerate(audits):
            want = []
            run_once(cfg, run_idx, mode, audit=want)
            assert [entry[:3] for entry in got] == [entry[:3] for entry in want]
            assert [bits(entry[3]) for entry in got] == [bits(entry[3]) for entry in want]
            assert ("fused" in {entry[1] for entry in got}) == (mode != "single")

    def test_audit_with_a_recursion_raises(self):
        cfg = small_cfg(steps=3, death_step=3)
        (recursion,) = runner_mod._recurse(cfg, [0], "independent")
        with pytest.raises(ValueError, match="audit"):
            run_once(cfg, 0, "independent", [], recursion=recursion)

    def test_dependent_runs_one_filter(self, monkeypatch):
        calls = {"predict": 0, "update": 0, "generate_labeled_measurements": 0}

        def counted(name):
            inner = getattr(runner_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(runner_mod, name, counted(name))
        cfg = small_cfg(steps=12, death_step=12)
        run_once(cfg, 0, "dependent")
        assert calls == {"predict": 12, "update": 12, "generate_labeled_measurements": 1}

    def test_dependent_fuses_the_filter_with_itself(self, monkeypatch):
        pairs = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            pairs.append((a, b))
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", recording)
        run_once(small_cfg(steps=5, death_step=5), 0, "dependent")
        assert len(pairs) == 5
        assert all(a is b for a, b in pairs)

    def test_runs_differ_by_index(self):
        cfg = small_cfg()
        a = run_once(cfg, 0, "single")
        b = run_once(cfg, 1, "single")
        pa = [p for p in a.truth_positions if p is not None]
        pb = [p for p in b.truth_positions if p is not None]
        assert not np.allclose(pa, pb)

    def test_numerics_error_carries_location(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("synthetic breakdown")

        monkeypatch.setattr(runner_mod, "update", boom)
        with pytest.raises(NumericsError) as err:
            run_once(small_cfg(), 3, "single")
        assert err.value.run == 3
        assert err.value.step == 1
        assert "run 3" in str(err.value)
        assert "step 1" in str(err.value)

    def test_errors_round_trip_through_pickle(self):
        # Pool workers hand their failures to the parent by pickle.
        err = NumericsError(4, 7, ValueError("singular: matrix"))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NumericsError
        assert (back.run, back.step, str(back)) == (4, 7, str(err))
        err = ConfigError("scenario.sensors", "needs 2: got 3")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ConfigError
        assert (back.path, str(back)) == ("scenario.sensors", str(err))

    def test_fed_scans_match_scan_dump(self, monkeypatch, tmp_path):
        cfg = small_cfg(steps=10, death_step=10)
        fed = []
        inner = runner_mod.generate_labeled_measurements

        def recording(*args, **kwargs):
            labeled = inner(*args, **kwargs)
            fed.append(labeled)
            return labeled

        rows = []
        for run_idx in range(cfg.runs):
            fed.clear()
            with monkeypatch.context() as mp:
                mp.setattr(runner_mod, "generate_labeled_measurements", recording)
                run_once(cfg, run_idx, "single")
            for sensor, labeled in enumerate(fed, start=1):
                for scan, labels in labeled:
                    for (x, y), is_clutter in zip(scan.points.tolist(), labels.tolist()):
                        rows.append((run_idx, scan.time_index, sensor, x, y, int(is_clutter)))
        assert len(fed) == 2

        run_single(cfg, out_dir=tmp_path, dump_scans=True)
        lines = (tmp_path / "scans.csv").read_text().splitlines()
        dumped = [
            (int(r), int(k), int(s), float(x), float(y), int(c))
            for r, k, s, x, y, c in (line.split(",") for line in lines[1:])
        ]
        assert dumped == rows


def stress_cfg(steps=None, sensor=None, **scenario_kw):
    """The default experiment with one setting changed; a sensor setting
    applies to every sensor, and steps sets the death step with it."""
    cfg = default_experiment()
    if steps is not None:
        scenario_kw.update(steps=steps, death_step=steps)
    if sensor is not None:
        scenario_kw["sensors"] = tuple(dataclasses.replace(s, **sensor) for s in cfg.scenario.sensors)
    return dataclasses.replace(cfg, runs=1, scenario=dataclasses.replace(cfg.scenario, **scenario_kw))


def stress_doc(**doc):
    """The experiment of a config document, at one run."""
    return parse_experiment({**doc, "runs": 1})


STRESS = {
    "pd-0": stress_cfg(sensor={"pd_true": 0.0}),
    "pd-1": stress_cfg(sensor={"pd_true": 1.0}),
    "clutter-0": stress_cfg(sensor={"clutter_rate": 0.0}),
    "clutter-50": stress_cfg(steps=10, sensor={"clutter_rate": 50.0}),
    "psd-0": stress_cfg(psd=0.0),
    "noise-0.01": stress_cfg(sensor={"noise_var": 0.01}),
    "noise-100": stress_cfg(sensor={"noise_var": 100.0}),
    "steps-1": stress_cfg(steps=1),
    "start-outside": stress_cfg(initial_state=(-30.0, 0.3, 90.0, -0.35)),
    "birth-40-death-42": stress_cfg(birth_step=40, death_step=42),
    "steps-500": stress_cfg(steps=500),
    # The extreme configs of TestComputedRounding at full length; dt 1e12
    # is left out, since F P F' overflows by step 20.
    "psd-1e300": stress_cfg(psd=1e300),
    "noise-5e-324": stress_doc(scenario={"sensors": [{"pd_true": 0.8, "noise_var": 5e-324}, {"pd_true": 0.6}]}),
    "noise-1e-300": stress_doc(scenario={"sensors": [{"pd_true": 0.8, "noise_var": 1e-300}, {"pd_true": 0.6}]}),
    "pos_var-1e300": stress_doc(filter={"birth": {"pos_var": 1e300}}),
    "vel_var-1e300": stress_doc(filter={"birth": {"vel_var": 1e300}}),
    # Presence impossible from step 1: no birth and no survival.
    "phi-no-presence": stress_doc(filter={"phi": [[1, 0], [1, 0]]}),
    # Blind sensors and no birth: q_present falls by the nondetection
    # possibility 0.01 each step and underflows to 0 at step 162.
    "presence-underflow": stress_doc(
        scenario={"steps": 200, "sensors": [{"pd_true": 0, "clutter_rate": 0}] * 2},
        filter={"phi": [[1, 0], [0, 1]], "pd_interval": [0.99, 1.0]},
    ),
    # The same with clutter, so the mixture has more than one component:
    # once q_present is subnormal, predict scales a light component's
    # weight to exactly 0 (step 177), and the one underflow rule drops it.
    "presence-underflow-clutter": stress_doc(
        scenario={"steps": 200, "sensors": [{"pd_true": 0}] * 2},
        filter={"phi": [[1, 0], [0, 1]], "pd_interval": [0.99, 1.0]},
    ),
}


class TestStressMatrix:
    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    @pytest.mark.parametrize("name", list(STRESS))
    def test_extreme_scenario_keeps_the_invariants(self, name, mode):
        # Criterion 3's normalisation at extreme settings, and the component
        # cap wherever a reduction or a fusion keep rule applies; predicted
        # states are not reduced, so they are not capped.
        cfg = STRESS[name]
        if mode == "dependent":
            cfg = dataclasses.replace(cfg, fusion=dataclasses.replace(cfg.fusion, omega_strategy="min-trace"))
        cap = cfg.filter.reduction.max_components
        audit = []
        run_once(cfg, 0, mode, audit=audit)
        assert audit
        for step, phase, series, state in audit:
            where = (step, phase, series)
            assert abs(max(state.q_absent, state.q_present) - 1.0) <= 1e-12, where
            assert abs(state.spatial.max_weight - 1.0) <= 1e-12, where
            if phase != "predicted":
                assert state.spatial.n_components <= cap, where


class TestFailureOrder:
    """Fusion runs after the recursion, yet a run fails at the earliest
    failing step, with the message that step's own failure gives."""

    CFG = parse_experiment(
        {"runs": 1, "scenario": {"steps": 10, "death_step": 10}, "fusion": {"omega_strategy": "min-trace"}}
    )

    def fused_pairs(self, monkeypatch):
        """Every step's fused pair of a clean dependent run of CFG."""
        pairs = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            pairs.append((a, b))
            return inner(a, b, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(runner_mod, "fuse_independent", recording)
            run_once(self.CFG, 0, "dependent")
        return pairs

    @staticmethod
    def break_kernel_for(monkeypatch, state, independent_only=False):
        """Make every fused covariance of a component of state's mixture
        non-positive definite, or with independent_only those in the
        independent row (1, 1) alone; the runs are deterministic, so its
        means find it bit for bit.  Returns the size of each kernel call."""
        target = state.spatial.means
        original = fusion_mod._cross_arrays
        sizes = []

        def patched(components, e1, i1, *rest):
            log_alpha, weights, kept, means, covs = original(components, e1, i1, *rest)
            hit = (components[1][i1[kept]][:, None] == target[None]).all(axis=-1).any(axis=-1)
            if independent_only:
                # No grid row has e1 = 1 - omega = 1.
                hit &= e1[kept] == 1.0
            covs[hit] = -np.eye(covs.shape[-1])
            sizes.append(len(e1))
            return log_alpha, weights, kept, means, covs

        monkeypatch.setattr(fusion_mod, "_cross_arrays", patched)
        return sizes

    @staticmethod
    def fail_update_at(monkeypatch, step):
        inner = runner_mod.update
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == step:
                raise ValueError("injected update failure")
            return inner(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "update", failing)

    def test_fusion_failure_before_filter_failure_names_the_fusion_step(self, monkeypatch):
        a, _ = self.fused_pairs(monkeypatch)[2]
        self.break_kernel_for(monkeypatch, a)
        self.fail_update_at(monkeypatch, 5)
        with pytest.raises(NumericsError) as err:
            run_once(self.CFG, 0, "dependent")
        assert err.value.step == 3
        assert "not positive definite" in str(err.value)

    def test_filter_failure_after_clean_fusions_names_the_filter_step(self, monkeypatch):
        fused = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            fused.append(a)
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", recording)
        self.fail_update_at(monkeypatch, 5)
        with pytest.raises(NumericsError) as err:
            run_once(self.CFG, 0, "dependent")
        assert err.value.step == 5
        assert str(err.value).endswith("injected update failure")
        assert len(fused) == 4

    def test_kernel_failure_inside_a_block_names_its_step(self, monkeypatch):
        a, b = self.fused_pairs(monkeypatch)[6]
        sizes = self.break_kernel_for(monkeypatch, a)
        with pytest.raises(ValueError) as one_pair:
            fusion_mod._product_tables([(a.spatial, b.spatial)], fusion_mod._SEARCH_ROWS)
        sizes.clear()
        with pytest.raises(NumericsError) as err:
            run_once(self.CFG, 0, "dependent")
        assert err.value.step == 7
        assert str(err.value) == f"numerical failure in run 0 at step 7: {one_pair.value}"
        # The run's first call held step 7 together with other steps; a
        # run's min-trace table holds the grid and the independent row.
        rows = len(fusion_mod._SEARCH_ROWS) + 1
        assert sizes[0] > rows * a.spatial.n_components * b.spatial.n_components

    def test_independent_row_failure_fails_a_run_at_its_step(self, monkeypatch):
        # A direct search or Chernoff fusion builds no independent row, so
        # a pair whose (1, 1) row fails a check still fuses that way; a
        # run's table holds that row, and the run fails at the pair's step.
        a, b = self.fused_pairs(monkeypatch)[2]
        self.break_kernel_for(monkeypatch, a, independent_only=True)
        fusion_mod.fuse_chernoff(a, b, fusion_mod.select_omega(a, b))
        with pytest.raises(ValueError, match="not positive definite"):
            fusion_mod.fuse_independent(a, b)
        with pytest.raises(NumericsError) as err:
            run_once(self.CFG, 0, "dependent")
        assert err.value.step == 3
        assert "not positive definite" in str(err.value)

    def test_reduce_of_filter_1_fails_before_update_of_filter_2(self):
        # Every filter of a block step updates before any reduces, yet a run
        # whose filter 1 fails to reduce and filter 2 to update at one step
        # reports filter 1's failure, as the per-state order has it.
        step = 4
        errors = []
        for run, module in ((run_once, runner_mod), (reference_run_once, support)):
            with (
                mock.patch.object(module, "reduce", failing_at(2 * step - 1, module.reduce, "filter 1 reduce")),
                mock.patch.object(module, "update", failing_at(2 * step, module.update, "filter 2 update")),
                pytest.raises(NumericsError) as err,
            ):
                run(self.CFG, 0, "independent")
            errors.append(str(err.value))
        assert errors == [f"numerical failure in run 0 at step {step}: filter 1 reduce"] * 2

    @pytest.mark.parametrize("failure", [None, "kernel", "fusion"])
    def test_run_leaves_the_fusion_module_as_found(self, failure, monkeypatch):
        # Whether the run is clean, a group's build fails, or a fusion
        # fails while its group's tables are alive, every attribute of
        # possfuse.fusion is the same object with the same contents after
        # the run: the tables travel as arguments, never through the module.
        if failure == "kernel":
            a, _ = self.fused_pairs(monkeypatch)[6]
            self.break_kernel_for(monkeypatch, a)
        before = {
            name: (value, copy.deepcopy(value) if isinstance(value, (dict, list, set)) else None)
            for name, value in vars(fusion_mod).items()
            if not name.startswith("__")
        }

        def unchanged():
            after = {name: value for name, value in vars(fusion_mod).items() if not name.startswith("__")}
            assert after.keys() == before.keys()
            for name, (value, contents) in before.items():
                assert after[name] is value, name
                assert contents is None or value == contents, name

        tables = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            # Nothing is filed in the module while the tables are in use either.
            unchanged()
            tables.append(kwargs["table"])
            if failure == "fusion" and len(tables) == 3:
                raise ValueError("injected fusion failure")
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", recording)
        if failure is None:
            run_once(self.CFG, 0, "dependent")
            assert len(tables) == 10 and None not in tables
        else:
            with pytest.raises(NumericsError) as err:
                run_once(self.CFG, 0, "dependent")
            assert err.value.step == {"kernel": 7, "fusion": 3}[failure]
            # A group whose build failed hands its steps no table.
            assert (tables[-1] is None) == (failure == "kernel")
        unchanged()


    @pytest.mark.parametrize("mode", ["independent", "dependent"])
    def test_no_table_outlives_its_group(self, mode, monkeypatch):
        # While a group's tables are built, no table of an earlier group is
        # alive: neither the pass nor the run's loop holds one.
        built, alive = [], []
        inner = fusion_mod._product_tables

        def recording(*args):
            alive.append(sum(ref() is not None for ref in built))
            tables = inner(*args)
            built.extend(weakref.ref(table) for table in tables)
            return tables

        monkeypatch.setattr(fusion_mod, "_product_tables", recording)
        run_once(self.CFG, 0, mode)
        assert len(alive) > 1 and alive == [0] * len(alive)


def assert_same_record(got, want):
    """Two run records hold the same bits: truth, series, existence pairs,
    component counts and estimates."""
    assert [None if p is None else p.tobytes() for p in got.truth_positions] == [
        None if p is None else p.tobytes() for p in want.truth_positions
    ]
    assert list(got.series) == list(want.series)
    for name, track in got.series.items():
        other = want.series[name]
        assert (track.q_absent, track.q_present) == (other.q_absent, other.q_present), name
        assert track.n_components == other.n_components, name
        for g, w in zip(track.estimates, other.estimates, strict=True):
            assert (g is None) == (w is None), name
            if g is not None:
                assert g.mean.tobytes() == w.mean.tobytes(), name
                assert g.covariance.tobytes() == w.covariance.tobytes(), name


def outcome(run, *args):
    """run(*args)'s record, or the step its NumericsError names."""
    try:
        return run(*args)
    except NumericsError as exc:
        return exc.step


def failing_at(call: Optional[int], inner, message: str = "injected failure"):
    """inner, except that its call number call raises ValueError(message)."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        if next(calls) == call:
            raise ValueError(message)
        return inner(*args, **kwargs)

    return wrapped


OMEGA_STRATEGIES = ("fixed(0)", "fixed(5e-324)", "fixed(0.37)", "fixed(0.5)", "fixed(1)", "min-trace")


@st.composite
def drawn_runs(draw):
    """A moderate config, a mode and a run index, and the calls of update
    and of fuse_independent, counted over the run, made to fail (or None)."""
    steps = draw(st.integers(2, 8))
    birth_step = draw(st.integers(1, steps))
    sensors = [
        {
            "pd_true": draw(st.floats(0.3, 1.0)),
            "noise_var": draw(st.floats(0.1, 50.0)),
            "clutter_rate": draw(st.floats(0.0, 30.0)),
        }
        for _ in range(2)
    ]
    doc = {
        "scenario": {
            "steps": steps,
            "birth_step": birth_step,
            "death_step": draw(st.integers(birth_step, steps)),
            "sensors": sensors,
        },
        "filter": {
            "reduction": {
                "prune_ratio": draw(st.sampled_from((0.0, 1e-3, 0.2))),
                "max_components": draw(st.sampled_from((1, 3, 100))),
                "merge_mahalanobis": draw(st.sampled_from((0.0, 2.0, 1e6))),
            }
        },
        "fusion": {"omega_strategy": draw(st.sampled_from(OMEGA_STRATEGIES))},
    }
    mode = draw(st.sampled_from(("single", "independent", "dependent")))
    filters = 1 if mode == "dependent" else 2
    fail_update = draw(st.none() | st.integers(1, steps * filters))
    fail_fusion = draw(st.none() | st.integers(1, steps))
    return doc, mode, draw(st.integers(0, 999)), fail_update, fail_fusion


CLUTTER30 = [{"pd_true": p, "noise_var": 2.0, "clutter_rate": 30.0} for p in (0.8, 0.6)]
PRUNE0 = {"prune_ratio": 0.0, "max_components": 100, "merge_mahalanobis": 0.0}


class TestReferenceRun:
    """run_once, which fuses after the recursion and hands each step its
    group's product table, records what the per-run path of the public
    per-state calls records, bit for bit."""

    CLUTTER20 = [{"pd_true": p, "noise_var": 2.0, "clutter_rate": 20.0} for p in (0.8, 0.6)]

    @pytest.mark.parametrize(
        "mode, doc",
        [
            pytest.param("single", {}, id="single"),
            pytest.param("independent", {"fusion": {"omega_strategy": "fixed(0.5)"}}, id="independent-fixed(0.5)"),
            pytest.param("dependent", {"fusion": {"omega_strategy": "min-trace"}}, id="dependent-min-trace"),
            pytest.param(
                "independent",
                {"scenario": {"sensors": CLUTTER20}, "fusion": {"omega_strategy": "min-trace"}},
                id="independent-min-trace-clutter20",
            ),
        ],
    )
    def test_run_once_equals_the_reference(self, mode, doc):
        cfg = parse_experiment({**doc, "runs": 2})
        for run_idx in range(cfg.runs):
            got = run_once(cfg, run_idx, mode)
            assert_same_record(got, reference_run_once(cfg, run_idx, mode))
            assert any(est is not None for track in got.series.values() for est in track.estimates)

    @given(drawn_runs())
    @example((
        {"scenario": {"steps": 8, "death_step": 8, "sensors": CLUTTER30}, "fusion": {"omega_strategy": "min-trace"}},
        "independent", 3, None, None,
    ))
    @example((
        {"scenario": {"steps": 8, "death_step": 8}, "filter": {"reduction": PRUNE0}},
        "independent", 0, None, None,
    ))
    # A fusion failure at step 2 comes before a filter failure at step 5.
    @example(({"scenario": {"steps": 6, "death_step": 6}}, "independent", 0, 9, 2))
    @settings(max_examples=30, deadline=None)
    def test_run_once_equals_the_reference_on_drawn_configs(self, case):
        doc, mode, run_idx, fail_update, fail_fusion = case
        cfg = parse_experiment(doc)
        outcomes = []
        for run, module in ((run_once, runner_mod), (reference_run_once, support)):
            with (
                mock.patch.object(module, "update", failing_at(fail_update, module.update)),
                mock.patch.object(module, "fuse_independent", failing_at(fail_fusion, module.fuse_independent)),
            ):
                outcomes.append(outcome(run, cfg, run_idx, mode))
        got, want = outcomes
        if isinstance(want, int) or isinstance(got, int):
            assert got == want, "run_once and the reference fail at different steps, or only one fails"
        else:
            assert_same_record(got, want)


def block_outcomes(cfg, runs, mode):
    """Each run's record, or its NumericsError, when the runs advance as
    one block, as a pool task runs them."""
    results = []
    for run_idx, recursion in zip(runs, runner_mod._recurse(cfg, runs, mode)):
        try:
            results.append(run_once(cfg, run_idx, mode, recursion=recursion))
        except NumericsError as exc:
            results.append(exc)
    return results


class TestBlock:
    """A run that fails inside a block drops out alone: every other run
    records what it records on its own, bit for bit, and the failing run
    raises what it raises on its own."""

    RUNS = range(4)
    TARGET, STEP = 2, 4

    @pytest.fixture
    def target_scan(self, monkeypatch):
        """Returns the first sensor's scan at STEP of the run TARGET's
        latest simulation, or None before that run is simulated."""
        seen = {}
        inner = runner_mod._simulate_run

        def recording(cfg, run_idx, mode):
            truth, labeled = inner(cfg, run_idx, mode)
            seen[run_idx] = labeled[0][self.STEP - 1][0]
            return truth, labeled

        monkeypatch.setattr(runner_mod, "_simulate_run", recording)
        return lambda: seen.get(self.TARGET)

    def assert_isolated(self, cfg, mode, block):
        for run_idx, got in zip(self.RUNS, block, strict=True):
            try:
                want = run_once(cfg, run_idx, mode)
            except NumericsError as exc:
                want = exc
            if run_idx == self.TARGET:
                assert isinstance(got, NumericsError) and isinstance(want, NumericsError)
                assert (got.run, got.step, str(got)) == (want.run, want.step, str(want))
            else:
                assert_same_record(got, want)

    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    def test_update_failure_in_one_run(self, mode, target_scan, monkeypatch):
        inner = runner_mod.update

        def failing(pred, scan, *args, **kwargs):
            if scan is target_scan():
                raise ValueError("injected failure")
            return inner(pred, scan, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "update", failing)
        cfg = small_cfg(runs=len(self.RUNS), steps=8, death_step=8)
        block = block_outcomes(cfg, self.RUNS, mode)
        assert str(block[self.TARGET]).endswith(f"run {self.TARGET} at step {self.STEP}: injected failure")
        self.assert_isolated(cfg, mode, block)

    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    def test_lane_that_fails_the_stacked_stage(self, mode, target_scan, monkeypatch):
        # After STEP, the run TARGET holds one component whose covariance is
        # negative definite (reduce keeps a lone component as it is), so the
        # next step's stacked propagation over every run raises.
        inner = runner_mod.update

        def corrupting(pred, scan, *args, **kwargs):
            post = inner(pred, scan, *args, **kwargs)
            if scan is not target_scan():
                return post
            mix = post.spatial
            bad = GaussianMaxMixture._derived(np.ones(1), mix.means[:1].copy(), -mix.covariances[:1])
            return BernoulliPossState(post.q_absent, post.q_present, bad)

        failed_stacks = []
        stage = runner_mod._propagated

        def watched(lanes, motion):
            try:
                return stage(lanes, motion)
            except ValueError:
                failed_stacks.append(sum(map(len, lanes)))
                raise

        monkeypatch.setattr(runner_mod, "update", corrupting)
        monkeypatch.setattr(runner_mod, "_propagated", watched)
        cfg = small_cfg(runs=len(self.RUNS), steps=8, death_step=8)
        block = block_outcomes(cfg, self.RUNS, mode)
        in_block = failed_stacks.copy()
        failed_stacks.clear()
        # With fusion, the fused pair of step STEP meets the bad state first.
        step = self.STEP + 1 if mode == "single" else self.STEP
        assert str(block[self.TARGET]).endswith(
            f"run {self.TARGET} at step {step}: covariance is not positive definite"
        )
        self.assert_isolated(cfg, mode, block)
        # One stacked stage failed in the block and one when the target ran
        # alone; the block's held the other runs' lanes too.
        assert len(in_block) == len(failed_stacks) == 1
        assert in_block[0] > failed_stacks[0]

    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    @pytest.mark.parametrize("stage", ["gains", "tables"])
    def test_lane_that_fails_a_step_stage(self, mode, stage, target_scan, monkeypatch):
        # The run TARGET's first filter breaks one stage of a step: the
        # update stage's gains, with NaN predicted covariances at the
        # predict whose birth comes from its scan at STEP, or the reduce
        # tables, with a pair of negative definite components after its
        # update at STEP.  Then no lane of the block gets that stage's
        # entry at that step: every update (or reduce) computes its own,
        # and the failing run fails at its own step with its own message.
        if stage == "gains":
            births = []
            inner_birth, inner_predict = runner_mod.build_birth_mixture, runner_mod.predict

            def marking(scan, birth_cfg):
                birth = inner_birth(scan, birth_cfg)
                if scan is not None and scan is target_scan():
                    births.append(birth)
                return birth

            def corrupting(state, motion, phi, birth, **kwargs):
                pred = inner_predict(state, motion, phi, birth, **kwargs)
                if not any(birth is b for b in births):
                    return pred
                mix = pred.spatial
                bad = GaussianMaxMixture._derived(mix.weights, mix.means, np.full_like(mix.covariances, np.nan))
                return BernoulliPossState(pred.q_absent, pred.q_present, bad)

            monkeypatch.setattr(runner_mod, "build_birth_mixture", marking)
            monkeypatch.setattr(runner_mod, "predict", corrupting)
            step, message = self.STEP + 1, "covariance is not finite"
            stage_name, op_name = "_detected", "update"
        else:
            inner_update = runner_mod.update

            def corrupting(pred, scan, *args, **kwargs):
                post = inner_update(pred, scan, *args, **kwargs)
                if scan is not target_scan():
                    return post
                mix = post.spatial
                bad = GaussianMaxMixture._derived(np.ones(2), mix.means[:2].copy(), -mix.covariances[:2])
                return BernoulliPossState(post.q_absent, post.q_present, bad)

            monkeypatch.setattr(runner_mod, "update", corrupting)
            step, message = self.STEP, "Matrix is not positive definite"
            stage_name, op_name = "_survivors", "reduce"

        # Each failed stage call, then, per call of the operation, whether
        # it was handed no stage at all.
        events = []
        inner_stage, inner_op = getattr(runner_mod, stage_name), getattr(runner_mod, op_name)

        def watched_stage(*args):
            try:
                return inner_stage(*args)
            except ValueError:
                events.append("failed")
                raise

        def watched_op(*args, **kwargs):
            events.append(all(value is None for value in kwargs.values()))
            return inner_op(*args, **kwargs)

        monkeypatch.setattr(runner_mod, stage_name, watched_stage)
        monkeypatch.setattr(runner_mod, op_name, watched_op)
        cfg = small_cfg(runs=len(self.RUNS), steps=8, death_step=8)
        block = block_outcomes(cfg, self.RUNS, mode)
        assert str(block[self.TARGET]).endswith(f"run {self.TARGET} at step {step}: {message}")
        # The failing run stops at its first filter; every other lane of
        # the block gets the stage at every step but this one.
        filters = 1 if mode == "dependent" else 2
        lanes = (len(self.RUNS) - 1) * filters + 1
        assert events.count("failed") == 1
        at = events.index("failed")
        assert events[at + 1 : at + 1 + lanes] == [True] * lanes
        assert not any(events[:at])
        events.clear()
        self.assert_isolated(cfg, mode, block)

    @pytest.mark.parametrize("runs", [1, 3, 8])
    def test_one_scan_and_table_call_per_block_step(self, runs, monkeypatch):
        # A block step makes one call of each of its three stages, whatever
        # the lane count, and also when the sensors' noise matrices differ.
        # Within them, one _log_sup_product call serves every lane's scan
        # half and one _distances call (one Cholesky, one solve) the reduce
        # tables of every lane with more than one survivor; no update or
        # reduce computes its own.
        calls = dict.fromkeys(["_log_sup_product", "_distances", "_propagated", "_detected"], 0)

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("_log_sup_product", "_distances"):
            counted(bernoulli_mod, name)
        for name in ("_propagated", "_detected"):
            counted(runner_mod, name)
        tabled = []
        inner = runner_mod._survivors

        def stage(mixtures, config):
            entries = inner(mixtures, config)
            tabled.append(any(table is not None for *_, table in entries))
            return entries

        monkeypatch.setattr(runner_mod, "_survivors", stage)
        steps = 8
        cfg = small_cfg(runs=runs, steps=steps, death_step=steps)
        noisy = small_cfg(runs=runs, steps=steps, death_step=steps, sensors=tuple(
            dataclasses.replace(s, noise_var=v) for s, v in zip(cfg.scenario.sensors, (2.0, 3.0))))
        for config, mode in ((cfg, "independent"), (cfg, "dependent"), (noisy, "independent")):
            for name in calls:
                calls[name] = 0
            tabled.clear()
            recursions = runner_mod._recurse(config, range(runs), mode)
            assert calls["_propagated"] == calls["_detected"] == len(tabled) == steps
            assert calls["_log_sup_product"] == steps
            assert calls["_distances"] == sum(tabled) > 0
            for run_idx, recursion in zip(range(runs), recursions):
                got = run_once(config, run_idx, mode, recursion=recursion)
                assert_same_record(got, reference_run_once(config, run_idx, mode))

    def test_filters_over_the_stage_bound_run_their_stages_alone(self, monkeypatch):
        # At clutter 20 most filters bring more than LANE_STAGE_ROWS rows:
        # their update and reduce get no block stage and run the stage
        # functions on their own state; the smaller ones still join.
        bound = runner_mod.LANE_STAGE_ROWS
        handed = {"update": [], "reduce": []}
        inner_update, inner_reduce = runner_mod.update, runner_mod.reduce

        def update(pred, scan, *args, staged):
            handed["update"].append((staged is not None, pred.spatial.n_components * len(scan.points) <= bound))
            return inner_update(pred, scan, *args, staged=staged)

        def reduce(mixture, config, *, staged):
            handed["reduce"].append((staged is not None, mixture.n_components <= bound))
            return inner_reduce(mixture, config, staged=staged)

        monkeypatch.setattr(runner_mod, "update", update)
        monkeypatch.setattr(runner_mod, "reduce", reduce)
        sensors = [{"pd_true": p, "noise_var": 2.0, "clutter_rate": 20.0} for p in (0.8, 0.6)]
        cfg = parse_experiment({"runs": 3, "scenario": {"steps": 10, "death_step": 10, "sensors": sensors}})
        for run_idx, got in enumerate(block_outcomes(cfg, range(cfg.runs), "single")):
            assert_same_record(got, run_once(cfg, run_idx, "single"))
        for name, calls in handed.items():
            assert all(staged == small for staged, small in calls), name
            assert {small for _, small in calls} == {False, True}, name


class TestPoolPayload:
    def test_worker_returns_scores_and_scans_only_when_dumped(self):
        cfg = small_cfg(steps=6, death_step=6)
        [(scores, scans)] = runner_mod._pool_entry((cfg, [1], "independent", False))
        assert isinstance(scores, RunScores) and scans is None
        record = run_once(cfg, 1, "independent")
        assert len(pickle.dumps(scores)) < len(pickle.dumps(record)) / 2
        [(_, scans)] = runner_mod._pool_entry((cfg, [1], "independent", True))
        assert [len(labeled) for labeled in scans] == [6, 6]

    @pytest.mark.parametrize("mode", ["single", "independent", "dependent"])
    def test_folded_scores_equal_aggregate_of_records(self, mode, tmp_path, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", "1")
        cfg = small_cfg(runs=3, steps=8, death_step=8)
        result = runner_mod._drive(cfg, mode, tmp_path, False)
        cutoff = cfg.metrics.ospa_cutoff
        want = fold_scores([score_run(run_once(cfg, i, mode), cutoff) for i in range(cfg.runs)])
        for field in ("mean_ospa", "mean_trace", "present_count", "mean_q_absent", "mean_q_present"):
            for name in want.series:
                got = getattr(result.aggregate, field)[name]
                assert got.tobytes() == getattr(want, field)[name].tobytes(), (field, name)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_scan_dump_simulates_each_run_once(self, threads, tmp_path, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", threads)
        calls = []
        inner = runner_mod._simulate_run

        def counting(*args):
            calls.append(args[1])
            return inner(*args)

        monkeypatch.setattr(runner_mod, "_simulate_run", counting)
        cfg = small_cfg(runs=3, steps=5, death_step=5)
        result = run_single(cfg, out_dir=tmp_path, dump_scans=True)
        assert "scans" in result.files
        # Pool workers simulate in their own processes; the parent never does.
        assert calls == ([0, 1, 2] if threads == "1" else [])


class TestNearIdealOracle:
    def test_clean_sensor_tracks_below_one_km(self, tmp_path):
        # No clutter, certain detection, tight noise: after a short
        # settle-in the estimate should stay well inside 1 km.
        cfg = small_cfg(
            runs=3,
            sensors=(SensorConfig(pd_true=1.0, noise_var=0.01, clutter_rate=0.0),),
        )
        result = run_single(cfg, out_dir=tmp_path / "out")
        series = result.aggregate.mean_ospa["sensor1"]
        assert all(v < 1.0 for v in series[5:])


class TestOutputFiles:
    def test_csv_schemas_and_row_counts(self, tmp_path):
        cfg = small_cfg(runs=1)
        result = run_fusion_independent(cfg, out_dir=tmp_path / "out", dump_scans=True)
        ospa_lines = result.files["ospa"].read_text().strip().splitlines()
        assert ospa_lines[0] == "step,series,mean_ospa,runs"
        assert len(ospa_lines) == 1 + 50 * 4
        trace_lines = result.files["trace"].read_text().strip().splitlines()
        assert trace_lines[0] == "step,series,mean_trace,present_count"
        assert len(trace_lines) == 1 + 50 * 4
        presence_lines = result.files["presence"].read_text().strip().splitlines()
        assert presence_lines[0] == "step,series,mean_q_absent,mean_q_present"
        scans_lines = result.files["scans"].read_text().strip().splitlines()
        assert scans_lines[0] == "run,step,sensor,x_km,y_km,is_clutter"
        sensors_seen = {line.split(",")[2] for line in scans_lines[1:]}
        assert sensors_seen == {"1", "2"}

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = small_cfg(runs=1)
        result = run_single(cfg, out_dir=tmp_path / "out")
        lines = result.files["ospa"].read_text().strip().splitlines()[1:]
        agg = result.aggregate
        for line in lines[:100]:
            step, series, val, runs = line.split(",")
            assert float(val) == agg.mean_ospa[series][int(step) - 1]
            assert runs == "1"

    def test_single_mode_writes_per_sensor_series(self, tmp_path):
        cfg = small_cfg(runs=1)
        result = run_single(cfg, out_dir=tmp_path / "out")
        assert result.aggregate.series == ("sensor1", "sensor2")
        assert "scans" not in result.files


def read_all_outputs(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_cfg(runs=3)
        run_fusion_independent(cfg, out_dir=tmp_path / "a")
        run_fusion_independent(cfg, out_dir=tmp_path / "b")
        assert read_all_outputs(tmp_path / "a") == read_all_outputs(tmp_path / "b")

    def test_pool_size_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = small_cfg(runs=3)
        monkeypatch.setenv("POSSFUSE_THREADS", "1")
        run_single(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setenv("POSSFUSE_THREADS", "2")
        run_single(cfg, out_dir=tmp_path / "pooled")
        assert read_all_outputs(tmp_path / "serial") == read_all_outputs(tmp_path / "pooled")

    def test_seed_changes_output(self, tmp_path):
        cfg = small_cfg(runs=2)
        run_single(cfg, out_dir=tmp_path / "a")
        run_single(dataclasses.replace(cfg, master_seed=1), out_dir=tmp_path / "b")
        assert read_all_outputs(tmp_path / "a") != read_all_outputs(tmp_path / "b")


class TestWorkerCount:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", "3")
        assert runner_mod._worker_count(10) == 3
        assert runner_mod._worker_count(2) == 2

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", "abc")
        with pytest.raises(ConfigError):
            runner_mod._worker_count(4)
        monkeypatch.setenv("POSSFUSE_THREADS", "0")
        with pytest.raises(ConfigError):
            runner_mod._worker_count(4)

    def test_default_is_cpu_bounded(self, monkeypatch):
        monkeypatch.delenv("POSSFUSE_THREADS", raising=False)
        assert 1 <= runner_mod._worker_count(64) <= 64

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_default_follows_the_cpu_affinity_mask(self):
        # A process pinned to one CPU, as `taskset -c 0` starts it, sizes its
        # pool to that CPU, however many the machine has.
        code = (
            "import os; os.environ.pop('POSSFUSE_THREADS', None); "
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from possfuse.runner import _worker_count; print(_worker_count(30))"
        )
        result = run_cli(["-c", code])
        assert (result.returncode, result.stdout) == (0, "1\n"), result.stderr


class TestCli:
    def test_single_subcommand(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["single", "--runs", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "ospa.csv").exists()
        assert (out / "presence.csv").exists()
        printed = capsys.readouterr().out
        assert "2 runs" in printed

    def test_config_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(serialize_experiment(small_cfg(runs=5))))
        out = tmp_path / "res"
        code = main(
            ["fuse-dependent", "--config", str(cfg_path), "--runs", "1", "--out", str(out)]
        )
        assert code == 0
        text = (out / "trace.csv").read_text()
        for name in ("single", "chernoff", "centralized"):
            assert f",{name}," in text

    def test_dump_scans_flag(self, tmp_path):
        out = tmp_path / "res"
        code = main(["single", "--runs", "1", "--out", str(out), "--dump-scans"])
        assert code == 0
        assert (out / "scans.csv").exists()

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        code = main(["single", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_nan_config_value_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text('{"scenario": {"sensors": [{"clutter_rate": NaN}, {}]}}')
        code = main(["single", "--config", str(path), "--runs", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: scenario.sensors[0].clutter_rate" in err
        assert "finite" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("interval", [[0.0, 0.0], [1.0, 1.0]])
    def test_pd_interval_the_filter_rejects_is_exit_2(self, interval, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"filter": {"pd_interval": interval}}))
        out = tmp_path / "x"
        code = main(["single", "--config", str(path), "--runs", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: filter.pd_interval:")
        assert not out.exists()

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("command", ["fuse-independent", "fuse-dependent"])
    def test_fusion_sensor_count_is_exit_2(self, command, count, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", "2")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": {"sensors": [{}] * count}}))
        out = tmp_path / "x"
        code = main([command, "--config", str(path), "--runs", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario.sensors:")
        assert err.count("exactly 2 sensors") == 1
        assert not out.exists()

    def test_repeated_config_key_is_exit_2(self, tmp_path, capsys):
        # json.load alone keeps the last value: 2 runs and exit 0.
        path = tmp_path / "exp.json"
        path.write_text('{"runs": 3, "scenario": {"steps": 3, "death_step": 3}, "runs": 2}')
        out = tmp_path / "x"
        assert main(["single", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: runs: repeated key\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "runs, cutoff, flags", [(10, 1e308, []), (1, 1e307, ["--runs", "100"])], ids=["config-runs", "runs-flag"]
    )
    def test_ospa_cutoff_whose_sum_overflows_is_exit_2(self, runs, cutoff, flags, workers, tmp_path, capsys, monkeypatch):
        # Each step's OSPA sum over the runs can reach cutoff x runs; unchecked,
        # 1e308 x 10 runs puts inf on 10 of ospa.csv's 16 rows, with exit 0.
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        monkeypatch.setattr(runner_mod, "_collect_runs", lambda *args: pytest.fail("runs were computed"))
        path = tmp_path / "exp.json"
        scenario = {"steps": 8, "birth_step": 3, "death_step": 5}
        path.write_text(json.dumps({"runs": runs, "scenario": scenario, "metrics": {"ospa_cutoff": cutoff}}))
        out = tmp_path / "x"
        assert main(["single", "--config", str(path), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: metrics.ospa_cutoff: ")
        assert not out.exists()

    def test_ospa_cutoff_whose_sum_stays_finite_is_written(self, tmp_path):
        # The check reads the run count after --runs: 1e307 x 100 config runs
        # overflows, 1e307 x 10 does not.
        path = tmp_path / "exp.json"
        doc = {"runs": 100, "scenario": {"steps": 8, "birth_step": 3, "death_step": 5}, "metrics": {"ospa_cutoff": 1e307}}
        path.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert main(["single", "--config", str(path), "--runs", "10", "--out", str(out)]) == 0
        rows = (out / "ospa.csv").read_text().splitlines()[1:]
        assert len(rows) == 16 and all(np.isfinite(float(row.split(",")[2])) for row in rows)

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
    def test_mean_ospa_near_the_cutoff_is_reported_finite(self, flags, tmp_path):
        # Summed before dividing, the 8 per-step means near 1e308 overflowed:
        # "mean OSPA over run inf", or a traceback and exit 1 under -W error.
        path = tmp_path / "exp.json"
        doc = {"runs": 1, "scenario": {"steps": 8, "birth_step": 3, "death_step": 5}, "metrics": {"ospa_cutoff": 1e308}}
        path.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(support.SRC), os.environ.get("PYTHONPATH")]))}
        command = [sys.executable, *flags, "-m", "possfuse.cli", "single", "--runs", "1", "--config", str(path), "--out", str(tmp_path / "x")]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        means = re.findall(r"mean OSPA over run (\S+)\n", done.stdout)
        assert len(means) == 2 and all(np.isfinite(float(m)) and float(m) > 1e307 for m in means)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_unusable_out_is_exit_2_before_any_run(self, under_file, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        monkeypatch.setattr(runner_mod, "_collect_runs", lambda *args: pytest.fail("runs were computed"))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "res" if under_file else blocker
        code = main(["fuse-independent", "--runs", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"configuration error: output_dir: cannot create {out}: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("target", ["ospa.csv", "trace.csv"])
    def test_directory_target_is_exit_2_before_any_run(self, target, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        out = tmp_path / "res"
        args = ["single", "--runs", "2", "--out", str(out), "--dump-scans"]
        assert main(args + ["--seed", "1"]) == 0
        (out / target).unlink()
        (out / target).mkdir()
        before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        monkeypatch.setattr(runner_mod, "_collect_runs", lambda *args: pytest.fail("runs were computed"))
        assert main(args + ["--seed", "2"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: output_dir: cannot write {out / target}: it is a directory\n"
        )
        assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("failure", ["disk-full", "directory-made-during-the-runs"])
    def test_failed_write_replaces_no_file(self, failure, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        out = tmp_path / "res"
        args = ["single", "--runs", "2", "--out", str(out), "--dump-scans"]
        assert main(args + ["--seed", "1"]) == 0
        before = read_all_outputs(out)
        capsys.readouterr()
        if failure == "disk-full":
            # The third file fails part-way, after two were written in full.
            target, reason = out / "presence.csv", os.strerror(errno.ENOSPC)
            write_text = Path.write_text

            def fill_up(path, text, **kwargs):
                if path.name.startswith(".presence.csv."):
                    write_text(path, text[:10], **kwargs)
                    raise OSError(errno.ENOSPC, reason, str(path))
                return write_text(path, text, **kwargs)

            monkeypatch.setattr(Path, "write_text", fill_up)
        else:
            target, reason = out / "trace.csv", "it is a directory"
            fold = runner_mod.fold_scores

            def block_then_fold(scores):
                target.unlink()
                target.mkdir()
                return fold(scores)

            monkeypatch.setattr(runner_mod, "fold_scores", block_then_fold)
            del before["trace.csv"]
        assert main(args + ["--seed", "2"]) == 2
        assert capsys.readouterr().err == f"configuration error: output_dir: cannot write {target}: {reason}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_bad_worker_count_is_exit_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", "0")
        out = tmp_path / "x"
        assert main(["single", "--runs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: POSSFUSE_THREADS:")
        assert not out.exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the replaced update only when forked",
    )
    def test_numerics_error_in_pool_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("synthetic breakdown")

        monkeypatch.setattr(runner_mod, "update", boom)
        monkeypatch.setenv("POSSFUSE_THREADS", "2")
        code = main(["single", "--runs", "4", "--out", str(tmp_path / "res")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure in run 0 at step 1: synthetic breakdown" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "scenario, field",
        [
            ({"region": {"xmax": 1e-300}}, "scenario.region.xmax"),
            ({"region": {"ymax": 1e300}, "psd": 0.0}, "scenario.region.ymax"),
            ({"dt": 1e300}, "scenario.dt"),
            ({"dt": 5e-324}, "scenario.dt"),
        ],
        ids=["xmax-1e-300", "ymax-1e300-psd-0", "dt-1e300", "dt-5e-324"],
    )
    def test_unbuildable_scenario_is_exit_2(self, scenario, field, workers, tmp_path, capsys, monkeypatch):
        # The region's ignorance variance and the process noise's Cholesky
        # factor are checked where the config is parsed, not at run setup.
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": scenario}))
        code = main(["fuse-independent", "--config", str(path), "--runs", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_setup_failure_is_exit_3_at_step_0(self, workers, tmp_path, capsys, monkeypatch):
        # A start this far out passes validation, and its truth overflows
        # while the run's scenario is simulated.  The overflow raises, so
        # this suite's warnings-as-errors filter does not decide the code.
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        scenario = {"initial_state": [1e308, 1e308, 55.0, 0.0]}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": scenario}))
        args = ["fuse-independent", "--config", str(path), "--runs", "2", "--out", str(tmp_path / "x")]
        code = main(args)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure in run 0 at step 0: overflow encountered")
        assert "Traceback" not in err
        # The same from a command line that turns warnings into errors.
        child = run_cli(["-W", "error::RuntimeWarning", "-m", "possfuse.cli", *args])
        assert child.returncode == 3
        assert child.stderr.startswith("error: numerical failure in run 0 at step 0: overflow encountered")
        # A sensor count the fusion cannot use is still a configuration error.
        path.write_text(json.dumps({"scenario": dict(scenario, sensors=[{}] * 3)}))
        code = main(args)
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: scenario.sensors:")

    @staticmethod
    def signal_pooled_single(tmp_path, stop):
        """Start a 2-worker `single` command of 16 runs of 400 steps, call
        stop(command pid, its pool workers) once both workers run, and
        return (exit code, stderr, output directory) once the command has
        exited and, within a bounded wait, every worker with it.  Workers
        still running then fail the test and are killed."""
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"runs": 16, "scenario": {"steps": 400, "death_step": 400}}))
        out = tmp_path / "res"
        env = {**os.environ, "POSSFUSE_THREADS": "2"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(support.SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "possfuse.cli", "single", "--config", str(path), "--out", str(out)]
        workers = []
        # stderr goes to a file: a leaked worker would hold a pipe open.
        with open(tmp_path / "stderr", "w+") as err, subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=err
        ) as child:
            try:
                workers = wait_for(lambda: len(found := support.live_children(child.pid, command)) == 2 and found) or []
                assert workers, "the command did not start its 2 pool workers"
                stop(child.pid, workers)
                child.wait(timeout=60)
                assert wait_for(lambda: not support.live_children(child.pid, command, workers)), (
                    "pool workers outlived their command"
                )
            finally:
                child.kill()
                for pid in support.live_children(child.pid, command, workers):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            err.seek(0)
            return child.returncode, err.read(), out

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="finds the pool workers under /proc")
    def test_killed_worker_is_exit_4_naming_the_runs(self, tmp_path):
        # One of the command's own pool workers gets SIGKILL while every
        # block still runs, as the kernel's out-of-memory killer would
        # send it.
        code, err, out = self.signal_pooled_single(tmp_path, lambda pid, workers: os.kill(workers[0], signal.SIGKILL))
        assert code == 4, err
        assert re.fullmatch(r"error: a pool worker died before runs \d+-\d+(, \d+-\d+)* returned\n", err), err
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="finds the pool workers under /proc")
    @pytest.mark.parametrize("delay", [0.0, 0.5], ids=["pool-starting", "blocks-running"])
    def test_sigterm_stops_the_pool_and_is_exit_143(self, delay, tmp_path):
        # At once, the signal most likely lands while the pool still starts
        # its workers; half a second later, while they run their blocks.
        def stop(pid, workers):
            time.sleep(delay)
            os.kill(pid, signal.SIGTERM)

        code, err, out = self.signal_pooled_single(tmp_path, stop)
        assert code == 128 + signal.SIGTERM, err
        assert err == ""
        assert list(out.iterdir()) == []

    def test_sigterm_handler_is_restored_after_the_pool(self, tmp_path, monkeypatch):
        # A caller that set its own handler, as possbench does, keeps it.
        def own(signum, frame):
            pass

        monkeypatch.setenv("POSSFUSE_THREADS", "2")
        previous = signal.signal(signal.SIGTERM, own)
        try:
            run_single(small_cfg(runs=2, steps=4, death_step=4), out_dir=tmp_path)
            assert signal.getsignal(signal.SIGTERM) is own
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_pool_broken_while_submitting_is_exit_4(self, tmp_path, capsys, monkeypatch):
        # A worker that dies while blocks are still being submitted makes
        # submit raise; a block never submitted has not returned either.
        class SubmitBreaks:
            def __init__(self, **kwargs):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                self.submitted += 1
                if self.submitted == 2:
                    raise BrokenProcessPool("A child process terminated abruptly")
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", SubmitBreaks)
        monkeypatch.setenv("POSSFUSE_THREADS", "3")
        # Three runs at three workers are three blocks of one run each.
        doc = {"runs": 3, "scenario": {"steps": 4, "death_step": 4}}
        with pytest.raises(runner_mod.WorkerDiedError) as err:
            run_single(parse_experiment(doc), out_dir=tmp_path / "a")
        assert err.value.runs == [1, 2]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert main(["single", "--config", str(path), "--out", str(tmp_path / "b")]) == 4
        assert capsys.readouterr().err == "error: a pool worker died before runs 1-2 returned\n"
        assert list((tmp_path / "b").iterdir()) == []

    def test_bad_flag_value_is_exit_2(self, tmp_path, capsys):
        code = main(["single", "--runs", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_fuse_independent_smoke(self, tmp_path):
        out = tmp_path / "res"
        code = main(["fuse-independent", "--runs", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        text = (out / "ospa.csv").read_text()
        for name in ("sensor1", "sensor2", "chernoff", "centralized"):
            assert f",{name}," in text

    def test_selftest_subcommand(self, capsys):
        code = main(["selftest", "--pairs", "2", "--seed", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, name",
        [(["--pairs", "0"], "--pairs"), (["--pairs", "-3"], "--pairs"), (["--seed", "-1"], "--seed")],
    )
    def test_selftest_bad_flag_is_exit_2(self, flags, name, capsys):
        code = main(["selftest", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {name}:")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "scenario, field",
        [
            ({"steps": 2**63, "death_step": 8}, "scenario.steps"),
            ({"steps": 8, "death_step": 8, "sensors": [{"clutter_rate": 1e300}, {}]},
             "scenario.sensors[0].clutter_rate"),
            ({"steps": 8, "death_step": 8, "sensors": [{}, {"clutter_rate": ABOVE_POISSON_BOUND}]},
             "scenario.sensors[1].clutter_rate"),
        ],
        ids=["steps-2**63", "clutter-1e300", "clutter-above-poisson-bound"],
    )
    def test_value_no_run_can_use_is_exit_2(self, scenario, field, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": scenario}))
        code = main(["single", "--config", str(path), "--runs", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memory_error_without_message_is_named_by_its_type(self, workers, tmp_path, capsys, monkeypatch):
        # A truth list of sys.maxsize steps raises a bare MemoryError at once.
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": {"steps": sys.maxsize, "death_step": 8}}))
        code = main(["single", "--config", str(path), "--runs", "2", "--out", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err == "error: numerical failure in run 0 at step 0: MemoryError\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_omega_too_small_to_fuse_reports_sensor1(self, workers, tmp_path, monkeypatch):
        monkeypatch.setenv("POSSFUSE_THREADS", workers)
        path = tmp_path / "exp.json"
        doc = {"scenario": {"steps": 6, "death_step": 6}, "fusion": {"omega_strategy": "fixed(5e-324)"}}
        path.write_text(json.dumps(doc))
        out = tmp_path / "res"
        assert main(["fuse-independent", "--config", str(path), "--runs", "3", "--out", str(out)]) == 0
        for name in ("ospa", "trace", "presence"):
            lines = (out / f"{name}.csv").read_text().splitlines()
            sensor1 = [line.replace(",sensor1,", ",") for line in lines if ",sensor1," in line]
            chernoff = [line.replace(",chernoff,", ",") for line in lines if ",chernoff," in line]
            assert len(chernoff) == 6 and chernoff == sensor1, name

    @pytest.mark.parametrize("command", ["single", "fuse-independent", "fuse-dependent", "selftest"])
    def test_negative_seed_is_exit_2(self, command, tmp_path, capsys):
        out = tmp_path / "x"
        flags = [] if command == "selftest" else ["--out", str(out)]
        assert main([command, "--seed", "-1", *flags]) == 2
        assert capsys.readouterr().err == "configuration error: --seed: must not be negative, got -1\n"
        assert not out.exists()
