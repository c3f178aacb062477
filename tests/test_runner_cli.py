"""Experiment drivers, output files, determinism, and the CLI."""

import dataclasses
import json
import multiprocessing
import pickle
import sys

import numpy as np
import pytest

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
from possfuse.metrics import RunScores, fold_scores, score_run
from possfuse.runner import (
    NumericsError,
    run_fusion_dependent,
    run_fusion_independent,
    run_once,
    run_single,
)
from possfuse.simulate import ScenarioConfig, SensorConfig
from support import run_cli


def small_cfg(runs=2, **scenario_kw):
    cfg = default_experiment()
    scenario = dataclasses.replace(cfg.scenario, **scenario_kw) if scenario_kw else cfg.scenario
    return dataclasses.replace(cfg, runs=runs, scenario=scenario)


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
    def break_kernel_for(monkeypatch, state):
        """Make every fused covariance of a component of state's mixture
        non-positive definite; the runs are deterministic, so its means
        find it bit for bit.  Returns the size of each kernel call."""
        target = state.spatial.means
        original = fusion_mod._cross_arrays
        sizes = []

        def patched(components, e1, i1, *rest):
            log_alpha, weights, kept, means, covs = original(components, e1, i1, *rest)
            hit = (components[1][i1[kept]][:, None] == target[None]).all(axis=-1).any(axis=-1)
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
        # The run's first call held step 7 together with other steps.
        rows = len(fusion_mod._SEARCH_ROWS)
        assert sizes[0] > rows * a.spatial.n_components * b.spatial.n_components

    @pytest.mark.parametrize("failure", [None, "kernel", "fusion"])
    def test_tables_leave_with_their_group(self, failure, monkeypatch):
        # Whether the run is clean, a group's build fails, or a fusion
        # fails while its group's tables are filed, none outlives the run.
        if failure == "kernel":
            a, _ = self.fused_pairs(monkeypatch)[6]
            self.break_kernel_for(monkeypatch, a)
        filed = []
        inner = runner_mod.fuse_independent

        def recording(a, b, **kwargs):
            filed.append(len(fusion_mod._TABLES))
            if failure == "fusion" and len(filed) == 3:
                raise ValueError("injected fusion failure")
            return inner(a, b, **kwargs)

        monkeypatch.setattr(runner_mod, "fuse_independent", recording)
        if failure is None:
            run_once(self.CFG, 0, "dependent")
            assert len(filed) == 10 and max(filed) > 1
        else:
            with pytest.raises(NumericsError) as err:
                run_once(self.CFG, 0, "dependent")
            assert err.value.step == {"kernel": 7, "fusion": 3}[failure]
            if failure == "fusion":
                assert filed[-1] > 1
        assert fusion_mod._TABLES == {}


class TestPoolPayload:
    def test_worker_returns_scores_and_scans_only_when_dumped(self):
        cfg = small_cfg(steps=6, death_step=6)
        scores, scans = runner_mod._pool_entry((cfg, 1, "independent", False))
        assert isinstance(scores, RunScores) and scans is None
        record = run_once(cfg, 1, "independent")
        assert len(pickle.dumps(scores)) < len(pickle.dumps(record)) / 2
        _, scans = runner_mod._pool_entry((cfg, 1, "independent", True))
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
        ],
        ids=["steps-2**63", "clutter-1e300"],
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
