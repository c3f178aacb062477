"""Experiment configuration: defaults, parsing, round-trips, errors."""

import dataclasses
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from possfuse.bernoulli import ReductionConfig
from possfuse.config import (
    BirthSettings,
    ConfigError,
    ExperimentConfig,
    FilterSettings,
    MetricSettings,
    default_experiment,
    load_experiment,
    parse_experiment,
    serialize_experiment,
)
from possfuse.gaussmax import NORM_TOL
from possfuse.runner import _Filter
from possfuse.simulate import POISSON_RATE_MAX, BirthConfig, Rect, ScenarioConfig, SensorConfig
from support import FLOAT_EXTREMES, run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


class TestDefaults:
    def test_benchmark_defaults(self):
        cfg = default_experiment()
        assert cfg.runs == 100
        assert cfg.master_seed == 0
        assert cfg.scenario.steps == 50
        assert cfg.filter.pd_interval == (0.5, 1.0)
        assert cfg.filter.phi == ((1.0, 0.01), (0.01, 1.0))
        assert cfg.filter.reduction.prune_ratio == 1e-3
        assert cfg.filter.reduction.merge_mahalanobis == 2.0
        assert cfg.filter.reduction.max_components == 100
        assert cfg.filter.birth.pos_var is None
        assert cfg.filter.birth.vel_var == 0.25
        assert cfg.fusion.omega_strategy == "fixed(0.5)"
        assert cfg.metrics.ospa_cutoff == 10.0


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = default_experiment()
        data = serialize_experiment(cfg)
        assert parse_experiment(data) == cfg

    def test_serialized_form_is_json(self, tmp_path):
        cfg = default_experiment()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(serialize_experiment(cfg)))
        assert load_experiment(path) == cfg

    def test_partial_document_fills_defaults(self):
        cfg = parse_experiment({"runs": 7})
        assert cfg.runs == 7
        assert cfg.scenario.steps == 50

    def test_empty_document_is_default(self):
        assert parse_experiment({}) == default_experiment()

    def test_readme_schema_is_the_default(self):
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert json.loads(block) == serialize_experiment(default_experiment())


class TestValidation:
    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": {"stepz": 10}})
        assert "scenario" in str(err.value)
        assert "stepz" in str(err.value)

    def test_unknown_toplevel_key(self):
        with pytest.raises(ConfigError):
            parse_experiment({"scenari": {}})

    def test_runs_must_be_positive(self):
        with pytest.raises(ConfigError):
            parse_experiment({"runs": 0})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError):
            parse_experiment({"runs": True})

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            parse_experiment({"master_seed": -1})

    def test_bad_fusion_mode(self):
        # Every fusion run writes both fused series; there is no mode.
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_experiment({"fusion": {"mode": "both"}})
        assert err.value.path == "fusion.mode"

    def test_ospa_order_is_unknown(self):
        # One point per set: the order cannot change a score.
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_experiment({"metrics": {"ospa_order": 1.0}})
        assert err.value.path == "metrics.ospa_order"

    def test_bad_omega_strategy(self):
        with pytest.raises(ConfigError):
            parse_experiment({"fusion": {"omega_strategy": "fixed(2.0)"}})

    def test_min_trace_strategy_accepted(self):
        cfg = parse_experiment({"fusion": {"omega_strategy": "min-trace"}})
        assert cfg.fusion.omega_strategy == "min-trace"

    def test_bad_pd_interval(self):
        with pytest.raises(ConfigError):
            parse_experiment({"filter": {"pd_interval": [0.9, 0.5]}})

    def test_bad_phi_rows(self):
        with pytest.raises(ConfigError):
            parse_experiment({"filter": {"phi": [[0.5, 0.2], [0.01, 1.0]]}})

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"pd_interval": (0.5,)}, "^pd_interval: "),
            ({"phi": ((1.0, 0.01), (0.01, 1.0 - 1e-6))}, "^phi: row for the present state must have max 1"),
            ({"phi": ((1.0, float("nan")), (0.01, 1.0))}, "^phi: transition possibilities must lie in"),
        ],
    )
    def test_python_filter_settings_error_names_field(self, settings, message):
        with pytest.raises(ValueError, match=message):
            FilterSettings(**settings)

    def test_phi_row_max_within_norm_tol_is_accepted(self):
        # The config accepts what the filter's transition model accepts.
        near = 1.0 - NORM_TOL / 2
        cfg = parse_experiment({"filter": {"phi": [[near, 0.01], [0.01, 1.0]]}})
        assert _Filter(cfg, cfg.scenario.sensors[0]).phi.stay_absent == near

    def test_birth_pos_var_null_follows_each_sensor(self):
        # null gives each filter its own sensor's noise_var + 1; a number
        # is used as given.
        sensors = [{"noise_var": 0.5}, {"noise_var": 4.0}]
        cfg = parse_experiment({"scenario": {"sensors": sensors}, "filter": {"birth": {"pos_var": None}}})
        births = [_Filter(cfg, s).birth for s in cfg.scenario.sensors]
        assert [b.pos_var for b in births] == [1.5, 5.0]
        assert [b.covariance[0, 0] for b in births] == [1.5, 5.0]
        cfg = parse_experiment({"scenario": {"sensors": sensors}, "filter": {"birth": {"pos_var": 7.0}}})
        assert [_Filter(cfg, s).birth.pos_var for s in cfg.scenario.sensors] == [7.0, 7.0]

    def test_scenario_sensor_fields(self):
        cfg = parse_experiment(
            {"scenario": {"sensors": [{"pd_true": 0.9, "noise_var": 1.0, "clutter_rate": 2.0}]}}
        )
        assert len(cfg.scenario.sensors) == 1
        assert cfg.scenario.sensors[0].pd_true == 0.9

    def test_wrong_type_reports_path(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": {"dt": "fast"}})
        assert "scenario.dt" in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [("clutter_rate", float("nan")), ("noise_var", float("inf")), ("noise_var", float("-inf"))],
    )
    def test_non_finite_number_reports_path(self, field, value):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": {"sensors": [{field: value}, {}]}})
        assert err.value.path == f"scenario.sensors[0].{field}"
        assert "finite" in str(err.value)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"filter": {"reduction": {"prune_ratio": 1.5}}}, "filter.reduction.prune_ratio"),
            ({"scenario": {"steps": 0}}, "scenario.steps"),
            ({"scenario": {"sensors": [{}, {"pd_true": 2.0}]}}, "scenario.sensors[1].pd_true"),
            ({"fusion": {"omega_strategy": "fixed(2.0)"}}, "fusion.omega_strategy"),
            # Each value is fine alone; only the pair conflicts.
            ({"scenario": {"birth_step": 20, "death_step": 10}}, "scenario"),
            # A sharp pd of 0 or 1 leaves detection or non-detection
            # impossible, which the filter's detection model rejects.
            ({"filter": {"pd_interval": [0.0, 0.0]}}, "filter.pd_interval"),
            ({"filter": {"pd_interval": [1.0, 1.0]}}, "filter.pd_interval"),
            # The parser's own shape and type rejections.
            ({"scenario": {"initial_state": 5}}, "scenario.initial_state"),
            ({"scenario": {"initial_state": [1, 2, 3]}}, "scenario.initial_state"),
            ({"filter": {"phi": [[1.0, 0.01]]}}, "filter.phi"),
            ({"scenario": {"sensors": {}}}, "scenario.sensors"),
            ({"fusion": {"omega_strategy": 5}}, "fusion.omega_strategy"),
        ],
    )
    def test_range_error_names_leaf_field(self, doc, path):
        with pytest.raises(ConfigError) as err:
            parse_experiment(doc)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "extra, path, message",
        [
            ({"dt": 0}, "scenario.dt", "dt must be positive, got 0.0"),
            # birth_step 7 is fine alone; with steps 4 the section conflicts.
            ({"birth_step": 7}, "scenario", "got 7, 4, 4"),
            ({"psd": -1.0}, "scenario.psd", "psd must be nonnegative, got -1.0"),
        ],
        ids=["dt", "birth_step", "psd"],
    )
    def test_error_is_blamed_on_the_document_not_the_defaults(self, extra, path, message):
        # steps 4 and death_step 4 are valid together, but steps 4 alone
        # conflicts with the default death_step 50.
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": {"steps": 4, "death_step": 4, **extra}})
        assert err.value.path == path
        assert message in err.value.message
        assert "50" not in err.value.message

    @pytest.mark.parametrize(
        "scenario, path",
        [
            ({"steps": 2**63, "death_step": 8}, "scenario.steps"),
            ({"sensors": [{"clutter_rate": 1e300}, {}]}, "scenario.sensors[0].clutter_rate"),
            ({"sensors": [{}, {"clutter_rate": 1e19}]}, "scenario.sensors[1].clutter_rate"),
        ],
        ids=["steps-2**63", "clutter-1e300", "clutter-1e19"],
    )
    def test_value_no_run_can_use_names_its_field(self, scenario, path):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": scenario})
        assert err.value.path == path

    def test_largest_drawable_clutter_rate_is_accepted(self):
        # Below numpy's Poisson bound; such a run still fails for memory,
        # but the config does not reject it.
        cfg = parse_experiment({"scenario": {"sensors": [{"clutter_rate": 9.2e18}, {}]}})
        assert cfg.scenario.sensors[0].clutter_rate == 9.2e18

    def test_importing_the_package_loads_no_random_generator(self, tmp_path):
        # The clutter bound is a constant, so neither importing the CLI nor
        # parsing sensors imports numpy.random into a CLI parent.
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": {"sensors": [{"clutter_rate": 9.2e18}, {}]}}))
        code = (
            "import sys, possfuse.cli; print('numpy.random' in sys.modules); "
            "possfuse.config.load_experiment(sys.argv[1]); print('numpy.random' in sys.modules)"
        )
        proc = run_cli(["-c", code, str(path)])
        assert (proc.returncode, proc.stdout.split()) == (0, ["False", "False"]), proc.stderr

    def test_unconsumed_scenario_probabilities_are_unknown(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"scenario": {"p_birth": 0.05}})
        assert err.value.path == "scenario.p_birth"

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ExperimentConfig(runs=1.5), "runs"),
            (lambda: ExperimentConfig(runs=True), "runs"),
            (lambda: ExperimentConfig(master_seed=2.0), "master_seed"),
            (lambda: ReductionConfig(max_components=2.5), "max_components"),
            (lambda: ScenarioConfig(steps=10.5, death_step=10), "steps"),
            (lambda: ScenarioConfig(birth_step=True), "birth_step"),
            (lambda: ScenarioConfig(death_step=50.0), "death_step"),
        ],
    )
    def test_python_construction_rejects_non_integers(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build()

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: MetricSettings(ospa_cutoff=float("nan")), "ospa_cutoff"),
            (lambda: MetricSettings(ospa_cutoff=float("inf")), "ospa_cutoff"),
            (lambda: BirthSettings(pos_var=float("nan")), "pos_var"),
            (lambda: BirthSettings(vel_var=float("inf")), "vel_var"),
            (lambda: ReductionConfig(merge_mahalanobis=float("nan")), "merge_mahalanobis"),
            (lambda: ReductionConfig(merge_mahalanobis=float("inf")), "merge_mahalanobis"),
            (lambda: BirthConfig(Rect(0.0, 1.0, 0.0, 1.0), pos_var=float("nan")), "pos_var"),
            (lambda: BirthConfig(Rect(0.0, 1.0, 0.0, 1.0), vel_var=float("inf")), "vel_var"),
        ],
    )
    def test_python_construction_rejects_non_finite_floats(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()

    def test_numpy_integers_are_integers(self):
        cfg = ExperimentConfig(runs=np.int64(3), master_seed=np.int32(4))
        assert cfg.runs == 3 and cfg.master_seed == 4

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"runs": 1.5}, "runs"),
            ({"scenario": {"steps": 10.0}}, "scenario.steps"),
            ({"filter": {"reduction": {"max_components": True}}}, "filter.reduction.max_components"),
        ],
    )
    def test_json_non_integers_keep_parser_error(self, doc, path):
        with pytest.raises(ConfigError, match="expected an integer") as err:
            parse_experiment(doc)
        assert err.value.path == path

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError):
            parse_experiment([1, 2, 3])


class TestLoadErrors:
    @pytest.mark.parametrize("field, literal", [("clutter_rate", "NaN"), ("noise_var", "Infinity")])
    def test_json_non_finite_literal(self, tmp_path, field, literal):
        # Python's json module accepts these non-standard literals.
        path = tmp_path / "exp.json"
        path.write_text('{"scenario": {"sensors": [{"%s": %s}, {}]}}' % (field, literal))
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert err.value.path == f"scenario.sensors[0].{field}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"runs": 3, "scenario": {"steps": 3, "death_step": 3}, "runs": 2}', "runs"),
            ('{"scenario": {"steps": 3, "birth_step": 1, "death_step": 3, "steps": 8}}', "scenario.steps"),
            ('{"scenario": {"sensors": [{}, {"noise_var": 1, "noise_var": 1}]}}', "scenario.sensors[1].noise_var"),
            ('{"filter": {"phi": {"a": 1, "b": 2, "a": 3}}}', "filter.phi.a"),
        ],
        ids=["top-level", "section", "sensor", "where-a-list-belongs"],
    )
    def test_repeated_key_is_named_with_its_path(self, text, path, tmp_path):
        # json.load alone keeps the last value, and a repeated scenario.steps
        # would be blamed on a birth/death/steps triple the file never wrote.
        file = tmp_path / "exp.json"
        file.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_experiment(file)
        assert (err.value.path, err.value.message) == (path, "repeated key")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_error_carries_path_attribute(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment({"runs": -3})
        assert err.value.path == "runs"


def _scalar_fields(cls=ExperimentConfig, section=()):
    """(section path, field) of every scalar float or int field of every
    config section; a tuple of sections, the sensors, is entered at 0."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        if is_dataclass(tp):
            yield from _scalar_fields(tp, (*section, f.name))
        elif get_origin(tp) is tuple and is_dataclass(get_args(tp)[0]):
            yield from _scalar_fields(get_args(tp)[0], (*section, f.name, 0))
        elif tp in (float, int, Optional[float]):
            yield section, f.name


ABOVE_POISSON_BOUND = float(np.nextafter(POISSON_RATE_MAX, np.inf))
# 10**400 is a JSON integer literal that no float holds.
PARITY_VALUES = (*FLOAT_EXTREMES, math.nan, math.inf, -math.inf, 9.3e18, ABOVE_POISSON_BOUND, 10**400)


class TestEntryPointParity:
    """A config document and a section built in Python obey one rule
    set: the parser holds no range rule of its own."""

    @pytest.mark.parametrize(
        "section, name", list(_scalar_fields()), ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v
    )
    def test_parser_rejects_exactly_what_the_section_rejects(self, section, name):
        base = default_experiment()
        for key in section:
            base = base[key] if isinstance(key, int) else getattr(base, key)
        differ = []
        for value in PARITY_VALUES:
            try:
                dataclasses.replace(base, **{name: value})
            except ValueError:
                built = False
            else:
                built = True
            doc = {name: value}
            for key in reversed(section):
                doc = [doc] if isinstance(key, int) else {key: doc}
            try:
                parse_experiment(doc)
            except ConfigError:
                parsed = False
            else:
                parsed = True
            if parsed != built:
                differ.append((value, f"parsed {parsed}, built {built}"))
        assert not differ

    def test_poisson_bound_draws_and_the_next_float_does_not(self):
        assert POISSON_RATE_MAX == 9.223372006484771e18
        assert SensorConfig(clutter_rate=POISSON_RATE_MAX).clutter_rate == POISSON_RATE_MAX
        np.random.default_rng(0).poisson(POISSON_RATE_MAX)
        with pytest.raises(ValueError, match="^clutter_rate must be at most 9.223372006484771e"):
            SensorConfig(clutter_rate=ABOVE_POISSON_BOUND)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(ABOVE_POISSON_BOUND)
