"""Monte Carlo experiment drivers and CSV output.

Three experiment shapes share one per-run engine:

* single: every configured sensor feeds its own filter, no fusion;
* independent: two sensors with independent noise and clutter feed two
  filters whose posteriors are fused each step, both by the independent
  product (the centralised reference) and by Chernoff fusion;
* dependent: one sensor's measurement stream feeds one filter whose
  posterior is fused with itself each step.  That is exactly what two
  identically configured filters on the same stream would compute, a
  deliberately fully-correlated setup that shows why the independent
  product double-counts and Chernoff fusion does not.

Fusion here is reporting, not feedback: each local filter keeps recursing
on its own posterior.

Runs are distributed over a process pool whose size comes from the CPU
count, overridable through the POSSFUSE_THREADS environment variable.
Every run is a pure function of (configuration, run index).  A worker
scores its run and returns the scores (and, for --dump-scans, the run's
labelled scans), and the parent folds the scores in run order, so output
files are byte-identical no matter how many workers computed them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bernoulli import (
    BernoulliPossState,
    DetectionPossibility,
    MeasurementModel,
    MotionModel,
    ReductionConfig,
    TransitionPossibilityMatrix,
    extract,
    predict,
    probability_interval_to_possibility,
    reduce,
    update,
)
from .config import ConfigError, ExperimentConfig
from .fusion import fuse_chernoff, fuse_independent, parse_omega_strategy, select_omega
from .metrics import AggregateResult, RunRecord, RunScores, SeriesTrack, fold_scores, score_run
from .simulate import (
    BirthConfig,
    Scan,
    SensorConfig,
    build_birth_mixture,
    cv_process_noise,
    cv_transition,
    generate_labeled_measurements,
    generate_truth,
    position_observation,
)

__all__ = [
    "NumericsError",
    "FilterSetup",
    "build_filter_setup",
    "initial_state",
    "run_once",
    "run_single",
    "run_fusion_independent",
    "run_fusion_dependent",
    "ExperimentResult",
]

# A sensor simulated without clutter still needs a positive clutter rate
# in the filter model, where it only rescales detection weights.
MIN_MODEL_CLUTTER = 1e-6

SERIES_CHERNOFF = "chernoff"
SERIES_CENTRALIZED = "centralized"


class NumericsError(RuntimeError):
    """A run failed numerically; carries the offending run and step."""

    def __init__(self, run: int, step: int, cause: BaseException):
        self.run = run
        self.step = step
        super().__init__(f"numerical failure in run {run} at step {step}: {cause}")

    def __reduce__(self):
        # A pool worker hands its failure to the parent by pickle, which
        # rebuilds the error from these arguments.
        return type(self), (self.run, self.step, str(self).split(": ", 1)[1])


@dataclass(frozen=True)
class FilterSetup:
    """Everything one filter instance needs, fixed for a whole run."""

    motion: MotionModel
    phi: TransitionPossibilityMatrix
    det: DetectionPossibility
    meas: MeasurementModel
    reduction: ReductionConfig
    birth: BirthConfig


def build_filter_setup(cfg: ExperimentConfig, sensor: SensorConfig) -> FilterSetup:
    scenario = cfg.scenario
    motion = MotionModel(
        cv_transition(scenario.dt), cv_process_noise(scenario.dt, scenario.psd)
    )
    phi = TransitionPossibilityMatrix.from_matrix(cfg.filter.phi)
    det = probability_interval_to_possibility(*cfg.filter.pd_interval)
    clutter = max(sensor.clutter_rate, MIN_MODEL_CLUTTER)
    meas = MeasurementModel(
        observation=position_observation(),
        noise=sensor.noise_var * np.eye(2),
        clutter_rate=clutter,
        region=scenario.region,
    )
    pos_var = cfg.filter.birth.pos_var
    if pos_var is None:
        pos_var = sensor.noise_var + 1.0
    birth = BirthConfig(region=scenario.region, pos_var=pos_var, vel_var=cfg.filter.birth.vel_var)
    return FilterSetup(motion=motion, phi=phi, det=det, meas=meas,
                       reduction=cfg.filter.reduction, birth=birth)


def initial_state(setup: FilterSetup) -> BernoulliPossState:
    """Total ignorance: absence and presence both fully plausible, any
    in-region location possible."""
    return BernoulliPossState(
        q_absent=1.0,
        q_present=1.0,
        spatial=setup.birth.ignorance,
    )


def _append_state(track: SeriesTrack, state: BernoulliPossState) -> None:
    # extract is looked up in this module at call time, so a wrapper set
    # on runner.extract (as possbench's tracer does) sees every call.
    track.estimates.append(extract(state))
    track.q_absent.append(state.q_absent)
    track.q_present.append(state.q_present)
    track.n_components.append(state.spatial.n_components)


class _Filter:
    """One recursing filter: current state plus the scan feeding birth."""

    def __init__(self, setup: FilterSetup):
        self.setup = setup
        self.state = initial_state(setup)
        self.prev_scan: Optional[Scan] = None

    def advance(self, scan: Scan, audit: Optional[list], series: str, step: int) -> None:
        birth = build_birth_mixture(self.prev_scan, self.setup.birth)
        pred = predict(self.state, self.setup.motion, self.setup.phi, birth)
        if audit is not None:
            audit.append((step, "predicted", series, pred))
        post = update(pred, scan, self.setup.meas, self.setup.det)
        reduced = reduce(post.spatial, self.setup.reduction)
        self.state = BernoulliPossState(post.q_absent, post.q_present, reduced)
        if audit is not None:
            audit.append((step, "updated", series, self.state))
        self.prev_scan = scan


def _check_sensor_count(scenario, mode: str) -> None:
    if mode in ("independent", "dependent") and len(scenario.sensors) != 2:
        raise ConfigError(
            "scenario.sensors",
            f"{mode} fusion needs exactly 2 sensors, got {len(scenario.sensors)}",
        )


def _simulate_run(cfg: ExperimentConfig, run_idx: int, mode: str) -> tuple[list, list]:
    """A run's truth and the labelled scans of every sensor the mode
    feeds, in sensor order: dependent mode feeds only the first.

    Seeds are drawn for every configured sensor, so a sensor's scans do
    not depend on which sensors the mode feeds.
    """
    scenario = cfg.scenario
    sequence = np.random.SeedSequence(entropy=(int(cfg.master_seed), int(run_idx)))
    seeds = [int(w) for w in sequence.generate_state(1 + len(scenario.sensors), dtype=np.uint64)]
    truth = generate_truth(scenario, seeds[0])
    sensors = scenario.sensors[:1] if mode == "dependent" else scenario.sensors
    labeled = [
        generate_labeled_measurements(truth, sensor, scenario.region, seeds[1 + i])
        for i, sensor in enumerate(sensors)
    ]
    return truth, labeled


def _truth_positions(truth) -> list[Optional[np.ndarray]]:
    H = position_observation()
    return [None if x is None else H @ x for x in truth]


def run_once(
    cfg: ExperimentConfig,
    run_idx: int,
    mode: str,
    audit: Optional[list] = None,
    scans: Optional[list] = None,
) -> RunRecord:
    """Execute one Monte Carlo run and return its record.

    mode is "single", "independent", or "dependent".  When an audit list
    is supplied, a tuple (step, phase, series, state) is appended for
    every predicted, updated, and fused BernoulliPossState in the run, in
    the order the run computes them; phase is "predicted", "updated" or
    "fused", and series names the filter or fusion rule.  When a scans
    list is supplied, the labelled scans of every sensor the run feeds
    are appended to it, in sensor order, as (scan, labels) lists.

    A numerical failure raises NumericsError naming the run and the step,
    where step 0 is the run's setup: simulating its scenario and building
    its filters.
    """
    if mode not in ("single", "independent", "dependent"):
        raise ValueError(f"unknown run mode {mode!r}")
    scenario = cfg.scenario
    _check_sensor_count(scenario, mode)
    fused_names = () if mode == "single" else (SERIES_CHERNOFF, SERIES_CENTRALIZED)
    fixed_omega = parse_omega_strategy(cfg.fusion.omega_strategy)

    step = 0
    try:
        truth, labeled = _simulate_run(cfg, run_idx, mode)
        if scans is not None:
            scans.extend(labeled)
        positions = _truth_positions(truth)
        streams = [[scan for scan, _ in sensor_scans] for sensor_scans in labeled]
        engines = [_Filter(build_filter_setup(cfg, s)) for s in scenario.sensors[: len(streams)]]
        names = ["single"] if mode == "dependent" else [f"sensor{i + 1}" for i in range(len(streams))]
        tracks = {name: SeriesTrack() for name in names}
        fused_tracks = {name: SeriesTrack() for name in fused_names}
        for step in range(1, scenario.steps + 1):
            for engine, name, stream in zip(engines, names, streams):
                engine.advance(stream[step - 1], audit, name, step)
                _append_state(tracks[name], engine.state)
            if fused_tracks:
                # Dependent mode has one filter, fused with itself.
                a, b = engines[0].state, engines[-1].state
                omega = select_omega(a, b) if fixed_omega is None else fixed_omega
                fused = (
                    fuse_chernoff(a, b, omega, reduction=cfg.filter.reduction),
                    fuse_independent(a, b, reduction=cfg.filter.reduction),
                )
                for name, result in zip(fused_names, fused):
                    _append_state(fused_tracks[name], result.state)
                    if audit is not None:
                        audit.append((step, "fused", name, result.state))
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        raise NumericsError(run_idx, step, exc) from exc

    tracks.update(fused_tracks)
    return RunRecord(truth_positions=positions, series=tracks)


# --- worker pool ------------------------------------------------------------


def _pool_entry(args: tuple) -> tuple[RunScores, Optional[list]]:
    """One run's scores, plus its labelled scans when they are dumped.

    Scores are a few arrays, much smaller to send back than the run's
    record of estimates.
    """
    cfg, run_idx, mode, dump_scans = args
    scans = [] if dump_scans else None
    record = run_once(cfg, run_idx, mode, scans=scans)
    return score_run(record, cfg.metrics.ospa_cutoff), scans


def _worker_count(runs: int) -> int:
    env = os.environ.get("POSSFUSE_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("POSSFUSE_THREADS", f"must be an integer, got {env!r}") from None
        if cap < 1:
            raise ConfigError("POSSFUSE_THREADS", f"must be at least 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(runs, cap))


def _collect_runs(
    cfg: ExperimentConfig, mode: str, dump_scans: bool
) -> list[tuple[RunScores, Optional[list]]]:
    workers = _worker_count(cfg.runs)
    jobs = [(cfg, i, mode, dump_scans) for i in range(cfg.runs)]
    if workers == 1:
        return [_pool_entry(job) for job in jobs]
    chunk = max(1, cfg.runs // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves submission order, which keeps the fold and every
        # downstream file independent of scheduling.
        return list(pool.map(_pool_entry, jobs, chunksize=chunk))


# --- output files -----------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_outputs(out_dir: Path, agg: AggregateResult) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    lines = ["step,series,mean_ospa,runs"]
    for k in range(agg.steps):
        for s in agg.series:
            lines.append(f"{k + 1},{s},{_fmt(agg.mean_ospa[s][k])},{agg.runs}")
    files["ospa"] = out_dir / "ospa.csv"
    _write_lines(files["ospa"], lines)

    lines = ["step,series,mean_trace,present_count"]
    for k in range(agg.steps):
        for s in agg.series:
            lines.append(
                f"{k + 1},{s},{_fmt(agg.mean_trace[s][k])},{int(agg.present_count[s][k])}"
            )
    files["trace"] = out_dir / "trace.csv"
    _write_lines(files["trace"], lines)

    lines = ["step,series,mean_q_absent,mean_q_present"]
    for k in range(agg.steps):
        for s in agg.series:
            lines.append(
                f"{k + 1},{s},{_fmt(agg.mean_q_absent[s][k])},{_fmt(agg.mean_q_present[s][k])}"
            )
    files["presence"] = out_dir / "presence.csv"
    _write_lines(files["presence"], lines)
    return files


def _write_scan_dump(out_dir: Path, runs: list[list]) -> Path:
    """Dump the labelled scans each run fed its filters, in run order."""
    lines = ["run,step,sensor,x_km,y_km,is_clutter"]
    for run_idx, labeled_by_sensor in enumerate(runs):
        for i, labeled in enumerate(labeled_by_sensor):
            for scan, labels in labeled:
                for p, is_clutter in zip(scan.points, labels):
                    lines.append(
                        f"{run_idx},{scan.time_index},{i + 1},{_fmt(p[0])},{_fmt(p[1])},{int(is_clutter)}"
                    )
    path = out_dir / "scans.csv"
    _write_lines(path, lines)
    return path


@dataclass
class ExperimentResult:
    aggregate: AggregateResult
    output_dir: Path
    files: dict[str, Path]


def _drive(cfg: ExperimentConfig, mode: str, out_dir, dump_scans: bool) -> ExperimentResult:
    # Checked here as well as in run_once, so a bad count is one
    # ConfigError before the pool starts rather than one per worker.
    _check_sensor_count(cfg.scenario, mode)
    results = _collect_runs(cfg, mode, dump_scans)
    agg = fold_scores([scores for scores, _ in results])
    out_path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    files = _write_outputs(out_path, agg)
    if dump_scans:
        files["scans"] = _write_scan_dump(out_path, [scans for _, scans in results])
    return ExperimentResult(aggregate=agg, output_dir=out_path, files=files)


def run_single(cfg: ExperimentConfig, out_dir=None, dump_scans: bool = False) -> ExperimentResult:
    """Each sensor filtered on its own; no fusion series."""
    return _drive(cfg, "single", out_dir, dump_scans)


def run_fusion_independent(
    cfg: ExperimentConfig, out_dir=None, dump_scans: bool = False
) -> ExperimentResult:
    """Two sensors with independent errors, fused every step."""
    return _drive(cfg, "independent", out_dir, dump_scans)


def run_fusion_dependent(
    cfg: ExperimentConfig, out_dir=None, dump_scans: bool = False
) -> ExperimentResult:
    """One sensor's stream into one filter, whose posterior is fused with
    itself every step: exactly what two identical filters on that stream
    would compute."""
    return _drive(cfg, "dependent", out_dir, dump_scans)
