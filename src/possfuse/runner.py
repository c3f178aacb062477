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
on its own posterior.  So a run first recurses through every step, then
fuses step by step, the product tables of many steps' pairs built
together in one kernel call and each passed to its step's fusion calls.
A failure still names the earliest step that fails.

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
    MeasurementModel,
    MotionModel,
    TransitionPossibilityMatrix,
    extract,
    predict,
    probability_interval_to_possibility,
    reduce,
    update,
)
from .config import ConfigError, ExperimentConfig
from .fusion import (
    _prefilled,
    fuse_chernoff,
    fuse_independent,
    parse_omega_strategy,
    select_omega,
)
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
    "run_once",
    "run_single",
    "run_fusion_independent",
    "run_fusion_dependent",
    "ExperimentResult",
]

# A sensor simulated without clutter still needs a positive clutter rate
# in the filter model, where it only rescales detection weights.
MIN_MODEL_CLUTTER = 1e-6

# What a run turns into a NumericsError.
_FAILURES = (ValueError, ArithmeticError, np.linalg.LinAlgError, MemoryError)

SERIES_CHERNOFF = "chernoff"
SERIES_CENTRALIZED = "centralized"


class NumericsError(RuntimeError):
    """A run failed numerically; carries the offending run and step."""

    def __init__(self, run: int, step: int, cause: BaseException):
        self.run = run
        self.step = step
        reason = str(cause) or type(cause).__name__
        super().__init__(f"numerical failure in run {run} at step {step}: {reason}")

    def __reduce__(self):
        # A pool worker hands its failure to the parent by pickle, which
        # rebuilds the error from these arguments.
        return type(self), (self.run, self.step, str(self).split(": ", 1)[1])


def _append_state(track: SeriesTrack, state: BernoulliPossState) -> None:
    # extract is looked up in this module at call time, so a wrapper set
    # on runner.extract (as possbench's tracer does) sees every call.
    track.estimates.append(extract(state))
    track.q_absent.append(state.q_absent)
    track.q_present.append(state.q_present)
    track.n_components.append(state.spatial.n_components)


class _Filter:
    """One recursing filter for one sensor, its models built from the config.

    Birth uses filter.birth.pos_var, or the sensor's noise variance plus
    one when that is None.  The state starts at total ignorance, and
    prev_scan is the scan that feeds the next step's birth.
    """

    def __init__(self, cfg: ExperimentConfig, sensor: SensorConfig):
        scenario, settings = cfg.scenario, cfg.filter
        self.motion = MotionModel(
            cv_transition(scenario.dt), cv_process_noise(scenario.dt, scenario.psd)
        )
        self.phi = TransitionPossibilityMatrix.from_matrix(settings.phi)
        self.det = probability_interval_to_possibility(*settings.pd_interval)
        self.meas = MeasurementModel(
            observation=position_observation(),
            noise=sensor.noise_var * np.eye(2),
            clutter_rate=max(sensor.clutter_rate, MIN_MODEL_CLUTTER),
            region=scenario.region,
        )
        self.reduction = settings.reduction
        pos_var = settings.birth.pos_var
        self.birth = BirthConfig(
            region=scenario.region,
            pos_var=sensor.noise_var + 1.0 if pos_var is None else pos_var,
            vel_var=settings.birth.vel_var,
        )
        self.state = BernoulliPossState(q_absent=1.0, q_present=1.0, spatial=self.birth.ignorance)
        self.prev_scan: Optional[Scan] = None

    def advance(self, scan: Scan, audit: Optional[list], series: str, step: int) -> None:
        birth = build_birth_mixture(self.prev_scan, self.birth)
        pred = predict(self.state, self.motion, self.phi, birth)
        if audit is not None:
            audit.append((step, "predicted", series, pred))
        post = update(pred, scan, self.meas, self.det)
        reduced = reduce(post.spatial, self.reduction)
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
    not depend on which sensors the mode feeds.  An overflow or invalid
    operation raises FloatingPointError rather than warning, so it fails
    the run the same way under any warning filter.
    """
    scenario = cfg.scenario
    sequence = np.random.SeedSequence(entropy=(int(cfg.master_seed), int(run_idx)))
    seeds = [int(w) for w in sequence.generate_state(1 + len(scenario.sensors), dtype=np.uint64)]
    sensors = scenario.sensors[:1] if mode == "dependent" else scenario.sensors
    with np.errstate(over="raise", invalid="raise"):
        truth = generate_truth(scenario, seeds[0])
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
    the order the run computes them: every step's predicted and updated
    states, then every step's fused states.  phase is "predicted",
    "updated" or "fused", and series names the filter or fusion rule.
    When a scans list is supplied, the labelled scans of every sensor the
    run feeds are appended to it, in sensor order, as (scan, labels) lists.

    A numerical failure raises NumericsError naming the run and the step,
    where step 0 is the run's setup: simulating its scenario and building
    its filters.  Parsing the config rejects a dt, psd or region that the
    truth or the filters cannot be built from, so step 0 is left for
    failures met while simulating, such as a truth that overflows.  A run
    that runs out of memory, as a valid but enormous clutter rate makes
    it, fails the same way.  Fusion runs after the recursion, so when a
    filter fails, the steps before it are fused first, and a fusion
    failure among them is the one raised.  Each step's three fusion calls
    read the table _prefilled built for its pair through their table keyword.
    """
    if mode not in ("single", "independent", "dependent"):
        raise ValueError(f"unknown run mode {mode!r}")
    scenario = cfg.scenario
    _check_sensor_count(scenario, mode)
    fused_names = () if mode == "single" else (SERIES_CHERNOFF, SERIES_CENTRALIZED)
    fixed_omega = parse_omega_strategy(cfg.fusion.omega_strategy)

    # The recursion first, keeping each step's pair of states.
    step, failure = 0, None
    pairs = []
    try:
        truth, labeled = _simulate_run(cfg, run_idx, mode)
        if scans is not None:
            scans.extend(labeled)
        positions = _truth_positions(truth)
        streams = [[scan for scan, _ in sensor_scans] for sensor_scans in labeled]
        engines = [_Filter(cfg, s) for s in scenario.sensors[: len(streams)]]
        names = ["single"] if mode == "dependent" else [f"sensor{i + 1}" for i in range(len(streams))]
        tracks = {name: SeriesTrack() for name in names}
        for step in range(1, scenario.steps + 1):
            for engine, name, stream in zip(engines, names, streams):
                engine.advance(stream[step - 1], audit, name, step)
                _append_state(tracks[name], engine.state)
            if fused_names:
                # Dependent mode has one filter, fused with itself.
                pairs.append((engines[0].state, engines[-1].state))
    except _FAILURES as exc:
        failure = (step, exc)

    fused_tracks = {name: SeriesTrack() for name in fused_names}
    if fused_tracks:
        reduction, step = cfg.filter.reduction, 0
        # Neither enumerate's cached tuple nor the loop holds a table while
        # _prefilled builds the next group.
        try:
            for a, b, table in _prefilled(pairs, fixed_omega, reduction):
                step += 1
                omega = select_omega(a, b, table=table) if fixed_omega is None else fixed_omega
                fused = (
                    fuse_chernoff(a, b, omega, reduction=reduction, table=table),
                    fuse_independent(a, b, reduction=reduction, table=table),
                )
                for name, result in zip(fused_names, fused):
                    _append_state(fused_tracks[name], result.state)
                    if audit is not None:
                        audit.append((step, "fused", name, result.state))
                del table
        except _FAILURES as exc:
            raise NumericsError(run_idx, step, exc) from exc
    if failure is not None:
        raise NumericsError(run_idx, *failure) from failure[1]

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
    cfg: ExperimentConfig, mode: str, dump_scans: bool, workers: int
) -> list[tuple[RunScores, Optional[list]]]:
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
    tables = [
        ("ospa", "mean_ospa,runs",
         lambda s, k: f"{_fmt(agg.mean_ospa[s][k])},{agg.runs}"),
        ("trace", "mean_trace,present_count",
         lambda s, k: f"{_fmt(agg.mean_trace[s][k])},{int(agg.present_count[s][k])}"),
        ("presence", "mean_q_absent,mean_q_present",
         lambda s, k: f"{_fmt(agg.mean_q_absent[s][k])},{_fmt(agg.mean_q_present[s][k])}"),
    ]
    files: dict[str, Path] = {}
    for name, header, row in tables:
        lines = [f"step,series,{header}"]
        for k in range(agg.steps):
            for s in agg.series:
                lines.append(f"{k + 1},{s},{row(s, k)}")
        files[name] = out_dir / f"{name}.csv"
        _write_lines(files[name], lines)
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
    files: dict[str, Path]


def _drive(cfg: ExperimentConfig, mode: str, out_dir, dump_scans: bool) -> ExperimentResult:
    # A bad sensor count (run_once checks it too), worker count or output
    # directory is one ConfigError before the pool starts, and leaves no file.
    _check_sensor_count(cfg.scenario, mode)
    workers = _worker_count(cfg.runs)
    out_path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot create {out_path}: {exc.strerror}") from None
    results = _collect_runs(cfg, mode, dump_scans, workers)
    agg = fold_scores([scores for scores, _ in results])
    files = _write_outputs(out_path, agg)
    if dump_scans:
        files["scans"] = _write_scan_dump(out_path, [scans for _, scans in results])
    return ExperimentResult(aggregate=agg, files=files)


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
