"""Monte Carlo experiment drivers and CSV output.

Three experiment shapes share one engine:

* single: every configured sensor feeds its own filter, no fusion;
* independent: two sensors with independent noise and clutter feed two
  filters whose posteriors are fused each step, both by the independent
  product (the centralised reference) and by Chernoff fusion;
* dependent: one sensor's measurement stream feeds one filter whose
  posterior is fused with itself each step.  That is exactly what two
  identically configured filters on the same stream would compute, a
  deliberately fully-correlated setup that shows why the independent
  product double-counts and Chernoff fusion does not.

Runs advance in blocks of at most RUNS_PER_BLOCK, in lockstep
(_recurse).  Each step of a block runs three stages, each one array
program over a list of lanes, one per filter of every run: propagate
(predict's F P F' + Q), update (innovation covariances, gains and
updated covariances per component, each lane with its own measurement
noise, then innovations, log suprema and Kalman-updated means, one row
per filter, point and component) and the reduce tables (every updated
mixture's prune, weight order and Mahalanobis distance table).  Each
predict, update and reduce call then reads its lane's entry through its
staged keyword, (source, entry), source naming every object the entry
was computed from, bit for bit what it would compute alone.  A run that
fails drops out of its block, naming its own step.

Fusion here is reporting, not feedback: each local filter keeps recursing
on its own posterior.  So a run first recurses through every step, then
fuses step by step, the product tables of many steps' pairs built
together in one kernel call and each handed to its step's fusion calls
as staged too, named for the pair's two mixtures.  A failure still names
the earliest step that fails.

Blocks are distributed over a process pool sized to the CPUs this
process may run on, overridable through the POSSFUSE_THREADS environment
variable.
Every run is a pure function of (configuration, run index), whatever
block it is in.  A worker scores each run of its block and returns the
scores (and, for --dump-scans, the runs' labelled scans), and the parent
folds the scores in run order, so output files are byte-identical no
matter how many workers computed them or how the runs were blocked, and
are written all or none (_write_all).  A worker that dies (a SIGKILL, as
the kernel's out-of-memory killer sends) fails the command with
WorkerDiedError, naming the runs whose blocks had not returned.  At any
point of the pool's life, start-up included, SIGTERM raises
SystemExit(143) in the parent, whose pool then shuts down: each worker
finishes the block it holds and exits (_collect_runs), and the previous
SIGTERM handler is restored.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bernoulli import (
    BernoulliPossState,
    MeasurementModel,
    MotionModel,
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
from .config import ConfigError, ExperimentConfig
from .fusion import (
    _FAILURES,
    _prefilled,
    fuse_chernoff,
    fuse_independent,
    parse_omega_strategy,
    select_omega,
)
from .metrics import AggregateResult, RunRecord, RunScores, SeriesTrack, fold_scores, score_run
from .simulate import (
    BirthConfig,
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
    "WorkerDiedError",
    "run_once",
    "run_single",
    "run_fusion_independent",
    "run_fusion_dependent",
    "ExperimentResult",
]

# A sensor simulated without clutter still needs a positive clutter rate
# in the filter model, where it only rescales detection weights.
MIN_MODEL_CLUTTER = 1e-6

# Most rows one filter brings to a block's update or reduce stage: its
# (point, component) pairs, or its updated mixture's components.  A larger
# filter's update or reduce runs the stage function on its own state,
# whose rows already amortise the per-call cost; joining would only copy
# them into the block's stack.  At the default clutter 99.9% of filters
# are within it, at clutter 20 about 5%.
LANE_STAGE_ROWS = 256

# Most runs a pool task advances together.  More lanes per covariance
# stage cost less per state, but each run adds its states to the task's
# peak memory, and fewer, larger blocks balance worse over the workers.
RUNS_PER_BLOCK = 8


class WorkerDiedError(RuntimeError):
    """A pool worker died, killed by a signal or by the kernel's
    out-of-memory killer, before the runs it names had returned."""

    def __init__(self, runs: list[int]):
        self.runs = runs
        super().__init__(f"a pool worker died before runs {_spans(runs)} returned")


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


def _series(mode: str, sensors: int) -> tuple[list[str], tuple[str, ...]]:
    """A mode's filter series, one per sensor fed, and its fused series; an
    unknown mode is a ValueError, a fusion mode without 2 sensors a ConfigError."""
    filters = [f"sensor{i + 1}" for i in range(sensors)]
    if mode == "single":
        return filters, ()
    if mode not in ("independent", "dependent"):
        raise ValueError(f"unknown run mode {mode!r}")
    if sensors != 2:
        raise ConfigError("scenario.sensors", f"{mode} fusion needs exactly 2 sensors, got {sensors}")
    return (["single"] if mode == "dependent" else filters), ("chernoff", "centralized")


class _Filter:
    """One sensor's filter models, built from the config and shared by
    every run of a block.

    Birth uses filter.birth.pos_var, or the sensor's noise variance plus
    one when that is None.  Every filter starts at total ignorance.
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
        self.start = BernoulliPossState(q_absent=1.0, q_present=1.0, spatial=self.birth.ignorance)


class _Recursion:
    """One run's filter recursion: what its fusion and record read.

    tracks holds a SeriesTrack per series.  positions is None when the run
    failed at step 0, simulating.  failure is (step, exception) for a run
    that failed; pairs then holds the states of the steps before it.
    """

    def __init__(self, series: tuple[str, ...], audit: Optional[list]):
        self.audit = audit
        self.tracks = {name: SeriesTrack() for name in series}
        self.labeled: list = []
        self.positions: Optional[list] = None
        self.pairs: list = []
        self.failure: Optional[tuple[int, BaseException]] = None
        # Advancing: each filter's state.
        self.states: list = []

    def record(self, step: int, phase: str, name: str, state: BernoulliPossState) -> None:
        """Report a state to the audit, if any, and, unless predicted, to its track."""
        if self.audit is not None:
            self.audit.append((step, phase, name, state))
        if phase != "predicted":
            track = self.tracks[name]
            # Looked up at call time, so a wrapper on runner.extract sees every call.
            track.estimates.append(extract(state))
            track.q_absent.append(state.q_absent)
            track.q_present.append(state.q_present)
            track.n_components.append(state.spatial.n_components)


def _staged(stage, inputs: list[list], *args) -> list[list]:
    """Per run, each filter's handed-in stage entry, or None.

    inputs[r][i] is None or (source, lane) for filter i of run r.
    stage(lanes, *args) runs once over every lane given and returns one
    entry per lane, handed back as (source, entry), the staged keyword of
    that filter's operation.  A stage that fails as a run can fail, or
    warns under a warnings-as-errors filter, gives no lane its entry: each
    operation then computes its own, so a failing lane fails in its own
    run with its own message.
    """
    given = [item for row in inputs for item in row if item is not None]
    try:
        entries = iter(stage([lane for _, lane in given], *args) if given else ())
    except (*_FAILURES, Warning):
        return [[None] * len(row) for row in inputs]
    return [[None if item is None else (item[0], next(entries)) for item in row] for row in inputs]


def _recurse(
    cfg: ExperimentConfig, run_indices, mode: str, audits: Optional[list] = None
) -> list[_Recursion]:
    """Advance the filters of every run in run_indices step by step, in
    lockstep (see the module docstring); one _Recursion per run, in order.

    The block's filters are built once, before any run is simulated, so a
    run's step 0 is its simulation alone.  Each step makes three stage
    calls, each over a list of lanes, one per filter state (_staged): one
    _propagated call over every live filter (they share one motion
    model), one _detected call over every predicted filter, each lane
    with its own measurement noise, and, once every filter has updated,
    one _survivors call over every updated mixture.  A filter over
    LANE_STAGE_ROWS joins neither of the last two.  Each operation gets
    the objects its lane's source names (predict the block's motion model).
    possbench and the tests still see one predict, update, reduce and
    extract call per state.  A run's filters all predict before any
    updates, and update before any reduces, but a run that fails reports
    the first failure in the order predict, update, reduce of filter 1,
    then of filter 2, with the audit entries that order makes; it records
    its step and drops out, and the others go on.  audits, when given,
    holds each run's audit list (see run_once).
    """
    scenario = cfg.scenario
    names, fused_names = _series(mode, len(scenario.sensors))
    filters = [_Filter(cfg, s) for s in scenario.sensors[: len(names)]]
    # Every filter shares the scenario's motion model, observation matrix (an
    # equal one in each model) and reduction; each brings its own noise to update.
    motion = filters[0].motion
    H = filters[0].meas.observation
    reduction = filters[0].reduction
    runs = [_Recursion((*names, *fused_names), audits and audits[i]) for i in range(len(run_indices))]
    live = []
    for run, run_idx in zip(runs, run_indices):
        try:
            truth, run.labeled = _simulate_run(cfg, run_idx, len(names))
        except _FAILURES as exc:
            run.failure = (0, exc)
            continue
        run.positions = [None if x is None else H @ x for x in truth]
        run.states = [f.start for f in filters]
        live.append(run)

    for step in range(1, scenario.steps + 1):
        if not live:
            break
        moved = _staged(_propagated, [[((s.spatial, motion), s.spatial.covariances) for s in run.states]
                                      for run in live], motion)
        # A run predicts its filters up to the first that fails, whose failure
        # stands unless an earlier filter fails to update or reduce below.
        predicted = []
        for run, stages in zip(live, moved):
            predicted.append([])
            for f, state, labeled, stage in zip(filters, run.states, run.labeled, stages):
                try:
                    # The previous scan feeds birth.
                    birth = build_birth_mixture(labeled[step - 2][0] if step > 1 else None, f.birth)
                    predicted[-1].append(predict(state, motion, f.phi, birth, staged=stage))
                except _FAILURES as exc:
                    run.failure = (step, exc)
                    break
        scans = [[labeled[step - 1][0] for labeled in run.labeled] for run in live]
        detected = _staged(_detected, [
            [((p.spatial, z, f.meas), (p.spatial.covariances, f.meas.noise, p.spatial.means, z.points))
             if p.spatial.n_components * len(z.points) <= LANE_STAGE_ROWS else None
             for f, p, z in zip(filters, preds, row)]
            for preds, row in zip(predicted, scans)
        ], H)
        # Each run updates its filters in order up to the first that fails,
        # which ends the row with its exception.
        posts = []
        for preds, row, stages in zip(predicted, scans, detected):
            posts.append([])
            for f, pred, scan, stage in zip(filters, preds, row, stages):
                try:
                    posts[-1].append(update(pred, scan, f.meas, f.det, staged=stage))
                except _FAILURES as exc:
                    posts[-1].append(exc)
                    break
        tables = _staged(_survivors, [
            [None if isinstance(post, BaseException) or post.spatial.n_components > LANE_STAGE_ROWS
             else ((post.spatial, reduction), post.spatial) for post in row]
            for row in posts
        ], reduction)
        # Each run records, reduces and fails in the per-state order:
        # predict, update, then reduce, of filter 1, then of filter 2.
        survivors = []
        for run, preds, row, entries in zip(live, predicted, posts, tables):
            try:
                for i, (name, pred, post, entry) in enumerate(zip(names, preds, row, entries)):
                    run.record(step, "predicted", name, pred)
                    if isinstance(post, BaseException):
                        raise post
                    spatial = reduce(post.spatial, reduction, staged=entry)
                    state = BernoulliPossState._derived(post.q_absent, post.q_present, spatial)
                    run.record(step, "updated", name, state)
                    run.states[i] = state
            except _FAILURES as exc:
                run.failure = (step, exc)
            if run.failure is not None:
                continue
            if fused_names:
                # Dependent mode has one filter, fused with itself.
                run.pairs.append((run.states[0], run.states[-1]))
            survivors.append(run)
        live = survivors
    return runs


def _simulate_run(cfg: ExperimentConfig, run_idx: int, sensors: int) -> tuple[list, list]:
    """A run's truth and the labelled scans of the configured sensors
    numbered 1 to sensors, in sensor order.

    Seeds are drawn for every configured sensor, so a sensor's scans do
    not depend on how many are fed.  An overflow or invalid operation
    raises FloatingPointError rather than warning, so it fails the run
    the same way under any warning filter.
    """
    scenario = cfg.scenario
    sequence = np.random.SeedSequence(entropy=(int(cfg.master_seed), int(run_idx)))
    seeds = [int(w) for w in sequence.generate_state(1 + len(scenario.sensors), dtype=np.uint64)]
    with np.errstate(over="raise", invalid="raise"):
        truth = generate_truth(scenario, seeds[0])
        labeled = [
            generate_labeled_measurements(truth, sensor, scenario.region, seeds[1 + i])
            for i, sensor in enumerate(scenario.sensors[:sensors])
        ]
    return truth, labeled


def run_once(
    cfg: ExperimentConfig,
    run_idx: int,
    mode: str,
    audit: Optional[list] = None,
    *,
    recursion: Optional[_Recursion] = None,
) -> RunRecord:
    """Execute one Monte Carlo run and return its record.

    mode is "single", "independent", or "dependent".  The run's audit
    list, when it has one, receives a tuple (step, phase, series, state)
    for every predicted, updated and fused BernoulliPossState, in the
    order the run computes them: every step's predicted and updated
    states, then every step's fused states.  phase is "predicted",
    "updated" or "fused", and series names the filter or fusion rule.

    recursion is this run's filter recursion when a block of runs was
    advanced together (_recurse), with its audit list given there in
    audits, so passing audit too raises ValueError.  Without it the run
    recurses as a block of one, to the same bits, with audit as its list.

    A numerical failure raises NumericsError naming the run and the step,
    where step 0 is simulating the run's scenario.  Parsing the config
    rejects a dt, psd or region that the truth or the filters cannot be
    built from, so step 0 is left for failures met while simulating, such
    as a truth that overflows.  A run that runs out of memory, as a valid
    but enormous clutter rate makes it, fails the same way.  Fusion runs
    after the recursion (see the module docstring), so when a filter
    fails, the steps before it are fused first, and a fusion failure
    among them is the one raised.
    """
    if audit is not None and recursion is not None:
        raise ValueError("a recursion brings its own audit; give it to _recurse")
    _, fused_names = _series(mode, len(cfg.scenario.sensors))
    if recursion is None:
        (recursion,) = _recurse(cfg, [run_idx], mode, None if audit is None else [audit])
    if fused_names:
        reduction, step = cfg.filter.reduction, 0
        fixed_omega = parse_omega_strategy(cfg.fusion.omega_strategy)
        # Neither enumerate's cached tuple nor the loop holds a table while
        # _prefilled builds the next group.
        try:
            for a, b, staged in _prefilled(recursion.pairs, fixed_omega, reduction):
                step += 1
                omega = select_omega(a, b, staged=staged) if fixed_omega is None else fixed_omega
                chernoff = fuse_chernoff(a, b, omega, reduction=reduction, staged=staged)
                centralized = fuse_independent(a, b, reduction=reduction, staged=staged)
                for name, result in zip(fused_names, (chernoff, centralized)):
                    recursion.record(step, "fused", name, result.state)
                del staged
        except _FAILURES as exc:
            raise NumericsError(run_idx, step, exc) from exc
    if recursion.failure is not None:
        step, exc = recursion.failure
        raise NumericsError(run_idx, step, exc) from exc
    return RunRecord(recursion.positions, recursion.tracks)


# --- worker pool ------------------------------------------------------------


def _pool_entry(args: tuple) -> list[tuple[RunScores, Optional[list]]]:
    """A block of runs' scores, each with its labelled scans when they
    are dumped, in run order.

    The block recurses together (_recurse); then each run is fused,
    recorded and scored on its own.  Scores are a few arrays, much
    smaller to send back than the runs' records of estimates.
    """
    cfg, run_indices, mode, dump_scans = args
    recursions = _recurse(cfg, run_indices, mode)
    results = []
    for run_idx in run_indices:
        # Popped, so each run's states are freed once it is scored.
        recursion = recursions.pop(0)
        record = run_once(cfg, run_idx, mode, recursion=recursion)
        scans = recursion.labeled if dump_scans else None
        results.append((score_run(record, cfg.metrics.ospa_cutoff), scans))
    return results


def _worker_count(runs: int) -> int:
    env = os.environ.get("POSSFUSE_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("POSSFUSE_THREADS", f"must be an integer, got {env!r}") from None
        if cap < 1:
            raise ConfigError("POSSFUSE_THREADS", f"must be at least 1, got {cap}")
    elif hasattr(os, "sched_getaffinity"):
        # The CPUs this process may run on, which taskset or a cgroup's
        # cpuset can make fewer than the machine's.
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(runs, cap))


def _blocks(runs: int, workers: int) -> list[range]:
    """Consecutive blocks of runs, at most RUNS_PER_BLOCK each, as many as
    a multiple of the worker count (or one per run, when there are fewer
    runs) and equal in size to within one run, the larger ones first, so
    the blocks a pool hands out last are the shorter ones."""
    count = -(-runs // RUNS_PER_BLOCK)
    count = min(runs, -(-count // workers) * workers)
    blocks, start = [], 0
    for i in range(count):
        size = runs // count + (i < runs % count)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _spans(runs: list[int]) -> str:
    """Run indices in ascending order as "0-7, 16, 20-23"."""
    spans: list[list[int]] = []
    for i in runs:
        if spans and spans[-1][1] == i - 1:
            spans[-1][1] = i
        else:
            spans.append([i, i])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class _SigtermExit:
    """Within a with block, SIGTERM becomes SystemExit(143), raised at
    once, so that leaving a pool's with block shuts the pool down; the
    previous handler is put back after.  Later SIGTERMs are ignored, so
    they cannot cut the shutdown short.  Only the main thread can set a
    handler, and only one set from Python can be put back; otherwise
    SIGTERM is left as it is."""

    previous = None

    def __enter__(self) -> "_SigtermExit":
        if threading.current_thread() is threading.main_thread() and signal.getsignal(signal.SIGTERM) is not None:
            self.previous = signal.signal(signal.SIGTERM, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        if self.previous is not None:
            signal.signal(signal.SIGTERM, self.previous)

    def _handle(self, signum, frame) -> None:
        signal.signal(signum, signal.SIG_IGN)
        raise SystemExit(128 + signum)


def _worker_start() -> None:
    """A pool worker's initializer.  The worker was forked with SIGTERM
    blocked; it takes SIGTERM's default action and only then unblocks it,
    so a SIGTERM sent since the fork ends the worker here."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _collect_runs(
    cfg: ExperimentConfig, mode: str, dump_scans: bool, workers: int
) -> list[tuple[RunScores, Optional[list]]]:
    """Every run's scores and scans, in run order.  The pool forks all its
    workers at the first submit, with SIGTERM blocked (_worker_start); the
    caller's mask is back before anything waits on the workers."""
    jobs = [(cfg, block, mode, dump_scans) for block in _blocks(cfg.runs, workers)]
    if workers == 1:
        return [result for job in jobs for result in _pool_entry(job)]
    with _SigtermExit(), ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"), initializer=_worker_start
    ) as pool:
        futures = []
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                for job in jobs:
                    futures.append(pool.submit(_pool_entry, job))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            # Read in submission order, which keeps the fold and every
            # downstream file independent of scheduling.
            return [result for future in futures for result in future.result()]
        except BrokenProcessPool:
            # A worker that dies fails every block not yet returned,
            # submitted or not.
            lost = [
                i
                for k, (_, block, *_) in enumerate(jobs)
                if k >= len(futures) or isinstance(futures[k].exception(), BrokenProcessPool)
                for i in block
            ]
            raise WorkerDiedError(lost) from None
        finally:
            for future in futures:
                future.cancel()


# --- output files -----------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


# The aggregate's CSVs by name: the columns after step and series, and
# one series' row at one step.
_TABLES = {
    "ospa": ("mean_ospa,runs",
             lambda agg, s, k: f"{_fmt(agg.mean_ospa[s][k])},{agg.runs}"),
    "trace": ("mean_trace,present_count",
              lambda agg, s, k: f"{_fmt(agg.mean_trace[s][k])},{int(agg.present_count[s][k])}"),
    "presence": ("mean_q_absent,mean_q_present",
                 lambda agg, s, k: f"{_fmt(agg.mean_q_absent[s][k])},{_fmt(agg.mean_q_present[s][k])}"),
}


def _output_texts(agg: AggregateResult) -> dict[str, str]:
    texts = {}
    for name, (header, row) in _TABLES.items():
        lines = [f"step,series,{header}"]
        for k in range(agg.steps):
            for s in agg.series:
                lines.append(f"{k + 1},{s},{row(agg, s, k)}")
        texts[name] = _text(lines)
    return texts


def _scan_dump_text(runs: list[list]) -> str:
    """The labelled scans each run fed its filters, in run order."""
    lines = ["run,step,sensor,x_km,y_km,is_clutter"]
    for run_idx, labeled_by_sensor in enumerate(runs):
        for i, labeled in enumerate(labeled_by_sensor):
            for scan, labels in labeled:
                for p, is_clutter in zip(scan.points, labels):
                    lines.append(
                        f"{run_idx},{scan.time_index},{i + 1},{_fmt(p[0])},{_fmt(p[1])},{int(is_clutter)}"
                    )
    return _text(lines)


def _check_targets(out_dir: Path, names) -> None:
    """Reject an out_dir/<name>.csv that is a directory, which a file
    cannot replace."""
    for name in names:
        path = out_dir / f"{name}.csv"
        if path.is_dir():
            raise ConfigError("output_dir", f"cannot write {path}: it is a directory")


def _write_all(out_dir: Path, texts: dict[str, str]) -> dict[str, Path]:
    """Write each text to out_dir/<name>.csv, all files or none.

    Each text is written to a temporary file in out_dir, named for this
    process, and the temporary files replace the targets only once all
    are written and no target is a directory, so a failed write replaces
    no file of the set.  An OSError is a ConfigError naming the target
    (exit 2), and no temporary file is left.
    """
    files = {name: out_dir / f"{name}.csv" for name in texts}
    temps = {name: out_dir / f".{name}.csv.{os.getpid()}.tmp" for name in texts}
    try:
        for name, path in files.items():
            temps[name].write_text(texts[name], encoding="utf-8")
        _check_targets(out_dir, texts)
        for name, path in files.items():
            os.replace(temps[name], path)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    return files


@dataclass
class ExperimentResult:
    aggregate: AggregateResult
    files: dict[str, Path]


def _drive(cfg: ExperimentConfig, mode: str, out_dir, dump_scans: bool) -> ExperimentResult:
    # A bad sensor count, OSPA cutoff (a step's sum reaches cutoff x runs),
    # worker count, output directory or output file is one ConfigError
    # before the pool starts, and leaves no file.
    _series(mode, len(cfg.scenario.sensors))
    if cfg.runs > sys.float_info.max or not np.isfinite(cfg.metrics.ospa_cutoff * cfg.runs):
        raise ConfigError("metrics.ospa_cutoff", f"its sum over {cfg.runs} runs overflows a float")
    workers = _worker_count(cfg.runs)
    out_path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError("output_dir", f"cannot create {out_path}: {getattr(exc, 'strerror', None) or exc}") from None
    _check_targets(out_path, [*_TABLES, "scans"] if dump_scans else _TABLES)
    results = _collect_runs(cfg, mode, dump_scans, workers)
    agg = fold_scores([scores for scores, _ in results])
    texts = _output_texts(agg)
    if dump_scans:
        texts["scans"] = _scan_dump_text([scans for _, scans in results])
    return ExperimentResult(aggregate=agg, files=_write_all(out_path, texts))


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
