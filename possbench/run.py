"""possfuse benchmark: Monte Carlo workloads timed end to end and by layer.

Usage, from the root of a checkout:

    python3 possbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With --trace 0 the harness starts the real CLI subcommand in fresh
processes, one after another, for about S seconds, and reports the
end-to-end metrics.  With --trace 1 it runs the same experiment in-process
on one worker, alternating untraced and traced rounds for about S seconds,
and reports the per-layer metrics.  Either way a traced reference run of
the same configuration and seed feeds the correctness checks in checks.py,
which must pass for "correct" to be true.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count Monte
Carlo runs.  Outputs go to possbench/_out/<workload>/.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Fewest set-up samples in a run.  An untimed interpreter start comes
# first, so byte-compiling the package on a fresh checkout is not counted.
SETUP_SAMPLES = 5
# A CLI invocation that takes longer than this has hung.
CLI_TIMEOUT_S = 120.0
# How long child processes left at exit may take to end before they are killed.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
CSV_NAMES = ("ospa.csv", "trace.csv", "presence.csv", "scans.csv")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    mode: str
    runs: int
    dump_scans: bool
    settings: dict


# Why each workload exists is in BENCHMARK.json and README.md.  Every CLI
# invocation runs a pool of one worker per available core.  single-clutter
# is not in BENCHMARK.json: its timing follows the host's memory
# contention too closely to hold a bound, so it is run by name only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="independent-default",
            subcommand="fuse-independent",
            mode="independent",
            runs=30,
            dump_scans=False,
            settings={},
        ),
        Workload(
            name="dependent-mintrace",
            subcommand="fuse-dependent",
            mode="dependent",
            runs=24,
            dump_scans=False,
            settings={"fusion": {"omega_strategy": "min-trace"}},
        ),
        Workload(
            name="single-clutter",
            subcommand="single",
            mode="single",
            runs=24,
            dump_scans=True,
            settings={
                "scenario": {
                    "sensors": [
                        {"pd_true": 0.8, "noise_var": 2.0, "clutter_rate": 20.0},
                        {"pd_true": 0.6, "noise_var": 2.0, "clutter_rate": 20.0},
                    ]
                }
            },
        ),
    )
}

EXPERIMENTS = {
    "single": "run_single",
    "independent": "run_fusion_independent",
    "dependent": "run_fusion_dependent",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _median(values) -> float:
    return float(statistics.median(values))


def _env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["POSSFUSE_THREADS"] = str(workers)
    return env


@contextmanager
def _threads(workers: int):
    saved = os.environ.get("POSSFUSE_THREADS")
    os.environ["POSSFUSE_THREADS"] = str(workers)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["POSSFUSE_THREADS"]
        else:
            os.environ["POSSFUSE_THREADS"] = saved


def _timed_process(args: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run a command to completion: (wall seconds, peak RSS in MB, exit code).

    wait4 reports the largest resident set among the process and the
    descendants it reaped, which covers the CLI's pool workers.  The
    command runs in a session of its own, so a hung one is killed together
    with its workers.
    """
    with open(log, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _become_subreaper() -> None:
    """Have descendants that lose their parent (the pool workers of a
    killed CLI) handed to this process, so that it can wait for them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _live_children() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in task.read_text().split()]
        except OSError:
            pass
    return pids


def _reap_children(grace_s: float) -> None:
    """Wait until every child process has ended; kill what is left after grace_s."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            if killed and time.monotonic() >= deadline + REAP_GRACE_S:
                return
            for pid in _live_children():
                _kill_group(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def _digests(directory: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in CSV_NAMES
        if (directory / name).exists()
    }


def _reference_block(cfg, mode: str, indices: range):
    """Runs `indices` under the state-checking hooks; a checks.Reference."""
    import possfuse.runner
    from checks import StateCapture
    from tracing import Tracer

    capture = StateCapture(cfg.filter.reduction.max_components, check_fusions=mode == "independent")
    with Tracer(capture.hooks()):
        for i in indices:
            possfuse.runner.run_once(cfg, i, mode)
    return capture.result


class Bench:
    """One workload at one seed: its config file, CLI calls and in-process rounds."""

    def __init__(self, wl: Workload, seed: int, out_root: Path, runs: Optional[int] = None):
        from possfuse.config import load_experiment

        self.wl = wl
        self.seed = seed
        self.runs = runs or wl.runs
        self.workers = nproc()
        self.dir = out_root / wl.name
        self.cli_dir = self.dir / "cli"
        self.inproc_dir = self.dir / "inproc"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        settings = dict(wl.settings, runs=self.runs, master_seed=seed)
        self.config_path.write_text(json.dumps(settings, indent=2) + "\n", encoding="utf-8")
        self.cfg = load_experiment(self.config_path)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup_sample(self) -> float:
        code = "import sys, possfuse, possfuse.cli; possfuse.config.load_experiment(sys.argv[1])"
        wall, _, rc = _timed_process(
            [sys.executable, "-c", code, str(self.config_path)], _env(self.workers),
            self.dir / "setup_stderr.txt",
        )
        if rc != 0:
            raise RuntimeError(f"set-up failed with exit code {rc}; see {self.dir / 'setup_stderr.txt'}")
        return wall

    def cli(self) -> Optional[tuple[float, float]]:
        """One timed CLI invocation; (wall_s, peak_rss_mb), or None if it failed."""
        args = [
            sys.executable, "-m", "possfuse.cli", self.wl.subcommand,
            "--config", str(self.config_path), "--seed", str(self.seed), "--out", str(self.cli_dir),
        ]
        if self.wl.dump_scans:
            args.append("--dump-scans")
        log = self.dir / "cli_stderr.txt"
        wall, rss, rc = _timed_process(args, _env(self.workers), log)
        self.attempted += self.runs
        if rc != 0:
            self.failed += self.runs
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-1:]
            self.failures.append(f"CLI exited {rc}: {' '.join(tail)}")
            return None
        return wall, rss

    def _drive(self, cfg, out_dir: Path, tracer=None) -> float:
        """One round of the experiment in this process on one worker; seconds."""
        import possfuse.runner

        experiment = getattr(possfuse.runner, EXPERIMENTS[self.wl.mode])
        with _threads(1):
            t0 = time.perf_counter()
            with tracer or nullcontext():
                experiment(cfg, out_dir=out_dir, dump_scans=self.wl.dump_scans)
            elapsed = time.perf_counter() - t0
        self.attempted += cfg.runs
        return elapsed

    def in_process(self, tracer=None) -> float:
        return self._drive(self.cfg, self.inproc_dir, tracer)

    def warm_up(self) -> None:
        """A one-run round, so lazy imports and first-call costs in this
        process land outside the timed rounds."""
        self._drive(dataclasses.replace(self.cfg, runs=1), self.dir / "warmup")

    def reference(self):
        """Every run again under the state-checking hooks, spread over a
        pool; the merged checks.Reference, records in run order.

        The pool forks: a spawning pool starts a resource-tracker process
        that only ends after this one has exited."""
        from checks import Reference

        blocks = [range(i, min(i + 4, self.runs)) for i in range(0, self.runs, 4)]
        merged = Reference()
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=self.workers, mp_context=context) as pool:
            for part in pool.map(_reference_block, [self.cfg] * len(blocks),
                                 [self.wl.mode] * len(blocks), blocks):
                merged.merge(part)
        self.attempted += self.runs
        return merged

    def check(self, cli_digests: list[dict[str, str]],
              inproc_digests: Optional[dict[str, str]] = None) -> list[str]:
        import checks

        failures = list(self.failures)
        if self.failed:
            return failures
        ref = self.reference()
        failures += ref.failures
        if len(ref.records) != self.runs:
            return failures + [f"reference run returned {len(ref.records)} of {self.runs} records"]
        if any(d != cli_digests[0] for d in cli_digests[1:]):
            failures.append("CLI outputs differ between invocations with the same seed")
        if inproc_digests is not None and inproc_digests != cli_digests[0]:
            failures.append("in-process outputs differ from the CLI's")
        failures += checks.check_tables(ref.records, self.cfg.metrics.ospa_cutoff, self.cli_dir)
        if self.wl.mode == "independent":
            failures += checks.check_independent(ref, self.cli_dir)
        elif self.wl.mode == "dependent":
            failures += checks.check_dependent(ref, self.cli_dir)
        if self.wl.dump_scans:
            failures += checks.check_scans(ref, self.cfg, self.cli_dir)
        return failures


def _time_left(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether another step of the median duration still ends in time."""
    return time.perf_counter() - start + _median(durations) <= seconds


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    bench.setup_sample()
    # One set-up sample before each invocation spreads them over the run,
    # so a slow spell of a shared machine weighs on both alike.
    setups, walls, rss, digests, steps = [], [], [], [], []
    start = time.perf_counter()
    while not steps or _time_left(start, seconds, steps):
        t0 = time.perf_counter()
        setups.append(bench.setup_sample())
        result = bench.cli()
        if result is None:
            break
        walls.append(result[0])
        rss.append(result[1])
        digests.append(_digests(bench.cli_dir))
        steps.append(time.perf_counter() - t0)
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_sample())
    setup = _median(setups)
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss}
    (bench.dir / "samples.json").write_text(json.dumps(samples, indent=1) + "\n", encoding="utf-8")
    failures = bench.check(digests)
    if not walls:
        return {}, failures
    metrics = {
        "wall_s": (_median(walls), "s"),
        "runs_per_s": (_median([bench.runs / (wall - setup) for wall in walls]), "runs/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    return metrics, failures


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    import possfuse.fusion
    from tracing import SPAN_NAMES, Tracer, WorkCounter

    if bench.cli() is None:
        return {}, list(bench.failures)
    bench.warm_up()
    omega_trials = len(getattr(possfuse.fusion, "OMEGA_GRID", ()))
    untraced, traced, summaries, counters, steps = [], [], [], [], []
    start = time.perf_counter()
    while not steps or _time_left(start, seconds, steps):
        untraced.append(bench.in_process())
        counter = WorkCounter(omega_trials)
        tracer = Tracer(counter.hooks())
        traced.append(bench.in_process(tracer))
        summaries.append(tracer.summary())
        counters.append(counter.metrics())
        tracer.write_csv(bench.dir / "spans.csv", len(traced) - 1, append=len(traced) > 1)
        steps.append(untraced[-1] + traced[-1])
    failures = bench.check([_digests(bench.cli_dir)], _digests(bench.inproc_dir))

    rounds = len(summaries)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls = sum(s[name]["calls"] for s in summaries)
        total = sum(s[name]["total_s"] for s in summaries)
        metrics[f"{name}.calls"] = (calls / rounds, "count")
        metrics[f"{name}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
        metrics[f"{name}.self_s"] = (sum(s[name]["self_s"] for s in summaries) / rounds, "s")
    run_ms = [1e3 * d for s in summaries for d in s["runner.run_once"]["durations"]]
    deciles = statistics.quantiles(run_ms, n=10) if len(run_ms) > 1 else run_ms * 9
    metrics["runner.run_once.ms_p50"] = (deciles[4], "ms")
    metrics["runner.run_once.ms_p90"] = (deciles[8], "ms")
    writes = [
        t - s["runner.run_once"]["total_s"] - s["metrics.aggregate"]["total_s"]
        for t, s in zip(traced, summaries)
    ]
    metrics["runner.write_s"] = (_median(writes), "s")
    for key in counters[0]:
        unit = "ratio" if key.endswith("ratio") else "count"
        metrics[key] = (sum(c[key] for c in counters) / rounds, unit)
    metrics["bench.trace_overhead_ratio"] = (_median(traced) / _median(untraced), "ratio")
    return metrics, failures


def measure(name: str, seed: int, seconds: float, trace: bool,
            out_root: Path = OUT, runs: Optional[int] = None) -> dict:
    """Run one workload and return the result object the harness prints."""
    bench = Bench(WORKLOADS[name], seed, out_root, runs)
    metrics, failures = (per_layer if trace else end_to_end)(bench, seconds)
    for message in failures:
        print(f"CHECK FAILED [{name}]: {message}", file=sys.stderr)
    return {
        "correct": not failures and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not (SRC / "possfuse" / "__init__.py").is_file():
        print(f"error: no possfuse package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    grace_s = 0.0
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            for key, metric in result["metrics"].items():
                print(f"# {name} {key} = {metric['value']!r} {metric['unit']}")
            print(json.dumps(result), flush=True)
            ok &= result["correct"]
        grace_s = REAP_GRACE_S
    finally:
        _reap_children(grace_s)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
