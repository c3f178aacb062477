"""Correctness checks computed apart from the package.

Two inputs feed them: the CSV files a timed CLI invocation wrote, and what
a traced reference run of the same configuration and seed observed at the
layer boundaries (its RunRecords, every predicted, updated and fused
state, and the inputs and outputs of every fusion call).  The checks
recompute the CSV contents from the records with closed forms of their
own: with at most one truth point and one estimate, OSPA is min(c, |d|)
when both exist, c when one does and 0 when neither does.

Every check returns a list of failure messages; an empty list means the
outputs are correct.

Tolerances of the statistical checks on scans.csv are the stated one or
five standard errors of the sample, whichever is wider.  At the run
counts the benchmark can afford, the stated tolerance alone would fail
on working code for a few seeds in a hundred; five standard errors
fail on fewer than one in a million.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXACT_TOL = 1e-12
# Recomputing alpha with explicit inverses instead of the package's solves
# changes the last bits of the quadratic form; existence pairs still agree
# far below any physically meaningful difference.
FUSION_TOL = 1e-10
SIGMAS = 5.0
POSITION = (0, 2)


@dataclass
class Reference:
    """What the checks need from a traced reference run of every Monte Carlo run."""

    records: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    states: int = 0
    fusions: int = 0
    # Largest gap between a fused existence pair and fused_pair's.
    fusion_error: float = 0.0

    def merge(self, other: "Reference") -> None:
        self.records += other.records
        self.failures += other.failures[: max(0, 20 - len(self.failures))]
        self.states += other.states
        self.fusions += other.fusions
        self.fusion_error = max(self.fusion_error, other.fusion_error)


class StateCapture:
    """Hooks that keep the run records and test every state as it appears."""

    def __init__(self, max_components: int, check_fusions: bool):
        self.max_components = max_components
        self.check_fusions = check_fusions
        self.result = Reference()

    def _fail(self, message: str) -> None:
        if len(self.result.failures) < 20:
            self.result.failures.append(message)

    def _normalised(self, phase: str, q0: float, q1: float, max_weight: float) -> None:
        self.result.states += 1
        err = max(abs(max(q0, q1) - 1.0), abs(max_weight - 1.0))
        if not err <= EXACT_TOL:
            self._fail(f"{phase} state off normalisation by {err:.3e}")

    def _size(self, phase: str, n: int) -> None:
        if n > self.max_components:
            self._fail(f"{phase} state has {n} components > max_components {self.max_components}")

    def _run(self, args, kwargs, record) -> None:
        self.result.records.append(record)

    def _predicted(self, args, kwargs, state) -> None:
        self._normalised("predicted", state.q_absent, state.q_present, state.spatial.max_weight)

    def _updated(self, args, kwargs, state) -> None:
        self._normalised("updated", state.q_absent, state.q_present, state.spatial.max_weight)

    def _reduced(self, args, kwargs, mixture) -> None:
        if abs(mixture.max_weight - 1.0) > EXACT_TOL:
            self._fail(f"reduced mixture max weight {mixture.max_weight!r}")
        self._size("reduced", mixture.n_components)

    def _fused(self, kind: str):
        def hook(args, kwargs, result) -> None:
            state = result.state
            self._normalised(f"fused {kind}", state.q_absent, state.q_present, state.spatial.max_weight)
            self._size(f"fused {kind}", state.spatial.n_components)
            if self.check_fusions:
                e1, e2 = (1.0 - args[2], args[2]) if kind == "chernoff" else (1.0, 1.0)
                r0, r1 = fused_pair(args[0], args[1], e1, e2)
                err = max(abs(r0 - state.q_absent), abs(r1 - state.q_present))
                self.result.fusions += 1
                self.result.fusion_error = max(self.result.fusion_error, err)

        return hook

    def hooks(self) -> dict[str, list]:
        return {
            "runner.run_once": [self._run],
            "bernoulli.predict": [self._predicted],
            "bernoulli.update": [self._updated],
            "bernoulli.reduce": [self._reduced],
            "fusion.fuse_chernoff": [self._fused("chernoff")],
            "fusion.fuse_independent": [self._fused("independent")],
        }


# --- recomputation from records ----------------------------------------------


def expected_tables(records, cutoff: float) -> dict[str, dict[str, np.ndarray]]:
    """Per series: mean_ospa, mean_trace, present_count, mean_q_absent and
    mean_q_present, folded in run order like the package's aggregate."""
    steps = len(records[0].truth_positions)
    out = {}
    for name in records[0].series:
        ospa_sum = np.zeros(steps)
        trace_sum = np.zeros(steps)
        count = np.zeros(steps, dtype=np.int64)
        q0 = np.zeros(steps)
        q1 = np.zeros(steps)
        for rec in records:
            track = rec.series[name]
            for k in range(steps):
                truth = rec.truth_positions[k]
                est = track.estimates[k]
                if truth is None and est is None:
                    d = 0.0
                elif truth is None or est is None:
                    d = cutoff
                else:
                    pos = np.asarray(est.mean)[list(POSITION)]
                    d = min(cutoff, float(np.linalg.norm(np.asarray(truth) - pos)))
                ospa_sum[k] += d
                if est is not None:
                    trace_sum[k] += float(np.trace(est.covariance))
                    count[k] += 1
                q0[k] += track.q_absent[k]
                q1[k] += track.q_present[k]
        n = len(records)
        with np.errstate(invalid="ignore", divide="ignore"):
            trace = np.where(count > 0, trace_sum / np.maximum(count, 1), np.nan)
        out[name] = {
            "mean_ospa": ospa_sum / n,
            "mean_trace": trace,
            "present_count": count,
            "mean_q_absent": q0 / n,
            "mean_q_present": q1 / n,
        }
    return out


def read_table(path: Path) -> dict[str, dict[str, np.ndarray]]:
    """A step,series,... CSV as {column: {series: values by step}}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in rows[0] if c not in ("step", "series")] if rows else []
    steps = max(int(r["step"]) for r in rows) if rows else 0
    table: dict[str, dict[str, np.ndarray]] = {c: {} for c in columns}
    for r in rows:
        k = int(r["step"]) - 1
        for c in columns:
            col = table[c].setdefault(r["series"], np.full(steps, np.nan))
            col[k] = float(r[c])
    return table


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    err = np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))
    return bool(np.all(both_nan | err))


def check_tables(records, cutoff: float, out_dir: Path) -> list[str]:
    """ospa.csv, trace.csv and presence.csv against the records."""
    failures = []
    expected = expected_tables(records, cutoff)
    files = {
        "ospa.csv": ("mean_ospa",),
        "trace.csv": ("mean_trace", "present_count"),
        "presence.csv": ("mean_q_absent", "mean_q_present"),
    }
    for fname, columns in files.items():
        path = out_dir / fname
        if not path.exists():
            failures.append(f"{fname} missing")
            continue
        table = read_table(path)
        for column in columns:
            got = table.get(column, {})
            if set(got) != set(expected):
                failures.append(f"{fname}: series {sorted(got)} != {sorted(expected)}")
                continue
            for series, values in expected.items():
                if not _close(got[series], values[column], EXACT_TOL):
                    failures.append(f"{fname}: {column} of {series} differs from the records")
    presence = out_dir / "presence.csv"
    if presence.exists():
        table = read_table(presence)
        for series, q0 in table.get("mean_q_absent", {}).items():
            q1 = table["mean_q_present"][series]
            if np.any((q0 < 0) | (q0 > 1) | (q1 < 0) | (q1 > 1)):
                failures.append(f"presence.csv: {series} mean outside [0, 1]")
            if np.any(q0 + q1 < 1.0 - EXACT_TOL):
                failures.append(f"presence.csv: {series} mean_q_absent + mean_q_present < 1")
    return failures


# --- per-workload checks -----------------------------------------------------


def _normalise_pair(log0: float, log1: float) -> tuple[float, float]:
    top = max(log0, log1)
    return math.exp(log0 - top), math.exp(log1 - top)


def _log(q: float) -> float:
    return math.log(q) if q > 0.0 else -math.inf


def fused_pair(a, b, e1: float, e2: float) -> tuple[float, float]:
    """Fused existence pair from the inputs, alpha through explicit inverses:
    log alpha = max over pairs of e1 log w1 + e2 log w2 - d' inv(P1/e1 + P2/e2) d / 2."""
    A, B = a.spatial, b.spatial
    spread = A.covariances[:, None] / e1 + B.covariances[None, :] / e2
    d = A.means[:, None] - B.means[None, :]
    quad = np.einsum("abi,abij,abj->ab", d, np.linalg.inv(spread), d)
    log_w = e1 * np.log(A.weights)[:, None] + e2 * np.log(B.weights)[None, :] - 0.5 * quad
    log_alpha = float(log_w.max())
    return _normalise_pair(
        e1 * _log(a.q_absent) + e2 * _log(b.q_absent),
        e1 * _log(a.q_present) + e2 * _log(b.q_present) + log_alpha,
    )


def check_independent(ref: Reference, out_dir: Path) -> list[str]:
    failures = []
    if not ref.fusions:
        failures.append("no fusion calls observed")
    if not ref.fusion_error <= FUSION_TOL:
        failures.append(f"fused existence pair off the recomputed one by {ref.fusion_error:.3e}")
    # Step-averaged over steps 10-50, after track initiation, as in the
    # package's acceptance criterion 5.
    ospa = read_table(out_dir / "ospa.csv")["mean_ospa"]
    avg = {s: float(np.mean(v[9:])) for s, v in ospa.items()}
    worse = max(avg["sensor1"], avg["sensor2"])
    for series in ("chernoff", "centralized"):
        if not avg[series] < worse:
            failures.append(f"{series} step-averaged OSPA {avg[series]:.4f} not below worse sensor {worse:.4f}")
    return failures


def check_dependent(ref: Reference, out_dir: Path) -> list[str]:
    failures = []
    worst_chernoff = 0.0
    worst_central = 0.0
    for rec in ref.records:
        single = rec.series["single"]
        chern = rec.series["chernoff"]
        central = rec.series["centralized"]
        for k in range(len(rec.truth_positions)):
            q0, q1 = single.q_absent[k], single.q_present[k]
            worst_chernoff = max(
                worst_chernoff, abs(chern.q_absent[k] - q0), abs(chern.q_present[k] - q1)
            )
            s0, s1 = _normalise_pair(2.0 * _log(q0), 2.0 * _log(q1))
            worst_central = max(
                worst_central, abs(central.q_absent[k] - s0), abs(central.q_present[k] - s1)
            )
    if not worst_chernoff <= EXACT_TOL:
        failures.append(f"chernoff existence pair off single's by {worst_chernoff:.3e}")
    if not worst_central <= EXACT_TOL:
        failures.append(f"centralized existence pair off single's squared by {worst_central:.3e}")
    # Over steps 10-50.  The Chernoff bound applies to the window mean: the
    # reduce after fusion merges the dominated cross components of a
    # self-fusion into their heads, so single steps stray by up to ~15% at
    # this run count while the window mean stays within ~2%.
    trace = read_table(out_dir / "trace.csv")["mean_trace"]
    window = slice(9, None)
    single = trace["single"][window]
    seen = np.isfinite(single)
    if not seen.any():
        return failures + ["no step in 10-50 with a declared target"]
    rel = abs(trace["chernoff"][window][seen].mean() / single[seen].mean() - 1.0)
    ratio = (trace["centralized"][window][seen] / single[seen]).max()
    if not (rel <= 0.05 and ratio < 0.7):
        failures.append(
            f"dependent traces: chernoff/single window mean off by {rel:.3f} (tol 0.05), "
            f"centralized/single max {ratio:.3f} (limit 0.7)"
        )
    return failures


def check_scans(ref: Reference, cfg, out_dir: Path) -> list[str]:
    """scans.csv against the scenario: clutter rate, detection rate, region
    and measurement noise."""
    path = out_dir / "scans.csv"
    if not path.exists():
        return ["scans.csv missing"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    run, step, sensor = (data[:, i].astype(np.int64) for i in range(3))
    x, y, clutter = data[:, 3], data[:, 4], data[:, 5] == 1
    scenario = cfg.scenario
    region = scenario.region
    records = ref.records
    runs = len(records)
    failures = []
    if set(np.unique(run)) - set(range(runs)):
        failures.append("scans.csv names runs the records do not have")
        return failures
    inside = (x >= region.xmin) & (x <= region.xmax) & (y >= region.ymin) & (y <= region.ymax)
    if not np.all(inside[clutter]):
        failures.append(f"{int(np.sum(~inside[clutter]))} clutter points outside the region")
    truth = {
        (r, k + 1): np.asarray(pos)
        for r, rec in enumerate(records)
        for k, pos in enumerate(rec.truth_positions)
        if pos is not None
    }
    present = len(truth)
    for i, sc in enumerate(scenario.sensors, start=1):
        mine = sensor == i
        scans = runs * scenario.steps
        mean_clutter = np.sum(mine & clutter) / scans
        tol = max(0.05 * sc.clutter_rate, SIGMAS * math.sqrt(sc.clutter_rate / scans))
        if not abs(mean_clutter - sc.clutter_rate) <= tol:
            failures.append(f"sensor {i}: mean clutter {mean_clutter:.3f} per scan, rate {sc.clutter_rate}")
        target = mine & ~clutter
        hits = [(r, s) for r, s in zip(run[target], step[target])]
        if any(h not in truth for h in hits):
            failures.append(f"sensor {i}: target-originated point at a step with no target")
            continue
        rate = len(hits) / present
        p = sc.pd_true
        tol = max(0.03, SIGMAS * math.sqrt(p * (1.0 - p) / present))
        if not abs(rate - p) <= tol:
            failures.append(f"sensor {i}: detection rate {rate:.4f}, pd_true {p} (tol {tol:.4f})")
        if hits:
            ref = np.array([truth[h] for h in hits])
            err = np.sum((np.column_stack([x[target], y[target]]) - ref) ** 2, axis=1) / sc.noise_var
            # Squared error over the noise variance is chi-square with two
            # degrees of freedom: mean 2, variance 4.
            tol = max(0.05 * 2.0, SIGMAS * 2.0 / math.sqrt(len(hits)))
            if not abs(err.mean() - 2.0) <= tol:
                failures.append(f"sensor {i}: squared error / noise_var averages {err.mean():.4f} (tol {tol:.4f})")
    return failures
