"""Shared brute-force oracles for the test suite.

The oracles are deliberately independent of the package internals:
possibility values are computed with explicit matrix inversion and plain
loops, assignments by exhaustive permutation, suprema by refining grid
search.  Tests compare package results against these routes.

The module also keeps the earlier loop forms of reduce and of the
per-step Monte Carlo fold (the latter built on the permutation oracle,
not on the package's ospa), and the eigenvalue form of the
covariance check, which the package's faster versions must match bit for
bit.  reference_run_once is the per-run path written against the public
per-state calls alone, the oracle of runner.run_once.  run_cli runs a
command line in a child Python process, live_children lists a command's
running pool workers, and FLOAT_EXTREMES are the float values the config
tests try in every field.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from possfuse.bernoulli import (
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
from possfuse.fusion import _FAILURES, fuse_chernoff, fuse_independent, parse_omega_strategy, select_omega
from possfuse.gaussmax import EIG_FLOOR, SYMMETRY_TOL, GaussianMaxMixture
from possfuse.metrics import POSITION_INDICES, RunRecord, SeriesTrack
from possfuse.runner import NumericsError
from possfuse.simulate import (
    BirthConfig,
    build_birth_mixture,
    cv_process_noise,
    cv_transition,
    generate_labeled_measurements,
    generate_truth,
    ignorance_mixture,
    position_observation,
)


def gauss_value(x, mean, cov) -> float:
    """exp(-0.5 (x-m)^T P^-1 (x-m)) via explicit inversion."""
    d = np.atleast_1d(np.asarray(x, dtype=float) - np.asarray(mean, dtype=float))
    P = np.atleast_2d(np.asarray(cov, dtype=float))
    q = float(d @ np.linalg.inv(P) @ d)
    return math.exp(-0.5 * q)


def mixture_value(x, weights, means, covs) -> float:
    """Pointwise max of weighted Gaussian possibilities."""
    return max(
        float(w) * gauss_value(x, m, P) for w, m, P in zip(weights, means, covs)
    )


def mixture_values(points, weights, means, covs) -> np.ndarray:
    return np.array([mixture_value(p, weights, means, covs) for p in points])


def mixture_values_vec(points, weights, means, covs) -> np.ndarray:
    """Vectorized oracle evaluation: explicit inverses, einsum quadratics.

    Same route as mixture_value (inv, not factorization), batched so the
    acceptance grids stay inside their runtime budgets.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.zeros(pts.shape[0])
    for w, m, P in zip(weights, means, covs):
        Pinv = np.linalg.inv(np.atleast_2d(P))
        d = pts - np.atleast_1d(m)
        quad = np.einsum("ki,ij,kj->k", d, Pinv, d)
        np.maximum(best, float(w) * np.exp(-0.5 * quad), out=best)
    return best


def product_values(points, mix1, mix2, e1: float, e2: float) -> np.ndarray:
    """Pointwise [mix1]^e1 [mix2]^e2, each mix a (weights, means, covs) triple."""
    v1 = mixture_values(points, *mix1)
    v2 = mixture_values(points, *mix2)
    return v1**e1 * v2**e2


def grid_points_2d(lo, hi, n: int) -> np.ndarray:
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def mixture_box(mixes, pad: float = 4.0):
    """Axis-aligned box covering every component mean plus pad standard
    deviations of the widest component."""
    means = np.concatenate([np.atleast_2d(m[1]) for m in mixes], axis=0)
    spread = max(
        math.sqrt(float(np.max(np.diagonal(P)))) for m in mixes for P in m[2]
    )
    lo = means.min(axis=0) - pad * spread
    hi = means.max(axis=0) + pad * spread
    return lo, hi


def refine_maximum(f, lo, hi, iters: int = 9, per_axis: int = 41) -> float:
    """Maximize a unimodal function by repeatedly zooming a uniform grid."""
    return refine_maximum_batch(
        lambda pts: np.array([f(p) for p in pts]), lo, hi, iters, per_axis
    )


def refine_maximum_batch(fbatch, lo, hi, iters: int = 9, per_axis: int = 41) -> float:
    """refine_maximum for a function that evaluates a whole point batch."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    best = -np.inf
    for _ in range(iters):
        axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(lo.size)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        vals = np.asarray(fbatch(pts))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        center = pts[i]
        span = (hi - lo) / 8.0
        lo = center - span / 2.0
        hi = center + span / 2.0
    return best


def ospa_permutations(X, Y, cutoff: float, order: float) -> float:
    """OSPA by trying every assignment permutation explicitly."""
    X = [np.asarray(x, dtype=float) for x in X]
    Y = [np.asarray(y, dtype=float) for y in Y]
    # The smaller set gives the rows, or between equal sizes the one whose
    # sorted points compare lexicographically smaller, so the sums, and so
    # the distance, do not depend on argument order.
    def key(points):
        return sorted(tuple(p.tolist()) for p in points)

    if len(X) > len(Y) or (len(X) == len(Y) and key(X) > key(Y)):
        X, Y = Y, X
    m, n = len(X), len(Y)
    if n == 0:
        return 0.0
    if m == 0:
        return cutoff
    best = math.inf
    for perm in itertools.permutations(range(n), m):
        total = 0.0
        for i in range(m):
            d = min(cutoff, float(np.linalg.norm(X[i] - Y[perm[i]])))
            total = total + d**order
        best = min(best, total)
    return float((best + cutoff**order * (n - m)) / n) ** (1.0 / order)


def reference_conditioned_covariance(P: np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """The covariance check by eigvalsh on every matrix, whatever the
    stack size: the rule gaussmax._conditioned_covariance must agree with,
    byte for byte and error for error."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 0:
        P = P.reshape(1, 1)
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise ValueError(f"covariance must be square, got shape {P.shape}")
    if dim is not None and P.shape[-1] != dim:
        raise ValueError(f"covariance dimension {P.shape[-1]} does not match mean dimension {dim}")
    # Checked first, so that inf - inf never reaches the symmetry test.
    if not np.isfinite(P).all():
        raise ValueError("covariance is not finite")
    bits = P.view(np.int64)
    if not (bits == bits.swapaxes(-1, -2)).all():
        # Symmetrising a bitwise-symmetric matrix would return its bits, so
        # only other input pays for the tolerance test and the average.
        PT = P.swapaxes(-1, -2)
        scale = np.maximum(np.abs(P).max(axis=(-2, -1), keepdims=True), 1.0)
        if not (np.abs(P - PT) <= SYMMETRY_TOL * scale).all():
            raise ValueError("covariance is not symmetric within tolerance")
        P = 0.5 * (P + PT)
    eigs = np.linalg.eigvalsh(P)
    lowest = eigs[..., 0]
    # One test clears the common case; a non-positive lowest eigenvalue
    # also fails it, as it is never above EIG_FLOOR times the largest.
    if not (lowest > EIG_FLOOR * eigs[..., -1]).all():
        if (lowest <= 0.0).any():
            raise ValueError("covariance is not positive definite")
        low = lowest < EIG_FLOOR * eigs[..., -1]
        n = P.shape[-1]
        jitter = EIG_FLOOR * (np.trace(P, axis1=-2, axis2=-1) / n)
        # Only near-singular matrices change, so each matrix's bits do not
        # depend on the others in the stack.
        P = np.where(low[..., None, None], P + jitter[..., None, None] * np.eye(n), P)
    return P


def random_mixture(rng: np.random.Generator, dim: int, max_comps: int = 4):
    """Random normalized (weights, means, covs) triple."""
    n = int(rng.integers(1, max_comps + 1))
    weights = rng.uniform(0.05, 1.0, size=n)
    weights[int(rng.integers(n))] = 1.0
    means = rng.uniform(-4.0, 4.0, size=(n, dim))
    covs = np.empty((n, dim, dim))
    for i in range(n):
        A = rng.normal(size=(dim, dim)) * 0.5
        covs[i] = A @ A.T + np.eye(dim) * rng.uniform(0.4, 1.5)
    return weights, means, covs


def reduce_reference(mixture, config):
    """Mixture reduction by the original per-head loop.

    Each head factorises its own covariance and measures only the
    components still alive; the result goes through the public
    constructor.  Covariances that are already conditioned and well away
    from singular come out with the same bits as the operation's.
    """
    w_all = mixture.weights
    keep = w_all >= config.prune_ratio * w_all.max()
    w = w_all[keep]
    means = mixture.means[keep]
    covs = mixture.covariances[keep]

    order = np.argsort(-w, kind="stable")
    alive = np.ones(w.size, dtype=bool)
    thresh2 = float(config.merge_mahalanobis) ** 2
    out_w, out_m, out_P = [], [], []
    for head in order:
        if not alive[head]:
            continue
        cand = np.flatnonzero(alive)
        diff = means[cand] - means[head]
        L = np.linalg.cholesky(covs[head])
        y = np.linalg.solve(L, diff.T)
        dist2 = np.sum(y * y, axis=0)
        cluster = cand[dist2 <= thresh2]
        if cluster.size == 1:
            out_w.append(float(w[head]))
            out_m.append(means[head])
            out_P.append(covs[head])
        else:
            cw = w[cluster]
            cm = means[cluster]
            cP = covs[cluster]
            total = cw.sum()
            mbar = (cw[:, None] * cm).sum(axis=0) / total
            dd = cm - mbar
            Pbar = (
                cw[:, None, None] * (cP + dd[:, :, None] * dd[:, None, :])
            ).sum(axis=0) / total
            out_w.append(float(w[head]))
            out_m.append(mbar)
            out_P.append(Pbar)
        alive[cluster] = False
    n_keep = min(len(out_w), int(config.max_components))
    w_arr = np.array(out_w[:n_keep])
    m_arr = np.stack(out_m[:n_keep])
    P_arr = np.stack(out_P[:n_keep])
    return GaussianMaxMixture(w_arr / w_arr.max(), m_arr, P_arr)


def aggregate_reference(records, cutoff: float, order: float):
    """Per-step means by calling ospa_permutations and np.trace for every
    (run, series, step) and adding into per-step sums in run order.

    Returns the AggregateResult fields as a dict.
    """
    steps = records[0].steps
    names = tuple(records[0].series.keys())
    mean_ospa = {s: np.zeros(steps) for s in names}
    trace_sum = {s: np.zeros(steps) for s in names}
    count = {s: np.zeros(steps, dtype=np.int64) for s in names}
    q0_sum = {s: np.zeros(steps) for s in names}
    q1_sum = {s: np.zeros(steps) for s in names}
    for rec in records:
        for s in names:
            track = rec.series[s]
            for k in range(steps):
                truth = rec.truth_positions[k]
                truth_set = [truth] if truth is not None else []
                est = track.estimates[k]
                est_set = [est.mean[list(POSITION_INDICES)]] if est is not None else []
                mean_ospa[s][k] += ospa_permutations(truth_set, est_set, cutoff, order)
                if est is not None:
                    trace_sum[s][k] += float(np.trace(est.covariance))
                    count[s][k] += 1
                q0_sum[s][k] += track.q_absent[k]
                q1_sum[s][k] += track.q_present[k]
    n = len(records)
    mean_trace = {}
    for s in names:
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_trace[s] = np.where(
                count[s] > 0, trace_sum[s] / np.maximum(count[s], 1), np.nan
            )
        mean_ospa[s] /= n
        q0_sum[s] /= n
        q1_sum[s] /= n
    return {
        "runs": n,
        "steps": steps,
        "series": names,
        "mean_ospa": mean_ospa,
        "mean_trace": mean_trace,
        "present_count": count,
        "mean_q_absent": q0_sum,
        "mean_q_present": q1_sum,
    }


SRC = Path(__file__).resolve().parents[1] / "src"


# Float values the config tests try in a field: signed zeros and units,
# the extremes of the float range, and values around the usual scales.
FLOAT_EXTREMES = (0.0, -0.0, 1e300, -1e300, 5e-324, 1e-12, 1e12, -1.0, 0.5, 1.0)


def run_cli(
    args: list[str], *, env: dict | None = None, memory_bytes: int | None = None, timeout: float = 60.0
) -> subprocess.CompletedProcess:
    """Run `python *args` with the package importable, capturing text.

    memory_bytes, when given, caps the child's address space (RLIMIT_AS),
    so an allocation beyond it raises MemoryError in the child alone.
    """
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child_env.get("PYTHONPATH")]))

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    return subprocess.run(
        [sys.executable, *args],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=None if memory_bytes is None else limit,
    )


def live_children(pid: int, argv: list[str], seen=()) -> list[int]:
    """The live processes running command line argv among process pid's
    children, listed in /proc/<pid>/task/<pid>/children, and among the
    pids in seen.  A command's forked pool workers run its command line.
    The list of children goes with pid, so a test that waits for workers
    to end after their command has ended passes the ones it saw as seen.
    A process that has ended is not listed, nor is a zombie, whose
    cmdline reads empty."""
    cmdline = b"".join(os.fsencode(arg) + b"\0" for arg in argv)
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        children = []
    live = []
    for child in sorted({*map(int, children), *seen}):
        try:
            if Path(f"/proc/{child}/cmdline").read_bytes() == cmdline:
                live.append(child)
        except OSError:
            pass
    return live


def reference_run_once(cfg, run_idx: int, mode: str) -> RunRecord:
    """runner.run_once's record of one run, computed one step at a time:
    each filter predicts, updates and reduces, then the step's pair is
    fused at once, through the public per-state calls only.  No product
    table is passed, so each fusion call builds its own.

    The run's seeds and models follow the documented rules: seeds from
    SeedSequence(entropy=(master_seed, run_idx)), one for the truth and
    one per configured sensor; dependent mode feeds only the first
    sensor's stream to one filter and fuses it with itself; birth uses
    filter.birth.pos_var, or the sensor's noise_var + 1 when null; a
    model clutter rate of at least 1e-6.  Each pair is fused without a
    reduction, and the fused state's component count applies the
    documented keep rule to that full fusion: the pairs whose weight is at
    least prune_ratio times the largest, at most max_components of them,
    except when an omega of 0 or 1 returns an input verbatim.  Only the
    heaviest component reaches the estimate, and it heads both fusions.

    A failure raises NumericsError naming the run and the step it met, step
    0 being the run's setup; the first step that fails is the one named.
    """
    scenario, settings = cfg.scenario, cfg.filter
    reduction = settings.reduction
    names = ["single"] if mode == "dependent" else [f"sensor{i + 1}" for i in range(len(scenario.sensors))]
    fused_names = [] if mode == "single" else ["chernoff", "centralized"]
    tracks = {name: SeriesTrack() for name in names + fused_names}

    def append(name, state, n_components=None):
        tracks[name].estimates.append(extract(state))
        tracks[name].q_absent.append(state.q_absent)
        tracks[name].q_present.append(state.q_present)
        tracks[name].n_components.append(state.spatial.n_components if n_components is None else n_components)

    def append_fused(name, a, b, result):
        state = result.state
        if state is a or state is b:
            append(name, state)
        else:
            kept = np.count_nonzero(state.spatial.weights >= reduction.prune_ratio)
            append(name, state, min(kept, reduction.max_components))

    step = 0
    try:
        sequence = np.random.SeedSequence(entropy=(int(cfg.master_seed), int(run_idx)))
        seeds = [int(w) for w in sequence.generate_state(1 + len(scenario.sensors), dtype=np.uint64)]
        sensors = scenario.sensors[:1] if mode == "dependent" else scenario.sensors
        with np.errstate(over="raise", invalid="raise"):
            truth = generate_truth(scenario, seeds[0])
            streams = [
                [scan for scan, _ in generate_labeled_measurements(truth, sensor, scenario.region, seeds[1 + i])]
                for i, sensor in enumerate(sensors)
            ]
        motion = MotionModel(cv_transition(scenario.dt), cv_process_noise(scenario.dt, scenario.psd))
        phi = TransitionPossibilityMatrix.from_matrix(settings.phi)
        det = probability_interval_to_possibility(*settings.pd_interval)
        filters = []
        for sensor in sensors:
            meas = MeasurementModel(
                observation=position_observation(),
                noise=sensor.noise_var * np.eye(2),
                clutter_rate=max(sensor.clutter_rate, 1e-6),
                region=scenario.region,
            )
            pos_var = settings.birth.pos_var
            birth = BirthConfig(
                region=scenario.region,
                pos_var=sensor.noise_var + 1.0 if pos_var is None else pos_var,
                vel_var=settings.birth.vel_var,
            )
            start = BernoulliPossState(1.0, 1.0, ignorance_mixture(scenario.region, settings.birth.vel_var))
            filters.append({"meas": meas, "birth": birth, "state": start, "prev": None})

        fixed_omega = parse_omega_strategy(cfg.fusion.omega_strategy)
        for step in range(1, scenario.steps + 1):
            for f, name, stream in zip(filters, names, streams):
                scan = stream[step - 1]
                pred = predict(f["state"], motion, phi, build_birth_mixture(f["prev"], f["birth"]))
                post = update(pred, scan, f["meas"], det)
                f["state"] = BernoulliPossState(post.q_absent, post.q_present, reduce(post.spatial, reduction))
                f["prev"] = scan
                append(name, f["state"])
            if fused_names:
                a, b = filters[0]["state"], filters[-1]["state"]
                omega = select_omega(a, b) if fixed_omega is None else fixed_omega
                append_fused("chernoff", a, b, fuse_chernoff(a, b, omega))
                append_fused("centralized", a, b, fuse_independent(a, b))
    except _FAILURES as exc:
        raise NumericsError(run_idx, step, exc) from exc
    H = position_observation()
    positions = [None if x is None else H @ x for x in truth]
    return RunRecord(truth_positions=positions, series=tracks)
