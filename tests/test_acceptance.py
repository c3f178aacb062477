"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line with the
measured quantities, and `pytest -v` shows a pass/fail line per test.
The heavier experiments assert their runtime budgets too.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import possfuse.runner as runner_mod
from possfuse.bernoulli import (
    BernoulliPossState,
    Estimate,
    probability_interval_to_possibility,
)
from possfuse.cli import main
from possfuse.config import default_experiment
from possfuse.fusion import fuse_chernoff, fuse_independent
from possfuse.gaussmax import GaussianMaxMixture, sup_linear_gaussian_product
from possfuse.metrics import RunRecord, SeriesTrack, ospa, score_run
from possfuse.runner import run_fusion_dependent, run_fusion_independent, run_once
from support import (
    gauss_value,
    grid_points_2d,
    mixture_box,
    mixture_values_vec,
    ospa_permutations,
    random_mixture,
    refine_maximum_batch,
)

OMEGAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def as_state(triple):
    w, m, P = triple
    return BernoulliPossState(1.0, 1.0, GaussianMaxMixture(w, m, P))


def eval_grid(triples, fused_mixture, n_1d=300, n_2d=40):
    """Evaluation points: a box-covering grid plus every component mean
    of the inputs and of the fused result."""
    lo, hi = mixture_box(triples)
    dim = lo.size
    if dim == 1:
        pts = np.linspace(lo[0], hi[0], n_1d)[:, None]
    else:
        pts = grid_points_2d(lo, hi, n_2d)
    extra = np.concatenate([np.atleast_2d(t[1]) for t in triples] + [fused_mixture.means])
    return np.concatenate([pts, extra])


def test_criterion_1_chernoff_fusion_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for pair in range(100):
        dim = 1 if pair % 2 == 0 else 2
        ta = random_mixture(rng, dim, max_comps=4)
        tb = random_mixture(rng, dim, max_comps=4)
        a, b = as_state(ta), as_state(tb)
        for omega in OMEGAS:
            res = fuse_chernoff(a, b, omega)
            pts = eval_grid([ta, tb], res.state.spatial)
            direct = mixture_values_vec(pts, *ta) ** (1.0 - omega) * mixture_values_vec(
                pts, *tb
            ) ** omega
            oracle = direct / direct.max()
            got = res.state.spatial.values(pts)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: closed-form Chernoff fusion vs normalized grid product, "
        f"max abs error {worst:.3e} (tol 1e-9), {elapsed:.1f}s (budget 60s)"
    )


def test_criterion_2_endpoints_and_idempotence():
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_q = 0.0
    for _ in range(25):
        ta = random_mixture(rng, 2, max_comps=4)
        tb = random_mixture(rng, 2, max_comps=4)
        a, b = as_state(ta), as_state(tb)
        assert fuse_chernoff(a, b, 0.0).state is a
        assert fuse_chernoff(a, b, 1.0).state is b
        lo, hi = mixture_box([ta])
        pts = np.column_stack([rng.uniform(lo[k], hi[k], size=80) for k in range(2)])
        base = a.spatial.values(pts)
        for omega in OMEGAS:
            res = fuse_chernoff(a, a, omega)
            worst = max(worst, float(np.max(np.abs(res.state.spatial.values(pts) - base))))
            worst_q = max(
                worst_q,
                abs(res.state.q_absent - a.q_absent),
                abs(res.state.q_present - a.q_present),
            )
    assert worst <= 1e-9
    assert worst_q <= 1e-9
    print(
        f"criterion 2 PASS: omega endpoints verbatim; self-fusion pointwise max error "
        f"{worst:.3e}, existence error {worst_q:.3e} (tol 1e-9)"
    )


def test_criterion_3_normalization_invariants():
    cfg = default_experiment()
    violations = 0
    total = 0
    worst = 0.0
    for run_idx in range(50):
        audit = []
        run_once(cfg, run_idx, "independent", audit=audit)
        for *_, state in audit:
            total += 1
            err = max(
                abs(max(state.q_absent, state.q_present) - 1.0),
                abs(state.spatial.max_weight - 1.0),
            )
            worst = max(worst, err)
            if err > 1e-12:
                violations += 1
    assert violations == 0
    print(
        f"criterion 3 PASS: {total} predicted/updated/fused states over 50 runs, "
        f"0 normalization violations (worst deviation {worst:.3e}, tol 1e-12)"
    )


def test_criterion_4_dependent_experiment(tmp_path):
    t0 = time.monotonic()
    cfg = default_experiment()
    assert cfg.runs == 100
    result = run_fusion_dependent(cfg, out_dir=tmp_path / "dep")
    agg = result.aggregate
    single = np.asarray(agg.mean_trace["single"])
    chern = np.asarray(agg.mean_trace["chernoff"])
    indep = np.asarray(agg.mean_trace["centralized"])
    window = slice(9, 50)
    rel = np.abs(chern[window] - single[window]) / single[window]
    ratio = indep[window] / single[window]
    elapsed = time.monotonic() - t0
    assert np.all(np.isfinite(single[window]))
    assert float(rel.max()) <= 0.05
    assert float(ratio.max()) < 0.7
    assert elapsed < 300.0
    print(
        f"criterion 4 PASS: dependent fusion over 100 runs, Chernoff trace within "
        f"{rel.max() * 100:.2f}% of single (tol 5%), independent-product ratio max "
        f"{ratio.max():.3f} (< 0.7), {elapsed:.1f}s (budget 300s)"
    )


def test_criterion_5_independent_experiment(tmp_path):
    t0 = time.monotonic()
    cfg = dataclasses.replace(default_experiment(), runs=200)
    result = run_fusion_independent(cfg, out_dir=tmp_path / "ind")
    agg = result.aggregate
    window = slice(9, 50)
    avg = {name: float(np.mean(agg.mean_ospa[name][window])) for name in agg.series}
    cutoff = cfg.metrics.ospa_cutoff
    worse = max(avg["sensor1"], avg["sensor2"])
    better = min(avg["sensor1"], avg["sensor2"])
    elapsed = time.monotonic() - t0
    assert avg["centralized"] <= avg["chernoff"]
    assert avg["chernoff"] <= better + 0.05 * cutoff
    assert avg["chernoff"] < worse
    assert avg["centralized"] < worse
    assert elapsed < 600.0
    print(
        f"criterion 5 PASS: independent fusion over 200 runs, step-averaged OSPA "
        f"centralized {avg['centralized']:.3f} <= chernoff {avg['chernoff']:.3f} <= "
        f"best sensor {better:.3f} + 0.5, both below worse sensor {worse:.3f}, "
        f"{elapsed:.1f}s (budget 600s)"
    )


def test_criterion_6_detection_transform():
    det = probability_interval_to_possibility(0.5, 1.0)
    assert det.detection == 1.0
    assert det.nondetection == 0.5
    print(
        "criterion 6 PASS: probability interval [0.5, 1] maps to detection "
        "possibility 1 and non-detection possibility 0.5 exactly"
    )


def test_criterion_7_oracle_suite():
    rng = np.random.default_rng(99)
    worst_sup = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        H = np.eye(dim) + rng.uniform(-0.3, 0.3, size=(dim, dim))
        A = rng.normal(size=(dim, dim)) * 0.5
        P = A @ A.T + np.eye(dim) * rng.uniform(0.5, 2.0)
        B = rng.normal(size=(dim, dim)) * 0.5
        R = B @ B.T + np.eye(dim) * rng.uniform(0.5, 2.0)
        m = rng.uniform(-3.0, 3.0, size=dim)
        z = H @ m + rng.uniform(-2.0, 2.0, size=dim)

        def fbatch(pts, H=H, R=R, m=m, P=P, z=z):
            lik = mixture_values_vec(z - pts @ H.T, [1.0], [np.zeros(len(z))], [R])
            prior = mixture_values_vec(pts, [1.0], [m], [P])
            return lik * prior

        oracle = refine_maximum_batch(fbatch, m - 30.0, m + 30.0)
        closed = sup_linear_gaussian_product(z, H, R, m, P)
        worst_sup = max(worst_sup, abs(closed - oracle))
    assert worst_sup <= 1e-6

    # The filter reports at most one estimate of at most one target, so the
    # scored sets hold 0 or 1 point; both closed forms are checked there.
    n_exact = 0
    for _ in range(300):
        nx, ny = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        X = [rng.uniform(-8, 8, size=2) for _ in range(nx)]
        Y = [rng.uniform(-8, 8, size=2) for _ in range(ny)]
        cutoff = float(rng.uniform(2.0, 12.0))
        want = ospa_permutations(X, Y, cutoff, 1.0)
        assert ospa(X, Y, cutoff, 1.0) == want
        estimates = [Estimate(np.array([y[0], 0.0, y[1], 0.0]), np.eye(4)) for y in Y] or [None]
        track = SeriesTrack(estimates, [1.0], [1.0], [1])
        record = RunRecord(truth_positions=X or [None], series={"s": track})
        assert score_run(record, cutoff).table[0, 0, 0] == want
        n_exact += 1
    print(
        f"criterion 7 PASS: linear-Gaussian supremum vs refined grid max error "
        f"{worst_sup:.3e} (tol 1e-6) on 50 instances; ospa and score_run == "
        f"permutation oracle on {n_exact} random pairs of sets of 0 or 1 point"
    )


def test_criterion_8_determinism(tmp_path, monkeypatch):
    args = ["fuse-independent", "--runs", "3", "--seed", "11"]
    monkeypatch.setenv("POSSFUSE_THREADS", "1")
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    files_a = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
    files_b = {p.name: p.read_bytes() for p in sorted((tmp_path / "b").iterdir())}
    assert files_a == files_b

    monkeypatch.setenv("POSSFUSE_THREADS", "2")
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    files_c = {p.name: p.read_bytes() for p in sorted((tmp_path / "c").iterdir())}
    assert files_a == files_c
    print(
        "criterion 8 PASS: byte-identical CSVs across repeated invocations and "
        "worker-pool sizes 1 and 2"
    )


@pytest.mark.parametrize(
    "command, omega",
    [
        ("single", None),
        ("fuse-independent", None),
        ("fuse-dependent", "fixed(0.5)"),
        ("fuse-dependent", "min-trace"),
    ],
    ids=["single-dump-scans", "fuse-independent", "fuse-dependent-fixed", "fuse-dependent-min-trace"],
)
def test_criterion_8_block_size(command, omega, tmp_path, monkeypatch):
    # Runs a pool task advances together: 1, 3 or 8 per block, at pool
    # sizes 1 and 2.  Every file is byte-identical to one run per block.
    doc = {"scenario": {"steps": 10, "death_step": 10}}
    if omega is not None:
        doc["fusion"] = {"omega_strategy": omega}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    args = [command, "--config", str(path), "--runs", "7", "--seed", "11"]
    if command == "single":
        args.append("--dump-scans")
    recurse = runner_mod._recurse
    blocks = []

    def recording(cfg, run_indices, mode, *rest):
        blocks.append(len(run_indices))
        return recurse(cfg, run_indices, mode, *rest)

    monkeypatch.setattr(runner_mod, "_recurse", recording)
    outputs = {}
    for block in (1, 3, 8):
        monkeypatch.setattr(runner_mod, "RUNS_PER_BLOCK", block)
        for workers in ("1", "2"):
            monkeypatch.setenv("POSSFUSE_THREADS", workers)
            blocks.clear()
            out = tmp_path / f"{block}-{workers}"
            assert main(args + ["--out", str(out)]) == 0
            outputs[block, workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if workers == "1":
                # The runs went through blocks of the patched size, with
                # --dump-scans too.
                assert blocks == {1: [1] * 7, 3: [3, 2, 2], 8: [7]}[block]
    assert ("scans.csv" in outputs[1, "1"]) == (command == "single")
    for key, files in outputs.items():
        assert files == outputs[1, "1"], key
    print(
        f"criterion 8 PASS ({command}{'' if omega is None else ' ' + omega}): byte-identical "
        "CSVs at 1, 3 and 8 runs per block and worker-pool sizes 1 and 2"
    )
