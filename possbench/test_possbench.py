"""Self-tests for the benchmark harness at tiny run counts.

Run from the root of a checkout:

    python3 -m pytest possbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7
RUNS = 4


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)[:2]
    assert SPEC["command"] == ["python3", "possbench/run.py"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    result = run.measure(name, SEED, 0.0, trace=False, out_root=tmp_path, runs=RUNS)
    assert result["correct"]
    assert result["failed"] == 0
    # One CLI invocation plus the reference run.
    assert result["attempted"] == 2 * RUNS
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run.measure("dependent-mintrace", SEED, 0.0, trace=True, out_root=tmp_path, runs=2)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == _names("per_layer")
    assert metrics["runner.run_once.calls"] == 2
    assert metrics["fusion.select_omega.calls"] == 2 * 50
    assert metrics["fusion.cross_pairs"] > 19 * metrics["fusion.select_omega.calls"]
    assert (tmp_path / "dependent-mintrace" / "spans.csv").exists()


def _checked_bench(name: str, tmp_path: Path):
    """A tiny CLI run plus its reference run, checks passing."""
    bench = run.Bench(run.WORKLOADS[name], SEED, tmp_path, runs=RUNS)
    assert bench.cli() is not None
    assert bench.check([run._digests(bench.cli_dir)]) == []
    return bench, bench.reference()


def _rewrite(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_ospa_csv_fails_the_checks(tmp_path):
    bench, ref = _checked_bench("independent-default", tmp_path)
    path = bench.cli_dir / "ospa.csv"
    old = float(path.read_text().splitlines()[20].split(",")[2])
    _rewrite(path, 20, 2, repr(old + 1e-6))
    failures = checks.check_tables(ref.records, bench.cfg.metrics.ospa_cutoff, bench.cli_dir)
    assert any("ospa.csv" in f for f in failures)


def test_corrupted_trace_csv_fails_the_dependent_checks(tmp_path):
    bench, ref = _checked_bench("dependent-mintrace", tmp_path)
    path = bench.cli_dir / "trace.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        step, series, value, count = line.split(",")
        if series == "chernoff" and value != "nan" and int(step) >= 10:
            _rewrite(path, i, 2, repr(10.0 * float(value)))
    assert any("chernoff" in f for f in checks.check_dependent(ref, bench.cli_dir))


def test_corrupted_scans_csv_fails_the_checks(tmp_path):
    bench, ref = _checked_bench("single-clutter", tmp_path)
    path = bench.cli_dir / "scans.csv"
    row = next(i for i, line in enumerate(path.read_text().splitlines()) if line.endswith(",1"))
    _rewrite(path, row, 3, "-5.0")
    failures = checks.check_scans(ref, bench.cfg, bench.cli_dir)
    assert any("outside the region" in f for f in failures)


def test_fused_pair_recomputation_matches_the_package():
    from possfuse.bernoulli import BernoulliPossState
    from possfuse.fusion import fuse_chernoff, fuse_independent
    from possfuse.gaussmax import GaussianMaxMixture

    rng = np.random.default_rng(3)

    def state():
        n = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, n)
        w[0] = 1.0
        A = rng.normal(size=(n, 4, 4))
        covs = A @ A.transpose(0, 2, 1) + np.eye(4)
        q = rng.uniform(0.1, 1.0)
        return BernoulliPossState(1.0, q, GaussianMaxMixture(w, rng.normal(size=(n, 4)), covs))

    for _ in range(20):
        a, b = state(), state()
        fused = fuse_chernoff(a, b, 0.3).state
        assert np.allclose(checks.fused_pair(a, b, 0.7, 0.3), (fused.q_absent, fused.q_present),
                           rtol=0, atol=checks.FUSION_TOL)
        fused = fuse_independent(a, b).state
        assert np.allclose(checks.fused_pair(a, b, 1.0, 1.0), (fused.q_absent, fused.q_present),
                           rtol=0, atol=checks.FUSION_TOL)


def test_closed_form_ospa_matches_the_general_definition():
    from possfuse.bernoulli import Estimate
    from possfuse.metrics import RunRecord, SeriesTrack, ospa

    rng = np.random.default_rng(5)
    truth, estimates, want = [], [], []
    for k in range(40):
        t = rng.uniform(0, 20, 2) if k % 3 else None
        e = Estimate(rng.uniform(0, 20, 4), np.eye(4)) if k % 4 else None
        truth.append(t)
        estimates.append(e)
        want.append(ospa([t] if t is not None else [], [e.mean[[0, 2]]] if e is not None else [], 10.0, 1.0))
    track = SeriesTrack(estimates, [1.0] * 40, [1.0] * 40, [1] * 40)
    got = checks.expected_tables([RunRecord(truth, {"s": track})], 10.0)["s"]["mean_ospa"]
    assert all(math.isclose(g, w, rel_tol=0, abs_tol=1e-12) for g, w in zip(got, want))


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "possbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "possbench/run.py", "--workload", "single-clutter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
