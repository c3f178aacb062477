"""Golden outputs: the CLI's CSVs for six small experiments, byte for byte.

Each case runs one subcommand for 3 runs at master seed 11 and compares
every file it writes with the copy under tests/golden/<case>/.  A change
that alters any output byte fails here; if the change is meant to alter
outputs, regenerate the goldens with the same command lines, e.g.

    possfuse fuse-dependent --runs 3 --seed 11 --config CFG --out tests/golden/fuse-dependent-mintrace

where CFG holds {"fusion": {"omega_strategy": "min-trace"}}, and say why
in the commit.  Both pool sizes must give the same bytes.
"""

import json
from pathlib import Path

import pytest

from possfuse.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fuse-independent": (["fuse-independent"], None),
    # An omega off the min-trace grid, so its fusion cannot share rows with
    # a search.
    "fuse-independent-fixed037": (["fuse-independent"], {"fusion": {"omega_strategy": "fixed(0.37)"}}),
    "fuse-dependent-mintrace": (["fuse-dependent"], {"fusion": {"omega_strategy": "min-trace"}}),
    # Heavy clutter on both sensors: searches over more pairs than one
    # product table holds, and large covariance stacks to condition.
    "fuse-dependent-mintrace-clutter20": (
        ["fuse-dependent"],
        {
            "scenario": {"sensors": [
                {"pd_true": 0.8, "noise_var": 2.0, "clutter_rate": 20.0},
                {"pd_true": 0.6, "noise_var": 2.0, "clutter_rate": 20.0},
            ]},
            "fusion": {"omega_strategy": "min-trace"},
        },
    ),
    "fuse-dependent-fixed": (["fuse-dependent", "--dump-scans"], None),
    "single": (["single", "--dump-scans"], None),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POSSFUSE_THREADS", threads)
    argv, config = CASES[case]
    out = tmp_path / "out"
    args = [*argv, "--runs", "3", "--seed", "11", "--out", str(out)]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(cfg_path)]
    assert main(args) == 0
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
