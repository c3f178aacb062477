"""Command line front end.

Subcommands map one-to-one onto the experiment drivers:

* ``possfuse single``: per-sensor filtering, no fusion;
* ``possfuse fuse-independent``: two sensors, fused each step;
* ``possfuse fuse-dependent``: one stream into one filter, whose posterior
  is fused with itself each step, as two identical filters would be;
* ``possfuse selftest``: closed-form fusion and supremum checks against
  brute-force grid evaluation.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .config import ConfigError, ExperimentConfig, default_experiment, load_experiment
from .fusion import selftest
from .runner import (
    NumericsError,
    run_fusion_dependent,
    run_fusion_independent,
    run_single,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possfuse",
        description="Possibilistic Bernoulli filtering and track fusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="FILE", help="JSON experiment configuration")
        p.add_argument("--runs", type=int, metavar="N", help="override Monte Carlo run count")
        p.add_argument("--seed", type=int, metavar="S", help="override the master seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument(
            "--dump-scans",
            action="store_true",
            help="also write scans.csv with every labelled measurement",
        )

    p_single = sub.add_parser("single", help="run each sensor's filter separately")
    add_run_flags(p_single)

    p_ind = sub.add_parser(
        "fuse-independent", help="fuse two filters fed by independent sensors"
    )
    add_run_flags(p_ind)

    p_dep = sub.add_parser(
        "fuse-dependent",
        help="fuse one sensor's filter with itself, as two identical filters would be",
    )
    add_run_flags(p_dep)

    p_self = sub.add_parser("selftest", help="check closed forms against grid evaluation")
    p_self.add_argument("--pairs", type=int, default=12, metavar="N",
                        help="random fusion instances per check (default 12)")
    p_self.add_argument("--seed", type=int, default=2024, metavar="S")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_experiment(args.config) if args.config else default_experiment()
    if args.runs is not None:
        if args.runs < 1:
            raise ConfigError("--runs", f"must be at least 1, got {args.runs}")
        cfg = replace(cfg, runs=args.runs)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed", f"must not be negative, got {args.seed}")
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _report(result, stream) -> None:
    agg = result.aggregate
    print(f"{agg.runs} runs, {agg.steps} steps", file=stream)
    for name in agg.series:
        mean = sum(agg.mean_ospa[name]) / agg.steps
        print(f"  {name}: mean OSPA over run {mean:.4f}", file=stream)
    for f in sorted(result.files):
        print(f"  wrote {result.files[f]}", file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            try:
                passed = selftest(n_pairs=args.pairs, seed=args.seed)
            except ConfigError as exc:
                # selftest names its parameters; report the flag that set one.
                flag = {"n_pairs": "--pairs", "seed": "--seed"}[exc.path]
                raise ConfigError(flag, exc.message) from None
            return EXIT_OK if passed else EXIT_NUMERICS
        cfg = _load_config(args)
        driver = {
            "single": run_single,
            "fuse-independent": run_fusion_independent,
            "fuse-dependent": run_fusion_dependent,
        }[args.command]
        result = driver(cfg, out_dir=None, dump_scans=args.dump_scans)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    _report(result, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
