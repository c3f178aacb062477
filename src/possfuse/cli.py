"""Command line front end.

Subcommands map one-to-one onto the experiment drivers:

* ``possfuse single``: per-sensor filtering, no fusion;
* ``possfuse fuse-independent``: two sensors, fused each step;
* ``possfuse fuse-dependent``: one stream into one filter, whose posterior
  is fused with itself each step, as two identical filters would be;
* ``possfuse selftest``: closed-form fusion and supremum checks against
  brute-force grid evaluation.

Exit codes: 0 success, 2 configuration error (an output file that is a
directory or cannot be written included; no file of the set is
replaced), 3 numerical failure, 4 a
pool worker died (killed by a signal, as the kernel's out-of-memory
killer does) before every run had returned; the message names those runs.
143 (128 + SIGTERM): a SIGTERM while the pool runs; the command stops its
workers, which finish the blocks they hold, and writes no output file.
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
    WorkerDiedError,
    run_fusion_dependent,
    run_fusion_independent,
    run_single,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_WORKER_DIED = 4

# The run subcommands, in --help order: name -> (driver, help text).
RUN_COMMANDS = {
    "single": (run_single, "run each sensor's filter separately"),
    "fuse-independent": (run_fusion_independent, "fuse two filters fed by independent sensors"),
    "fuse-dependent": (
        run_fusion_dependent,
        "fuse one sensor's filter with itself, as two identical filters would be",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possfuse",
        description="Possibilistic Bernoulli filtering and track fusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in RUN_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON experiment configuration")
        p.add_argument("--runs", type=int, metavar="N", help="override Monte Carlo run count")
        p.add_argument("--seed", type=int, metavar="S", help="override the master seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument(
            "--dump-scans",
            action="store_true",
            help="also write scans.csv with every labelled measurement",
        )

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
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _report(result, stream) -> None:
    agg = result.aggregate
    print(f"{agg.runs} runs, {agg.steps} steps", file=stream)
    for name in agg.series:
        mean = float((agg.mean_ospa[name] / agg.steps).sum())
        print(f"  {name}: mean OSPA over run {mean:.4f}", file=stream)
    for f in sorted(result.files):
        print(f"  wrote {result.files[f]}", file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed", f"must not be negative, got {args.seed}")
        if args.command == "selftest":
            if args.pairs < 1:
                raise ConfigError("--pairs", f"must be at least 1, got {args.pairs}")
            return EXIT_OK if selftest(n_pairs=args.pairs, seed=args.seed) else EXIT_NUMERICS
        cfg = _load_config(args)
        driver, _ = RUN_COMMANDS[args.command]
        result = driver(cfg, out_dir=None, dump_scans=args.dump_scans)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    _report(result, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
