"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces, for the length of a ``with`` block, the public names
that ``possfuse.runner`` and ``possfuse.fusion`` look up at call time, plus
``GaussianMaxMixture.__init__``.  Each call records one span (name, start,
end, parent span) in memory; nothing is written until the caller asks.
Hooks may observe a call's arguments and result, which is how the
correctness checks see every state the recursion produces without any
change to the package.

A name that a later version of the package no longer has is skipped: its
span then reports zero calls instead of breaking the benchmark.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# (span name, module attribute path).  The span name is "<layer>.<fn>";
# runner.reduce is the filter-side reduce, fusion.reduce the one fusion
# calls after building the all-pairs mixture.
SPANS = (
    ("simulate.generate_truth", "runner.generate_truth"),
    ("simulate.generate_labeled_measurements", "runner.generate_labeled_measurements"),
    ("simulate.build_birth_mixture", "runner.build_birth_mixture"),
    ("bernoulli.predict", "runner.predict"),
    ("bernoulli.update", "runner.update"),
    ("bernoulli.reduce", "runner.reduce"),
    ("bernoulli.extract", "runner.extract"),
    ("fusion.fuse_chernoff", "runner.fuse_chernoff"),
    ("fusion.fuse_independent", "runner.fuse_independent"),
    ("fusion.select_omega", "runner.select_omega"),
    ("fusion.reduce", "fusion.reduce"),
    ("gaussmax.mixture_new", "gaussmax.GaussianMaxMixture.__init__"),
    ("metrics.aggregate", "runner.aggregate"),
    ("runner.run_once", "runner.run_once"),
)
SPAN_NAMES = tuple(name for name, _ in SPANS)

# A hook sees one call's positional arguments, keyword arguments and result.
Hook = Callable[[tuple, dict, object], None]


def _resolve(path: str):
    """(owner object, attribute name) for "module.attr" or "module.Class.attr"."""
    import possfuse.fusion
    import possfuse.gaussmax
    import possfuse.runner

    modules = {"runner": possfuse.runner, "fusion": possfuse.fusion, "gaussmax": possfuse.gaussmax}
    head, *rest = path.split(".")
    owner = modules[head]
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, rest[-1]
    return owner, rest[-1]


class Tracer:
    """Records spans while installed; one instance per traced round."""

    def __init__(self, hooks: Optional[dict[str, list[Hook]]] = None):
        self.hooks = hooks or {}
        # Parallel lists keep the per-call cost to a few appends.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hooks = tuple(self.hooks.get(name, ()))
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            for hook in hooks:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, path in SPANS:
            owner, attr = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, object]]:
        """Per span name: call count, inclusive seconds, self seconds and
        the list of inclusive durations."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        dur = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        out = {}
        for name in SPAN_NAMES:
            idx = np.asarray(by_name.get(name, []), dtype=np.int64)
            out[name] = {
                "calls": int(idx.size),
                "total_s": float(dur[idx].sum()),
                "self_s": float(self_time[idx].sum()),
                "durations": dur[idx],
            }
        return out

    def write_csv(self, path, round_index: int, append: bool) -> None:
        """Write the raw spans; times are relative to the first span."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            if not append:
                fh.write("round,span,name,parent,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{round_index},{i},{name},{self.parents[i]},"
                    f"{self.starts[i] - base:.9f},{self.ends[i] - base:.9f}\n"
                )


class WorkCounter:
    """Work done at the layer boundaries, counted from calls and results."""

    def __init__(self, omega_trials: int):
        self.omega_trials = omega_trials
        self.scan_points = 0
        self.update_components_out = 0
        self.reduce_components_in = 0
        self.reduce_components_out = 0
        self.cross_pairs = 0
        self.mixture_components = 0

    def _scans(self, args, kwargs, labeled) -> None:
        self.scan_points += sum(scan.points.shape[0] for scan, _ in labeled)

    def _update(self, args, kwargs, state) -> None:
        self.update_components_out += state.spatial.n_components

    def _reduce(self, args, kwargs, mixture) -> None:
        self.reduce_components_in += args[0].n_components
        self.reduce_components_out += mixture.n_components

    def _fuse(self, args, kwargs, result) -> None:
        self.cross_pairs += args[0].spatial.n_components * args[1].spatial.n_components

    def _select_omega(self, args, kwargs, omega) -> None:
        pairs = args[0].spatial.n_components * args[1].spatial.n_components
        self.cross_pairs += self.omega_trials * pairs

    def _mixture(self, args, kwargs, result) -> None:
        self.mixture_components += args[0].n_components

    def hooks(self) -> dict[str, list[Hook]]:
        return {
            "simulate.generate_labeled_measurements": [self._scans],
            "bernoulli.update": [self._update],
            "bernoulli.reduce": [self._reduce],
            "fusion.fuse_chernoff": [self._fuse],
            "fusion.fuse_independent": [self._fuse],
            "fusion.select_omega": [self._select_omega],
            "gaussmax.mixture_new": [self._mixture],
        }

    def metrics(self) -> dict[str, float]:
        kept = self.reduce_components_out / max(self.reduce_components_in, 1)
        return {
            "simulate.scan_points": self.scan_points,
            "bernoulli.update.components_out": self.update_components_out,
            "bernoulli.reduce.components_in": self.reduce_components_in,
            "bernoulli.reduce.components_out": self.reduce_components_out,
            "bernoulli.reduce.kept_ratio": kept,
            "fusion.cross_pairs": self.cross_pairs,
            "gaussmax.mixture_new.components": self.mixture_components,
        }

