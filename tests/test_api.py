"""Every exported name resolves, so a stale re-export fails the suite;
every private name has a caller in the package, so code only its own
tests use fails it too; and the names the benchmark harness reads keep
their shape."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import possfuse
from possfuse.bernoulli import Estimate
from possfuse.metrics import RunRecord, SeriesTrack, ospa, score_run

MODULES = sorted(
    f"possfuse.{info.name}" for info in pkgutil.iter_modules(possfuse.__path__)
)
# The command line front end is imported on its own, not re-exported.
REEXPORTED = [name for name in MODULES if name != "possfuse.cli"]


@pytest.mark.parametrize("module_name", ["possfuse", *MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} has no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"


def test_package_reexports_are_the_module_objects():
    # A constant such as OMEGA_GRID has no __module__, so each name's home
    # is the one module whose __all__ lists it.
    homes = {}
    for module_name in REEXPORTED:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            homes.setdefault(name, []).append(module)
    assert set(possfuse.__all__) == {"__version__", *homes}
    for name, modules in homes.items():
        assert len(modules) == 1, f"{name} is exported by {[m.__name__ for m in modules]}"
        (home,) = modules
        assert getattr(possfuse, name) is getattr(home, name), f"possfuse.{name} is not {home.__name__}.{name}"


def private_definitions(tree):
    """(name, node) for each single-underscore module-level function, class
    and constant of a module's tree, and each single-underscore method."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_has_a_caller():
    # A reference is a loaded Name or Attribute anywhere in the package,
    # outside the definition itself; an import alone is not one.
    trees = [ast.parse(path.read_text()) for path in sorted(Path(possfuse.__file__).parent.glob("*.py"))]
    references = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
    definitions = [d for tree in trees for d in private_definitions(tree)]
    assert len(definitions) > 50
    unused = []
    for name, definition in definitions:
        inside = set(map(id, ast.walk(definition)))
        if all(id(ref) in inside for ref in references.get(name, [])):
            unused.append(name)
    assert not unused, f"private names no code in the package reads: {unused}"


def test_underflow_rule_has_one_owner():
    # Which components a computed mixture keeps is decided in gaussmax
    # alone: GaussianMaxMixture._derived and the fusion kernel.
    outside = []
    for path in sorted(Path(possfuse.__file__).parent.glob("*.py")):
        if path.name == "gaussmax.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # A Name, an Attribute, an imported alias or a definition.
            if "_surviving" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                outside.append(f"{path.name}:{node.lineno}")
    assert not outside, f"_surviving is referenced outside gaussmax.py: {outside}"


@pytest.mark.parametrize(
    "name", ["predict", "update", "reduce", "select_omega", "fuse_chernoff", "fuse_independent"]
)
def test_one_staged_hand_in_per_operation(name):
    # A block stage's entry, or a fused pair's product table, reaches its
    # operation through one keyword, so a later stage extends that entry
    # instead of adding a second keyword.
    parameters = inspect.signature(getattr(possfuse, name)).parameters.values()
    assert [p.name for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY] == ["staged"]


def test_benchmark_harness_pins():
    """What possbench reads of the package, checked here because the tier-1
    suite does not run possbench's own tests: its span paths, a SeriesTrack
    built from four positional fields, and metrics.ospa on sets of 0 or 1
    point, equal to score_run's OSPA row.  ROADMAP item 16 (one fusion
    call per step, no SeriesTrack.n_components) will change this contract
    together with the harness."""
    path = Path(__file__).resolve().parents[1] / "possbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("possbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for name, attr_path in tracing.SPANS:
        owner, attr = tracing._resolve(attr_path)
        if owner is None or not hasattr(owner, attr):
            unresolved.add(name)
    # The package has no fusion.reduce or runner.aggregate; the harness
    # reports zero calls for them.
    assert unresolved <= {"fusion.reduce", "metrics.aggregate"}

    rng = np.random.default_rng(5)
    truth, estimates, want = [], [], []
    for k in range(40):
        t = rng.uniform(0, 20, 2) if k % 3 else None
        e = Estimate(rng.uniform(0, 20, 4), np.eye(4)) if k % 4 else None
        truth.append(t)
        estimates.append(e)
        want.append(ospa([t] if t is not None else [], [e.mean[[0, 2]]] if e is not None else [], 10.0, 1.0))
    track = SeriesTrack(estimates, [1.0] * 40, [1.0] * 40, [1] * 40)
    assert track.estimates is estimates
    got = score_run(RunRecord(truth, {"s": track}), 10.0).table[0, 0]
    assert got.tolist() == want
