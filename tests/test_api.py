"""Every exported name resolves, so a stale re-export fails the suite."""

import importlib
import pkgutil

import pytest

import possfuse

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
