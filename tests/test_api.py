"""Every exported name resolves, so a stale re-export fails the suite."""

import importlib
import pkgutil

import pytest

import possfuse

MODULES = sorted(
    f"possfuse.{info.name}" for info in pkgutil.iter_modules(possfuse.__path__)
)


@pytest.mark.parametrize("module_name", ["possfuse", *MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} has no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"


def test_package_reexports_are_the_module_objects():
    for name in possfuse.__all__:
        if name == "__version__":
            continue
        obj = getattr(possfuse, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, f"possfuse.{name} is not {obj.__module__}.{name}"
        assert name in home.__all__, f"possfuse.{name} is not in {obj.__module__}.__all__"
