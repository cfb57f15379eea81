"""The package namespace: the public names of its modules, each listed once."""

import importlib
import inspect
import sys

import spectralqm

MODULES = ("grids", "operators", "evolution", "checks", "scenarios")


def _defined_public(module):
    """The public functions and classes that a module defines itself."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__}


def test_package_exports_exactly_the_modules_public_names():
    modules = [importlib.import_module(f"spectralqm.{name}") for name in MODULES]
    # each module's __all__ names what it defines in public, so every listed
    # name resolves and a name dropped from a list fails here
    assert {m.__name__: set(m.__all__) for m in modules} == {
        m.__name__: _defined_public(m) for m in modules}
    # the imported submodules are attributes of the package too
    submodules = set(MODULES) | ({"cli"} if "spectralqm.cli" in sys.modules else set())
    public = {name for name in vars(spectralqm) if not name.startswith("_") or name == "__version__"}
    assert public == (set().union(*(module.__all__ for module in modules))
                      | submodules | {"__version__"})
