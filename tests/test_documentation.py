"""Documentation coverage: every public item carries a docstring.

The README promises doc comments on every public item; this test makes
that promise executable.  It also checks that every name a module
exports in ``__all__`` resolves.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_public_classes_and_functions_documented():
    undocumented = []
    for module_name in ALL_MODULES:
        module = importlib.import_module(module_name)
        for name, item in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if getattr(item, "__module__", None) != module_name:
                continue  # re-export; documented at its definition site
            if not inspect.getdoc(item):
                undocumented.append(f"{module_name}.{name}")
            elif inspect.isclass(item):
                for method_name, method in vars(item).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not inspect.getdoc(method):
                        undocumented.append(
                            f"{module_name}.{name}.{method_name}"
                        )
    assert not undocumented, "\n".join(undocumented)


def test_every_export_resolves():
    """Each ``__all__`` name resolves, lazy PEP 562 exports included."""
    unresolved = []
    for module_name in ["repro", *ALL_MODULES]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            try:
                getattr(module, name)
            except AttributeError:
                unresolved.append(f"{module_name}.{name}")
    assert not unresolved, "\n".join(unresolved)
