"""Every example compiles and imports only what the package provides.

The examples train their own models, so tier-1 does not run them.  This
walks their syntax trees instead: a rename or deletion in ``src/`` that
an example still relies on fails here rather than in a user's shell.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def _repro_imports(tree: ast.AST):
    """``(module, name)`` for each ``repro`` import; ``name`` is ``None``
    for a plain ``import repro...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def _resolves(module_name: str, name) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    # ``from repro.pkg import submodule`` names a module, not an attribute.
    return importlib.util.find_spec(f"{module_name}.{name}") is not None


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_compiles_and_its_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    imports = list(_repro_imports(tree))
    assert imports, f"{path.name} imports nothing from repro"
    missing = [
        module if name is None else f"{module}.{name}"
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name} imports what repro does not provide: {missing}"
