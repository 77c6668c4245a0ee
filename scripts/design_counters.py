#!/usr/bin/env python
"""Print the package's design counters: source lines and settable values.

Usage::

    python scripts/design_counters.py [SRC]

``SRC`` defaults to ``src`` beside this script's directory.  Prints one
line, ``src_lines=N settable=M``:

- ``src_lines`` is the newline count over ``SRC/repro/**/*.py``;
- ``settable`` counts every value a caller can set without editing the
  code: each default of a positional or keyword-only parameter of a
  ``def`` or ``async def`` (lambdas are not counted), plus each annotated
  field with a default in a ``@dataclass`` class (``ClassVar`` fields are
  not counted).

A change that deletes a parallel path or an option should lower one or
both; each change reports them before and after.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Tuple


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def count_settable(source: str) -> int:
    """Settable values declared in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(item, ast.AnnAssign)
                and item.value is not None
                and not _is_classvar(item.annotation)
                for item in node.body
            )
    return count


def design_counters(sources: Iterable[str]) -> Tuple[int, int]:
    """``(src_lines, settable)`` over the given module sources."""
    lines = settable = 0
    for source in sources:
        lines += source.count("\n")
        settable += count_settable(source)
    return lines, settable


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src"
    paths = sorted((src / "repro").rglob("*.py"))
    if not paths:
        print(f"no modules under {src / 'repro'}", file=sys.stderr)
        return 2
    lines, settable = design_counters(
        path.read_text(encoding="utf-8") for path in paths
    )
    print(f"src_lines={lines} settable={settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
