"""Unit tests for ``scripts/design_counters.py``'s counting rule."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "design_counters.py"

SOURCE = '''
import dataclasses
import typing
from dataclasses import dataclass, field
from typing import ClassVar, List


def plain(a, b=1, *args, c, d=2, **kwargs):
    return lambda x=3, *, y=4: x + y


async def fetch(timeout=5.0, *, retries=3):
    pass


@dataclass(frozen=True)
class Config:
    LIMIT: ClassVar[int] = 10
    name: str
    size: int = 4
    tags: List[str] = field(default_factory=list)

    def scaled(self, factor=2):
        return self.size * factor


@dataclasses.dataclass
class Other:
    KIND: typing.ClassVar[str] = "x"
    count: int = 0
    untyped = 5


class Plain:
    value: int = 7
'''


@pytest.fixture(scope="module")
def counters():
    """The design-counter module, imported from scripts/."""
    spec = importlib.util.spec_from_file_location("design_counters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_parameter_and_dataclass_defaults(counters):
    # plain: b, d; fetch: timeout, retries; scaled: factor -> 5 parameters.
    # Config: size, tags; Other: count -> 3 fields.  Not counted: the
    # lambda's x and y, both ClassVars, the unannotated ``untyped`` and
    # the plain class's attribute.
    assert counters.count_settable(SOURCE) == 8


def test_lines_are_newlines_summed_over_modules(counters):
    assert counters.design_counters(["a = 1\n", SOURCE]) == (
        1 + SOURCE.count("\n"),
        8,
    )


def test_cli_prints_both_counters(counters, tmp_path, capsys):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text("def f(x=1):\n    return x\n")
    assert counters.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "src_lines=2 settable=1"
