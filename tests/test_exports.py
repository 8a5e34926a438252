"""Every function and class the package exports has a caller inside it.

An export that only tests call is dead code with a public name; this guard
keeps new ones from appearing.
"""

import ast
import inspect
from pathlib import Path

import pytest

import levelflow as lf

SOURCES = [p for p in Path(lf.__file__).parent.glob("*.py") if p.name != "__init__.py"]


def _referenced_names() -> set:
    """Every name and attribute read anywhere in the package's modules."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


REFERENCED = _referenced_names()
EXPORTS = sorted(
    name for name in lf.__all__
    if inspect.isfunction(getattr(lf, name)) or inspect.isclass(getattr(lf, name))
)


@pytest.mark.parametrize("name", EXPORTS)
def test_export_has_a_caller_in_the_package(name):
    # a def or class statement is not a Name node, so a definition alone
    # does not count as a reference
    assert name in REFERENCED, f"levelflow.{name} is exported but nothing in the package uses it"
