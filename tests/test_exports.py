"""Every function and class the package exports has a caller inside it,
and every defaulted parameter of a module-level function has a caller that
sets it.

An export that only tests call is dead code with a public name, and a
parameter that no caller sets is an option nothing uses; these guards keep
new ones from appearing.
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


# Defaulted parameters that no call in the package sets, each kept on purpose.
UNSET_ALLOWED = {
    # the console entry point calls main() with no argument, which reads sys.argv
    ("main", "argv"),
    # acceptance C2 passes frozen statistics to check the gradient against
    # finite differences of an energy whose statistics do not move
    ("grad_energy_wrt_mask", "stats"),
}


TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
FUNCTIONS = [
    node for tree in TREES for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
]


def _unset_defaulted_parameters() -> set:
    """(function, parameter) of each defaulted parameter that no call in the package sets.

    A call is matched to a module-level function by the called name alone.
    It sets the parameters it passes by position or by keyword; a call that
    unpacks ``*args`` or ``**kwargs`` sets every parameter.
    """
    unset = set()
    for f in FUNCTIONS:
        a = f.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        unset.update((f.name, p.arg) for p in defaulted)
    calls = [node for tree in TREES for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for call in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            unset = {(f, p) for f, p in unset if f != name}
            continue
        passed = {kw.arg for kw in call.keywords}
        for f in FUNCTIONS:
            if f.name == name:
                positional = f.args.posonlyargs + f.args.args
                passed.update(p.arg for p in positional[: len(call.args)])
        unset -= {(name, p) for p in passed}
    return unset


def test_every_defaulted_parameter_is_set_by_some_caller():
    unset = _unset_defaulted_parameters()
    new = sorted(unset - UNSET_ALLOWED)
    assert not new, (
        "defaulted parameters that no call in the package sets (make each a constant, "
        f"or allow it here with its reason): {', '.join(f'{f}({p})' for f, p in new)}"
    )
    # an allowance outlives its reason once the parameter goes or gets a caller
    assert UNSET_ALLOWED <= unset
