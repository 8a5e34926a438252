"""Every function and class the package exports has a caller inside it,
every module-level function is referenced inside it, and every defaulted
parameter of a module-level function has a caller that sets it.

An export that only tests call is dead code with a public name, a private
helper that nothing references is left-over code, and a parameter that no
caller sets is an option nothing uses; these guards keep new ones from
appearing.  A function that checks two or more of its fields does so with
one ``as_fields`` call, not one ``as_field`` call per field, and a
dataclass that an exported function takes as a parameter is a ``Params``,
so its fields are checked where it is built.  The package runs no linter,
so the last guards hold its modules to 99 columns and to module-level
imports they read.
"""

import ast
import inspect
import typing
from dataclasses import is_dataclass
from pathlib import Path

import pytest

import levelflow as lf
from levelflow.errors import Params

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
NAMES = {f.name for f in FUNCTIONS}


def _registered(f) -> bool:
    """Whether one of the package's own decorators takes ``f`` (the CLI's ``_cmd_*``).

    Such a decorator registers the function, which is its reference; a
    wrapper from outside the package, such as ``lru_cache``, is not one.
    """
    return any(getattr(getattr(d, "func", d), "id", None) in NAMES for d in f.decorator_list)


def test_every_module_level_function_is_referenced():
    orphans = sorted(f.name for f in FUNCTIONS if f.name not in REFERENCED and not _registered(f))
    assert not orphans, f"module-level functions nothing in the package references: {orphans}"


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


def _as_field_parameters(f) -> set:
    """The parameters of ``f`` whose values reach an ``as_field`` call in its
    body, directly or through a local assigned from them."""
    roots = {a.arg: {a.arg} for a in ast.walk(f.args) if isinstance(a, ast.arg)}

    def reached(expr) -> set:
        names = [n.id for n in ast.walk(expr) if isinstance(n, ast.Name)]
        return set().union(*(roots.get(name, set()) for name in names))

    assigns = sorted((n for n in ast.walk(f) if isinstance(n, ast.Assign)), key=lambda n: n.lineno)
    for node in assigns:
        for target in node.targets:
            for name in (n.id for n in ast.walk(target) if isinstance(n, ast.Name)):
                roots[name] = roots.get(name, set()) | reached(node.value)
    calls = [
        n for n in ast.walk(f)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "as_field"
    ]
    return set().union(*(reached(call.args[0]) for call in calls))


# Functions that pass two or more of their parameters through as_field, each
# kept on purpose; none is.
SEPARATE_AS_FIELD_ALLOWED: set = set()


def test_fields_are_checked_with_one_as_fields_call():
    functions = [n for tree in TREES for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    separate = {f.name for f in functions if len(_as_field_parameters(f)) >= 2}
    new = sorted(separate - SEPARATE_AS_FIELD_ALLOWED)
    assert not new, (
        "functions that check two or more of their fields with separate as_field calls "
        f"(use one as_fields call, or allow it here with its reason): {new}"
    )
    # an allowance outlives its reason once the function checks one field
    assert SEPARATE_AS_FIELD_ALLOWED <= separate


# Package dataclasses that a parameter of an exported function or method
# takes, and that are no Params, each kept on purpose.
PLAIN_PARAMETER_CLASSES_ALLOWED = {
    # one is built per energy pass; energy_total and grad_energy_wrt_mask run
    # check_fields on a caller's statistics instead
    "RegionStats",
    # refine checks its weights against the mask it refines
    "AffinityKernel",
}


def _exported_callables():
    """Each exported function, and each public method of an exported class."""
    for name in EXPORTS:
        obj = getattr(lf, name)
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            methods = (getattr(m, "__func__", m) for k, m in vars(obj).items() if k[0] != "_")
            yield from (m for m in methods if inspect.isfunction(m))


def _plain_parameter_classes() -> set:
    """Names of the package dataclasses, no Params, that annotate a parameter
    (not a return) of an exported function or method."""
    plain = set()
    for f in _exported_callables():
        hints = typing.get_type_hints(f)
        hints.pop("return", None)
        for hint in hints.values():
            for kind in typing.get_args(hint) or (hint,):
                packaged = is_dataclass(kind) and kind.__module__.startswith("levelflow")
                if packaged and not issubclass(kind, Params):
                    plain.add(kind.__name__)
    return plain


def test_parameter_dataclasses_are_params():
    plain = _plain_parameter_classes()
    new = sorted(plain - PLAIN_PARAMETER_CLASSES_ALLOWED)
    assert not new, (
        "dataclasses that exported functions take as parameters but that run no field check "
        f"(make each a Params, or allow it here with its reason): {new}"
    )
    # an allowance outlives its reason once the class is a Params or no parameter takes it
    assert PLAIN_PARAMETER_CLASSES_ALLOWED <= plain


MAX_COLUMNS = 99
MODULES = sorted(Path(lf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_too_wide(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [n for n, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert not wide, f"{path.name}: lines over {MAX_COLUMNS} columns: {wide}"


# __init__.py imports names to export them, so it is left out
@pytest.mark.parametrize("path", sorted(SOURCES), ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - read, f"{path.name} never reads {sorted(imported - read)}"
