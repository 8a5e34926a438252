"""Exception hierarchy, and the one check every parameter dataclass runs.

A :class:`Params` dataclass (the config sections, ``GuidanceConfig``,
``DiffusionSchedule``, ``Confusion``, ``ExperimentConfig`` and the rest) runs
:func:`check_fields`: every field's type, then every field's rule, naming the
field first.  The type is the field's annotation: ``int``, ``float``, ``str``,
a ``Params`` class, or one of them ``| None``; numpy scalars of the right kind
pass, and a bool is never a number.  The rule is the :class:`Rule` the field
declares with :func:`param`: a range, or a list of choices (:func:`one_of`).
A class's ``__post_init__`` adds cross-field rules, or derives state from the
checked fields: a field holds a setting, and the ``schedule`` section,
``DiffusionSchedule``, builds its arrays from its own.  No ``Params`` class
derives from another.  ``RegionStats``, built once per energy pass, declares
its rules but is no ``Params``: entry points check a caller's copy.  A bare
argument is checked by :func:`require_ints`, :func:`require_floats`,
:func:`require_instance` and :func:`require`.
"""

import functools
import math
import sys
from dataclasses import MISSING, field
from numbers import Integral, Real
from typing import Callable, NamedTuple, get_args, get_type_hints


class LevelflowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LevelflowError):
    """A caller-supplied value violates a documented precondition."""


class FieldFormatError(InvalidInputError):
    """A field file is malformed; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DegenerateRegionError(LevelflowError):
    """One of the two regions carries (numerically) no mass."""


class DivergenceError(LevelflowError):
    """An iterative scheme blew up or failed to settle; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


def require(ok: bool, key: str, rule: str, value) -> None:
    """Reject a value that breaks its rule: ``<key> must be <rule>, got <value>``."""
    if not ok:
        raise InvalidInputError(f"{key} must be {rule}, got {value!r}")


class Rule(NamedTuple):
    """A test a value of the field's type must pass, and its text."""

    test: Callable[[object], bool]
    text: str


# int(v): an int past float64's range is below inf, and a float32 can't hold _F64_MAX.
_F64_MAX = sys.float_info.max
POSITIVE = Rule(lambda v: 0 < v < math.inf and int(v) <= _F64_MAX, "positive and finite")
NON_NEGATIVE = Rule(lambda v: 0 <= v < math.inf and int(v) <= _F64_MAX, "non-negative and finite")
AT_LEAST_1 = Rule(lambda v: v >= 1, "at least 1")
FINITE = Rule(lambda v: -math.inf < v < math.inf and abs(int(v)) <= _F64_MAX, "finite")


def one_of(choices: tuple[str, ...]) -> Rule:
    """A choice from a list, worded as the CLI words it."""
    return Rule(lambda v: v in choices, f"one of {', '.join(choices)}")


def param(default=MISSING, rule: Rule | None = None):
    """A dataclass field whose value must pass ``rule``."""
    return field(default=default, metadata={"rule": rule})


# annotation -> (the types taken as they are, the kind a numpy scalar must be)
_KINDS = {"int": ((int,), Integral), "float": ((float, int), Real), "str": ((str,), str)}
_TYPES = {**_KINDS, **{f"{k} | None": (e + (type(None),), n) for k, (e, n) in _KINDS.items()}}
_hints = functools.cache(get_type_hints)  # any other annotation is a class (| None), resolved once


def _check_type(key: str, annotation: str, value) -> None:
    exact, kind = _TYPES[annotation]
    # bool is an int subclass, but True is not a number
    if type(value) not in exact and (isinstance(value, bool) or not isinstance(value, kind)):
        raise InvalidInputError(f"{key} expects {annotation}, got {value!r}")


def require_ints(**values) -> None:
    """Reject a bare argument that is not an int, naming its key first."""
    for key, value in values.items():
        _check_type(key, "int", value)


def require_floats(**values) -> None:
    """Reject a bare argument that is not a real number, naming its key first."""
    for key, value in values.items():
        _check_type(key, "float", value)


def require_instance(key: str, value, *kinds: type) -> None:
    """Reject a bare argument that is none of ``kinds``, naming its key and the first kind."""
    if not isinstance(value, kinds):
        raise InvalidInputError(f"{key} expects {kinds[0].__name__}, got {value!r}")


def check_fields(obj) -> None:
    """Check each field of dataclass ``obj``: its type, then its rule, naming the field."""
    checks = obj.__dataclass_fields__.values()
    for f in checks:
        value = getattr(obj, f.name)
        if f.type in _TYPES:
            _check_type(f.name, f.type, value)
        else:  # a class, or a class | None
            hint = _hints(type(obj))[f.name]
            require_instance(f.name, value, *(get_args(hint) or (hint,)))
    for f in checks:
        rule, value = f.metadata.get("rule"), getattr(obj, f.name)
        if rule is not None and value is not None:
            require(rule.test(value), f.name, rule.text, value)


class Params:
    """Base of the parameter dataclasses: each instance runs :func:`check_fields`."""

    def __post_init__(self):
        check_fields(self)
