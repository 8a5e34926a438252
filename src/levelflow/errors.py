"""Exception hierarchy shared by all levelflow modules."""

from numbers import Integral


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
    """Reject a parameter that breaks its range rule, naming the key first."""
    if not ok:
        raise InvalidInputError(f"{key} must be {rule}, got {value!r}")


def require_ints(**values) -> None:
    """Reject a bool or non-integral value of an int parameter (numpy ints pass)."""
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidInputError(f"{key} must be an int, got {value!r}")
