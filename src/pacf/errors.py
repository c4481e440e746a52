"""Exception types shared across the package, the mapping of a malformed JSON
document onto :class:`ParseError`, and the typing rule of config fields."""

from dataclasses import fields
from numbers import Integral, Real


class PacfError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(PacfError):
    """A vector with (near-)zero norm was used where a direction is required."""


class DimensionMismatch(PacfError):
    """Operands have incompatible shapes."""


class InvalidTemperature(PacfError):
    """Softmax/sigmoid temperature must be a positive finite number."""


class EmptyBatch(PacfError):
    """An operation received a batch with zero rows."""


class UninitializedPrototype(PacfError):
    """A prototype was read before any feature initialized it."""


class InvalidSpec(PacfError):
    """A generation spec violates its invariants."""


class IoError(PacfError):
    """A file could not be read or written."""


class ParseError(PacfError):
    """A file has malformed content; the message names the offending line."""


class InsufficientSamples(PacfError):
    """Too few samples for the requested statistic."""


class MissingArtifact(PacfError):
    """A required run artifact is absent; the message names the file."""


class ConfigError(PacfError):
    """An experiment config document is malformed or has unknown keys."""


class Diverged(PacfError):
    """Training produced a non-finite loss or parameter; the message names the step."""


def entry_reader(doc, path: str):
    """``entry(key, parse, optional=False)``, which returns ``parse(doc[key])``.

    ``doc`` is a JSON document read from ``path``. A ``doc`` that is not a
    JSON object, a missing key, or an entry ``parse`` rejects with a
    ``KeyError``, ``TypeError``, ``ValueError``, ``AttributeError`` or
    :class:`PacfError` raises :class:`ParseError` naming ``path`` (and the
    key). An ``optional`` entry that is absent or empty gives None.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")

    def entry(key: str, parse, optional: bool = False):
        if optional and not doc.get(key):
            return None
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
        try:
            return parse(doc[key])
        except (AttributeError, KeyError, TypeError, ValueError, PacfError) as exc:
            raise ParseError(f"{path}: malformed {key!r}: {type(exc).__name__}: {exc}") from exc

    return entry


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _numeric_shape(value, depth: int = 2) -> tuple | None:
    """The shape of a number, ``()``, or of rectangular nested lists (or an array) of numbers
    at most ``depth`` levels deep; None for anything else, an empty list included."""
    if hasattr(value, "tolist"):  # a numpy array or scalar
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return () if _is_number(value) else None
    shapes = {_numeric_shape(v, depth - 1) for v in value} if depth > 0 else {None}
    if len(shapes) != 1 or None in shapes:
        return None
    return (len(value), *shapes.pop())


# declared type (or its postponed name) of a number field -> the test its value must
# pass, and the name of what passes in an error
_NUMBER_FIELDS = {
    "int": (lambda value: isinstance(value, Integral), "an integer"),
    "float": (_is_number, "a number"),
    "float | np.ndarray": (lambda value: _numeric_shape(value) is not None,
                           "a number, or a (C, dim) numeric array"),
    "np.ndarray | None": (lambda value: value is None or _numeric_shape(value) is not None,
                          "null, or a (C, dim) numeric array"),
}


def check_field_types(config) -> None:
    """Raise TypeError naming the field unless each typed field of the dataclass ``config``
    holds that kind of value: a switch must be a JSON boolean, an ``int`` field an integer,
    a ``float`` field a number, a ``float | np.ndarray`` field a number or a rectangular list
    of numbers or of lists of numbers, and an ``np.ndarray | None`` field that or null; no
    number may be a boolean. Shapes and ranges are the dataclass's to check."""
    for f in fields(config):
        value = getattr(config, f.name)
        declared = getattr(f.type, "__name__", f.type)  # a type, or its postponed name
        if isinstance(value, bool) != (declared == "bool"):
            raise TypeError(f"{f.name} must {'not ' * isinstance(value, bool)}be a boolean, "
                            f"got {value!r}")
        accepted, kind = _NUMBER_FIELDS.get(declared, (lambda value: True, ""))
        if not accepted(value):
            raise TypeError(f"{f.name} must be {kind}, got {value!r}")
