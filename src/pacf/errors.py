"""Exception types shared across the package, the mapping of a malformed JSON
document onto :class:`ParseError`, and the declared rule of each config field."""

import operator
from dataclasses import field, fields
from numbers import Integral, Real

import numpy as np


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
    key). An ``optional`` entry that is absent or null gives None.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")

    def entry(key: str, parse, optional: bool = False):
        if optional and doc.get(key) is None:
            return None
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
        try:
            return parse(doc[key])
        except (AttributeError, KeyError, TypeError, ValueError, PacfError) as exc:
            raise ParseError(f"{path}: malformed {key!r}: {type(exc).__name__}: {exc}") from exc

    return entry


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, Real) and not issubclass(kind, bool)


def as_float(value) -> float:
    """A number but a boolean as a Python float, and an integer past float64 as the infinity
    of its sign, which no interval open at ``inf`` holds; anything else raises TypeError."""
    if not _is_number_type(type(value)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def as_index(value, name: str = "value") -> int:
    """``operator.index(value)``, except that a boolean raises TypeError naming ``name``:
    JSON's ``true`` is not the count 1."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def class_key(key: str) -> int:
    """A JSON object key that names a class, as an int. Only the canonical decimal that
    ``str`` writes is one: ``"01"``, ``" 1"``, ``"+1"`` or ``"1_0"`` raises ValueError, so no
    class has two spellings."""
    value = int(key)
    if str(value) != key:
        raise ValueError(f"class id {key!r} is not written as a canonical decimal")
    return value


def numeric_array(value, name: str) -> np.ndarray:
    """A number, or rectangular nested lists of numbers at most two levels deep, as a float64
    array, each entry converted as :func:`as_float` converts it, so an integer past float64 is
    an infinity. A string, boolean or null entry, or any other shape, raises TypeError naming
    ``name``."""
    if _numeric_shape(value) is None:
        raise TypeError(f"{name} must be a number or a rectangular list of numbers")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        return np.vectorize(as_float, otypes=[np.float64])(np.asarray(value, dtype=object))


def _numeric_shape(value, depth: int = 2) -> tuple | None:
    """The shape of a number, ``()``, or of rectangular nested lists (or an array) of numbers
    at most ``depth`` levels deep; None for anything else, an empty list included."""
    # an object array keeps each leaf as it is, and holds a ragged list's rows as leaves
    leaves = np.asarray(value, dtype=object)
    kinds = set(map(type, leaves.ravel().tolist()))
    if leaves.ndim > depth or not kinds or not all(map(_is_number_type, kinds)):
        return None
    return leaves.shape


# the type of a field's default -> the type its values must have, and its name in an error
_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"),
          type(None): (type(None), "null")}


def rule(default, interval: str | None = None, shape: tuple[str, ...] | None = None):
    """A dataclass field with ``default`` and the rule :func:`check_fields` holds it to.

    A number must lie in ``interval``, written like ``"[0, 1)"`` or ``"(0, inf)"``; an end
    at ``inf`` is written open, so the comparison itself rejects NaN and the infinities,
    and an integer is compared exactly; ``metadata["contains"]`` tests it, elementwise on an
    array. ``shape`` names the fields whose values give the shape of an array the field may
    hold instead of its default's kind; each entry of the array must be finite."""
    meta = {"interval": interval, "shape": shape}
    if interval:
        low, high = map(float, interval[1:-1].split(","))
        above = operator.le if interval[0] == "[" else operator.lt
        below = operator.le if interval[-1] == "]" else operator.lt
        meta["contains"] = lambda value: above(low, value) & below(value, high)
    return field(default=default, metadata=meta)


def check_fields(config, range_error=ValueError) -> None:
    """Hold each field of the dataclass ``config`` to its declared rule (:func:`rule`).

    A value of the wrong kind raises TypeError naming the field: a boolean unless the
    default is one, or anything else where it is one; a non-integer where the default is
    an integer, a non-number where it is a float, and anything but None where it is None,
    except that a field with a ``shape`` also takes a rectangular list of numbers or of
    lists of numbers. A value of the right kind outside its interval or its ``choices``,
    an array of the wrong shape, or one with a non-finite entry, raises ``range_error``
    naming the field. A float field's number is stored by :func:`as_float`, and an array by
    :func:`numeric_array`, so an integer past float64 is an infinity."""
    for f in fields(config):
        name, value, meta = f.name, getattr(config, f.name), f.metadata
        if isinstance(value, bool) != isinstance(f.default, bool):
            raise TypeError(f"{name} must {'not ' * isinstance(value, bool)}be a boolean, "
                            f"got {value!r}")
        kind, kind_name = _KINDS.get(type(f.default), (object, ""))
        if "choices" in meta and value not in meta["choices"]:
            raise range_error(f"{name} must be one of {meta['choices']}, got {value!r}")
        if meta.get("shape") and not isinstance(value, kind):
            dims = ", ".join(meta["shape"])
            if _numeric_shape(value) is None:
                raise TypeError(f"{name} must be {kind_name} or a ({dims}) array of numbers, "
                                f"got {value!r}")
            array = numeric_array(value, name)
            expected = tuple(getattr(config, dim) for dim in meta["shape"])
            if array.shape != expected:
                raise range_error(f"{name} must have shape ({dims}) = {expected}, "
                                  f"got {array.shape}")
            bad = np.argwhere(~np.isfinite(array))
            if len(bad):
                raise range_error(f"{name} must have finite entries, got "
                                  f"{array[tuple(bad[0])]} at {tuple(bad[0].tolist())}")
            object.__setattr__(config, name, array)
        elif not isinstance(value, kind):
            raise TypeError(f"{name} must be {kind_name}, got {value!r}")
        else:
            value = as_float(value) if kind is Real else value
            object.__setattr__(config, name, value)
            if "contains" in meta and not meta["contains"](value):
                raise range_error(f"{name} must lie in {meta['interval']}, got {value!r}")
