"""Exception types shared across the package, the mapping of a malformed JSON
document onto :class:`ParseError`, and the switch typing rule of config values."""

from dataclasses import fields


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


def check_switches(config) -> None:
    """Raise TypeError unless the dataclass ``config`` holds a bool in exactly its ``bool``
    fields: a switch must be a JSON boolean, and a number or a name must not be one."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) != (f.type in ("bool", bool)):
            raise TypeError(f"{f.name} must {'not ' * isinstance(value, bool)}be a boolean, "
                            f"got {value!r}")
