"""Exception types shared across the package."""


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
