"""Synthetic domain-shift benchmark, feature dumps, and the CSV codec
(:func:`write_csv`, :func:`read_csv`) that every CSV pacf writes or reads goes through.
:func:`save_relabeled` copies the text of a dump it wrote and :func:`save_mirror` writes a
binary copy of a dump; :func:`load_dump` reads every dump from that copy while the dump's
bytes are unchanged, and otherwise through :func:`read_csv`, the one CSV parser.

The generator models the two failure modes a detector meets after a domain
change: every class-conditional distribution on the target is mean-shifted
and has inflated variance relative to the source. Distributions are
isotropic Gaussians so the expected statistics stay analytically checkable.

Generation is a pure function of the spec, including its seed; the RNG is
numpy's PCG64, so a given seed always reproduces the same datasets.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import (DimensionMismatch, EmptyBatch, InvalidSpec, IoError, ParseError,
                     check_fields, rule)

DUMP_HEADER_PREFIX = ("label", "score")
MISSING = -1  # label/score placeholder for unlabeled rows
CSV_BLOCK_ROWS = 128  # rows that write_csv, and save_relabeled's labels, format at a time
_INT64 = np.iinfo(np.int64)
MIRROR_SUFFIX = ".mirror"  # the mirror of source.csv is source.csv.mirror
_MIRROR_MAGIC = b"pacf dump mirror 1\n"


def check_batch(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """An (n, dim) float64 array of finite features and its n int64 labels."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise DimensionMismatch(f"features must be 2-D, got shape {features.shape}")
    if labels.shape != (len(features),):
        raise DimensionMismatch("labels must match the feature count")
    if not np.logical_and.reduce(np.isfinite(features), axis=None):
        raise ValueError("features contain non-finite entries")
    return features, labels


@dataclass(frozen=True)
class LabeledBatch:
    """Features with class labels and confidence scores; -1 marks absence."""

    features: np.ndarray  # (n, dim)
    labels: np.ndarray    # (n,) ints, -1 = unlabeled
    scores: np.ndarray    # (n,) floats, -1 = absent

    def __post_init__(self):
        features, labels = check_batch(self.features, self.labels)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(features),):
            raise DimensionMismatch("scores must match the feature count")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainShiftSpec:
    """Recipe for one source/target dataset pair.

    ``source_means`` may be omitted; the generator then draws them from the
    seed as N(0, mean_scale^2) vectors. ``target_mean_shift`` is either an
    explicit (class_count, dim) array of finite offsets or a scalar magnitude
    applied along a seed-determined random unit direction per class.
    The count bounds keep every array under numpy's size limit.
    """

    class_count: int = rule(8, "[1, 1e5]")
    dim: int = rule(32, "[2, 1e5]")
    samples_per_class: int = rule(200, "[1, 1e7]")
    source_std: float = rule(1.0, "(0, inf)")
    target_mean_shift: float | np.ndarray = rule(1.5, "[0, inf)", ("class_count", "dim"))
    target_std_multiplier: float = rule(1.8, "[1, inf)")
    mean_scale: float = rule(1.0, "[0, inf)")
    source_means: np.ndarray | None = rule(None, shape=("class_count", "dim"))
    seed: int = rule(100, "[0, inf)")

    def __post_init__(self):
        check_fields(self, InvalidSpec)


@dataclass(frozen=True)
class DatasetPair:
    """A labeled source batch plus unlabeled target features.

    ``target_hidden_labels`` exist for evaluation only. Training code
    (``adapt.run_experiment``) takes ``source`` and ``target_features`` and
    never this object, so the hidden labels stay out of the training interface.
    """

    source: LabeledBatch
    target_features: np.ndarray
    target_hidden_labels: np.ndarray

    def __post_init__(self):
        if len(self.target_features) != len(self.target_hidden_labels):
            raise DimensionMismatch("hidden labels must align with target features")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is checked for below
def generate(spec: DomainShiftSpec) -> DatasetPair:
    """Sample a source/target pair; deterministic for a given spec.

    Draw order from the seed: source means (when not explicit), shift
    directions (when the shift is scalar), then per-class source samples,
    then per-class target samples. A spec whose features overflow float64
    raises :class:`InvalidSpec`.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    c, d, n = spec.class_count, spec.dim, spec.samples_per_class

    means = spec.source_means
    if means is None:
        means = spec.mean_scale * rng.standard_normal((c, d))

    if np.ndim(spec.target_mean_shift) == 0:
        directions = rng.standard_normal((c, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        shifts = spec.target_mean_shift * directions
    else:
        shifts = spec.target_mean_shift

    src_feats = np.vstack([
        means[k] + spec.source_std * rng.standard_normal((n, d)) for k in range(c)
    ])
    src_labels = np.repeat(np.arange(c), n)
    target_std = spec.source_std * spec.target_std_multiplier
    tgt_feats = np.vstack([
        means[k] + shifts[k] + target_std * rng.standard_normal((n, d)) for k in range(c)
    ])
    if not (np.isfinite(src_feats).all() and np.isfinite(tgt_feats).all()):
        raise InvalidSpec("sampled features overflow float64; lower source_std, "
                          "target_std_multiplier, mean_scale or target_mean_shift")
    tgt_labels = np.repeat(np.arange(c), n)

    source = LabeledBatch(src_feats, src_labels, np.full(len(src_feats), float(MISSING)))
    return DatasetPair(source, tgt_feats, tgt_labels)


def format_column(column) -> list[str]:
    """The cells of one CSV column: ``repr`` for a float, an empty cell for a
    non-finite float, ``str`` for anything else."""
    values = np.asarray(column)
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    return cells


def write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of strings written one after another, as
    UTF-8 with ``\\n`` line ends; an OSError becomes :class:`IoError`.

    A sibling temporary file replaces ``path`` in one rename, so a write cut
    short, by an OSError or by any exception of the iterable, leaves the
    previous file intact."""
    def write(fh):
        for chunk in [text] if isinstance(text, str) else text:
            fh.write(chunk)
    _write_atomically(path, write, "w", encoding="utf-8", newline="\n")


def _write_atomically(path, write, mode, **options) -> None:
    """``write(fh)`` into a sibling temporary file opened with ``mode`` and ``options``,
    then one rename onto ``path``, as :func:`write_text` describes."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, mode, **options) as fh:
            write(fh)
        os.replace(temporary, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, each formatted by :func:`format_column`.

    The rows are formatted and written ``CSV_BLOCK_ROWS`` at a time, so the
    text of one block is held at once, not the text of the file. Each column
    is made an array first, so its cells are formatted as one dtype whichever
    block they fall in."""
    columns = [np.asarray(column) for column in columns]
    rows = min(map(len, columns), default=0)

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, rows, CSV_BLOCK_ROWS):
            cells = [format_column(column[start:start + CSV_BLOCK_ROWS]) for column in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_text(path, blocks())


def read_csv(path, header_ok, parse_row) -> list:
    """``parse_row(cells)`` of every non-blank data line of a CSV.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else: in a file with
    ``\\n`` line ends, line N is what ``awk NR==N`` prints. The header must
    satisfy ``header_ok(cells)`` and every data line must have as many cells
    as the header. A missing file raises :class:`IoError`, a file without
    data lines :class:`EmptyBatch`, and a file that is not UTF-8, a bad
    header, a short or long line or a ``ValueError`` from ``parse_row`` a
    :class:`ParseError` naming the file (and the line).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text:
        raise EmptyBatch(f"{path} is empty")
    lines = text.split("\n")  # the read already turned \r\n and \r into \n
    header = lines[0].split(",")
    if not header_ok(header):
        raise ParseError(f"{path} line 1: bad header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{path} line {lineno}: expected {len(header)} columns, got {len(cells)}")
        try:
            rows.append(parse_row(cells))
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from exc
    if not rows:
        raise EmptyBatch(f"{path} has no data rows")
    return rows


def parse_finite(cell: str) -> float:
    """``float(cell)``, with a ValueError for a non-finite value."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def parse_int64(cell: str) -> int:
    """``int(cell)``, with a ValueError for a value outside int64."""
    value = int(cell)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{cell!r} does not fit in int64")
    return value


def save_dump(batch: LabeledBatch, path) -> None:
    """Write a batch as CSV: header ``label,score,f0,...``; floats keep full precision."""
    write_csv(path, _dump_header(batch.dim), [batch.labels, batch.scores, *batch.features.T])


def save_relabeled(path, base_path, labels) -> None:
    """``save_dump`` of the dump at ``base_path`` with its labels replaced by ``labels``.

    ``base_path`` is streamed line by line: its header line is written unchanged, and each
    data line with its first cell replaced by the label, formatted by :func:`format_column`
    as :func:`save_dump` formats it, and the text after the first comma copied. A base that
    is not UTF-8 or a data line without a comma raises :class:`ParseError`, and a row count
    other than ``len(labels)`` :class:`DimensionMismatch`; each leaves ``path`` as it was.
    """
    labels = np.asarray(labels, dtype=np.int64)

    def label_cells():
        for start in range(0, len(labels), CSV_BLOCK_ROWS):
            yield from format_column(labels[start:start + CSV_BLOCK_ROWS])

    def relabeled(base):
        yield base.readline()
        for lineno, (label, line) in enumerate(zip_longest(label_cells(), base), start=2):
            if label is None or line is None:
                raise DimensionMismatch(f"{base_path} has a different number of data rows "
                                        f"from the {len(labels)} labels")
            comma = line.find(",")
            if comma < 0:
                raise ParseError(f"{base_path} line {lineno}: no label cell")
            yield label + line[comma:]

    try:
        base = open(base_path, "r", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {base_path}: {exc}") from exc
    with base:
        try:
            write_text(path, relabeled(base))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{base_path}: not UTF-8 text: {exc}") from exc


def _dump_header(dim: int) -> list[str]:
    return [*DUMP_HEADER_PREFIX, *(f"f{i}" for i in range(dim))]


def _dump_header_ok(cells: list[str]) -> bool:
    return len(cells) > 2 and cells == _dump_header(len(cells) - 2)


def _parse_dump_row(cells: list[str]) -> tuple[int, float, list[float]]:
    return parse_int64(cells[0]), parse_finite(cells[1]), list(map(parse_finite, cells[2:]))


def load_dump(path) -> LabeledBatch:
    """Read a CSV feature dump; the exact inverse of :func:`save_dump`.

    A dump with a mirror that :func:`save_mirror` wrote for its current bytes is read
    from the mirror; any other file goes through :func:`read_csv`, which decides what is
    accepted and names the first bad line.
    """
    batch = _load_mirror(path)
    if batch is not None:
        return batch
    labels, scores, features = zip(*read_csv(path, _dump_header_ok, _parse_dump_row))
    return LabeledBatch(np.asarray(features), np.asarray(labels), np.asarray(scores))


def save_mirror(batch: LabeledBatch, csv_path, path) -> None:
    """Write to ``path`` the binary mirror of the dump at ``csv_path``, which must hold
    ``batch`` as :func:`save_dump` wrote it; :func:`load_dump` reads the dump from it when
    ``path`` is ``csv_path`` + ``MIRROR_SUFFIX``.

    A magic line, the hex :func:`_mirror_digest` on a line of its own, then the labels,
    scores and features as ``np.lib.format`` 1.0 streams: no time stamp, so reruns write
    the same bytes. The write is atomic, as :func:`write_text`'s is.
    """
    arrays = [np.ascontiguousarray(array)
              for array in (batch.labels, batch.scores, batch.features)]

    def write(fh):
        fh.write(_MIRROR_MAGIC + _mirror_digest(csv_path, arrays) + b"\n")
        for array in arrays:
            np.lib.format.write_array(fh, array, version=(1, 0), allow_pickle=False)
    _write_atomically(path, write, "wb")


def _mirror_digest(csv_path, arrays) -> bytes:
    """The hex SHA-256 of the bytes of ``csv_path``, read a MiB at a time, followed by
    each array's shape and data; a ValueError for an array that is not C-contiguous."""
    digest = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    for array in arrays:
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array)
    return digest.hexdigest().encode("ascii")


def _load_mirror(path) -> LabeledBatch | None:
    """The batch in the mirror of the dump at ``path``, or None unless :func:`save_mirror`
    wrote it for ``path``'s current bytes.

    The mirror must hold just an int64 label vector, a finite float64 score vector and a
    C-order finite float64 feature matrix, one row per label and at least one row and
    column, under the digest that ``path``'s bytes and these arrays give now. Any other
    mirror, a missing one and an OSError give None, with no warning.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(f"{path}{MIRROR_SUFFIX}", "rb") as fh:
                if fh.read(len(_MIRROR_MAGIC)) != _MIRROR_MAGIC:
                    return None
                stored = fh.read(65)
                size = os.fstat(fh.fileno()).st_size
                labels, scores, features = (
                    _read_mirror_array(fh, np.dtype(dtype), ndim, size)
                    for dtype, ndim in ((np.int64, 1), (np.float64, 1), (np.float64, 2)))
                if fh.tell() != size:
                    return None
        if (len(scores) != len(labels) or len(features) != len(labels) or features.size == 0
                or not np.isfinite(scores).all()
                or stored != _mirror_digest(path, (labels, scores, features)) + b"\n"):
            return None
        return LabeledBatch(features, labels, scores)  # a ValueError for non-finite features
    except (OSError, ValueError, Warning):
        return None


def _read_mirror_array(fh, dtype: np.dtype, ndim: int, size: int) -> np.ndarray:
    """The next ``np.lib.format`` stream of ``fh``, read with ``allow_pickle=False``; a
    ValueError unless it is version 1.0 and holds an array of ``dtype`` with ``ndim``
    axes whose data fits in the rest of the file's ``size`` bytes. The header is
    checked before numpy's reader allocates the array; bounding each side by ``size``
    also keeps a zero-size shape's element count within the int64 numpy counts in."""
    start = fh.tell()
    version = np.lib.format.read_magic(fh)
    shape, _, stored = np.lib.format.read_array_header_1_0(fh)
    if (version != (1, 0) or stored != dtype or len(shape) != ndim
            or not all(0 <= side <= size for side in shape)
            or math.prod(shape) * dtype.itemsize > size - fh.tell()):
        raise ValueError("not an array stream that save_mirror writes")
    fh.seek(start)
    return np.lib.format.read_array(fh, allow_pickle=False)
