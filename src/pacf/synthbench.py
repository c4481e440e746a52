"""Synthetic domain-shift benchmark and feature-dump file I/O.

The generator models the two failure modes a detector meets after a domain
change: every class-conditional distribution on the target is mean-shifted
and has inflated variance relative to the source. Distributions are
isotropic Gaussians so the expected statistics stay analytically checkable.

Generation is a pure function of the spec, including its seed; the RNG is
numpy's PCG64, so a given seed always reproduces the same datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, InvalidSpec, IoError, ParseError

DUMP_HEADER_PREFIX = ("label", "score")
MISSING = -1  # label/score placeholder for unlabeled rows


@dataclass(frozen=True)
class LabeledBatch:
    """Features with class labels and confidence scores; -1 marks absence."""

    features: np.ndarray  # (n, dim)
    labels: np.ndarray    # (n,) ints, -1 = unlabeled
    scores: np.ndarray    # (n,) floats, -1 = absent

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if features.ndim != 2:
            raise DimensionMismatch(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (len(features),) or scores.shape != (len(features),):
            raise DimensionMismatch("labels and scores must match the feature count")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite entries")
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
    explicit (class_count, dim) array or a scalar magnitude applied along a
    seed-determined random unit direction per class.
    """

    class_count: int = 8
    dim: int = 32
    samples_per_class: int = 200
    source_std: float = 1.0
    target_mean_shift: float | np.ndarray = 1.5
    target_std_multiplier: float = 1.8
    mean_scale: float = 1.0
    source_means: np.ndarray | None = None
    seed: int = 100

    def __post_init__(self):
        for name in ("class_count", "dim", "samples_per_class", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.class_count < 1:
            raise InvalidSpec(f"class_count must be >= 1, got {self.class_count}")
        if self.dim < 2:
            raise InvalidSpec(f"dim must be >= 2, got {self.dim}")
        if self.samples_per_class < 1:
            raise InvalidSpec("samples_per_class must be >= 1")
        if not (self.source_std > 0.0 and np.isfinite(self.source_std)):
            raise InvalidSpec(f"source_std must be positive, got {self.source_std!r}")
        if not (self.target_std_multiplier >= 1.0 and np.isfinite(self.target_std_multiplier)):
            raise InvalidSpec(
                f"target_std_multiplier must be >= 1, got {self.target_std_multiplier!r}")
        if not (self.mean_scale >= 0.0 and np.isfinite(self.mean_scale)):
            raise InvalidSpec(f"mean_scale must be >= 0, got {self.mean_scale!r}")
        if self.source_means is not None:
            means = np.asarray(self.source_means, dtype=np.float64)
            if means.shape != (self.class_count, self.dim):
                raise InvalidSpec(
                    f"source_means must have shape ({self.class_count}, {self.dim}), "
                    f"got {means.shape}")
            object.__setattr__(self, "source_means", means)
        shift = self.target_mean_shift
        if np.ndim(shift) == 0:
            if not (float(shift) >= 0.0 and np.isfinite(float(shift))):
                raise InvalidSpec(f"scalar target_mean_shift must be >= 0, got {shift!r}")
            object.__setattr__(self, "target_mean_shift", float(shift))
        else:
            shift = np.asarray(shift, dtype=np.float64)
            if shift.shape != (self.class_count, self.dim):
                raise InvalidSpec(
                    f"target_mean_shift array must have shape ({self.class_count}, "
                    f"{self.dim}), got {shift.shape}")
            object.__setattr__(self, "target_mean_shift", shift)


@dataclass(frozen=True)
class DatasetPair:
    """A labeled source batch plus unlabeled target features.

    ``target_hidden_labels`` exist for evaluation only. Training code takes
    the pieces returned by :meth:`training_view` and never this object, so
    the hidden labels stay out of the training interface.
    """

    source: LabeledBatch
    target_features: np.ndarray
    target_hidden_labels: np.ndarray

    def __post_init__(self):
        if len(self.target_features) != len(self.target_hidden_labels):
            raise DimensionMismatch("hidden labels must align with target features")

    def training_view(self) -> tuple[LabeledBatch, np.ndarray]:
        return self.source, self.target_features


def generate(spec: DomainShiftSpec) -> DatasetPair:
    """Sample a source/target pair; deterministic for a given spec.

    Draw order from the seed: source means (when not explicit), shift
    directions (when the shift is scalar), then per-class source samples,
    then per-class target samples.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    c, d, n = spec.class_count, spec.dim, spec.samples_per_class

    means = spec.source_means
    if means is None:
        means = spec.mean_scale * rng.standard_normal((c, d))

    if np.ndim(spec.target_mean_shift) == 0:
        directions = rng.standard_normal((c, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        shifts = float(spec.target_mean_shift) * directions
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
    tgt_labels = np.repeat(np.arange(c), n)

    source = LabeledBatch(src_feats, src_labels, np.full(len(src_feats), float(MISSING)))
    return DatasetPair(source, tgt_feats, tgt_labels)


def _format_float(x: float) -> str:
    return repr(float(x))


def save_dump(batch: LabeledBatch, path) -> None:
    """Write a batch as CSV: header ``label,score,f0,...``; floats keep full precision."""
    header = ",".join(DUMP_HEADER_PREFIX + tuple(f"f{i}" for i in range(batch.dim)))
    lines = [header]
    for label, score, row in zip(batch.labels, batch.scores, batch.features):
        cells = [str(int(label)), _format_float(score)]
        cells.extend(_format_float(v) for v in row)
        lines.append(",".join(cells))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_dump(path) -> LabeledBatch:
    """Read a CSV feature dump; the exact inverse of :func:`save_dump`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise EmptyBatch(f"{path} is empty")
    header = lines[0].split(",")
    if header[:2] != list(DUMP_HEADER_PREFIX) or len(header) < 3:
        raise ParseError(f"{path} line 1: bad header {lines[0]!r}")
    dim = len(header) - 2
    expected = [f"f{i}" for i in range(dim)]
    if header[2:] != expected:
        raise ParseError(f"{path} line 1: feature columns must be f0..f{dim - 1}")
    labels, scores, rows, linenos = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        cells = line.split(",")
        if len(cells) != dim + 2:
            raise ParseError(
                f"{path} line {lineno}: expected {dim + 2} columns, got {len(cells)}")
        try:
            labels.append(int(cells[0]))
            scores.append(float(cells[1]))
            rows.append([float(v) for v in cells[2:]])
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise EmptyBatch(f"{path} has no data rows")
    features = np.asarray(rows)
    scores = np.asarray(scores)
    finite = np.isfinite(features).all(axis=1) & np.isfinite(scores)
    if not finite.all():
        raise ParseError(f"{path} line {linenos[int(np.argmin(finite))]}: non-finite value")
    return LabeledBatch(features, np.asarray(labels), scores)
