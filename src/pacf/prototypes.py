"""Per-domain, per-class prototype vectors.

A prototype is a unit-norm representative direction for one class in one
domain. Prototypes are initialized from confidence-filtered features and
then refreshed with a cosine-weighted moving average: the closer the
mini-batch mean is to the current prototype, the more it overwrites it.
Prototypes are plain buffers; no gradient ever flows into them.

Maintenance is one batched pass per set (:func:`update_all`):
:func:`class_means` takes class counts with ``np.bincount`` and class sums
with one one-hot ``(classes x n) @ features`` product, :func:`blend_rows`
computes every class's cosine, blend weight, blend and renormalization as
row operations, and the new rows are stored after one unit-norm check.
Initialization is that pass on an empty set; :func:`minibatch_prototypes`,
:func:`blend_weight` and :func:`update_prototype` are batch-of-one views.

A set keeps one read-only row per class, so an update shares the rows of
the classes it did not touch; the stacked :meth:`PrototypeSet.matrix` is
built on its first read, unless an update wrote every class, whose block
of new rows is the matrix. A set that is only written never copies one.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, EmptyBatch, UninitializedPrototype, ZeroVector,
                     as_index, class_key, numeric_array)
from .mathcore import NORM_EPS, as_vectors, nonzero_norms, row_norms
# unused here, but perfbench/tracing.py patches them here to count prototype math calls
from .mathcore import cosine_similarity, l2_normalize  # noqa: F401
from .synthbench import LabeledBatch, check_batch

DOMAINS = ("source", "target")
UNIT_NORM_TOL = 1e-9


class PrototypeSet:
    """Unit-norm prototypes for one domain, keyed by class id 0..class_count-1.

    A class stays uninitialized until a feature batch first provides it; the
    set reports which classes are live and refuses to read the others.
    """

    def __init__(self, domain: str, class_count: int, dim: int,
                 prototypes: dict[int, np.ndarray] | None = None):
        if domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
        self.domain = domain
        self.class_count = as_index(class_count, "class_count")
        self.dim = as_index(dim, "dim")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        self._prototypes: dict[int, np.ndarray] = {}
        self._matrix: np.ndarray | None = None
        if prototypes is not None:
            self._store(*self._stack(prototypes))

    def _stack(self, updates: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Class ids and a fresh (m, dim) array of the given rows."""
        rows = []
        for class_id, vec in updates.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise DimensionMismatch(f"prototype for class {class_id} has shape {vec.shape}, "
                                        f"expected ({self.dim},)")
            rows.append(vec)
        classes = np.array([int(k) for k in updates], dtype=np.int64)
        outside = classes[(classes < 0) | (classes >= self.class_count)]
        if len(outside):
            raise ValueError(f"class id {int(outside[0])} outside 0..{self.class_count - 1}")
        return classes, np.array(rows) if rows else np.empty((0, self.dim))

    def _store(self, classes: np.ndarray, rows: np.ndarray) -> None:
        """Check that new rows are unit norm all at once, then store them as read-only views.

        ``classes`` must be ids of this set, and ``rows`` a fresh (len(classes), dim)
        array that no caller holds.
        """
        norms = row_norms(rows)
        if len(rows) and not np.maximum.reduce(np.abs(norms - 1.0)) <= UNIT_NORM_TOL:
            off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
            raise ValueError(f"prototype for class {int(classes[off[0]])} has norm "
                             f"{float(norms[off[0]])!r}, expected 1")
        rows.flags.writeable = False
        self._prototypes.update(zip(classes.tolist(), rows))

    def is_initialized(self, class_id: int) -> bool:
        return class_id in self._prototypes

    @property
    def fully_initialized(self) -> bool:
        return len(self._prototypes) == self.class_count

    def initialized_classes(self) -> list[int]:
        return sorted(self._prototypes)

    def get(self, class_id: int) -> np.ndarray:
        if class_id not in self._prototypes:
            raise UninitializedPrototype(
                f"{self.domain} prototype for class {class_id} is uninitialized")
        return self._prototypes[class_id]

    def matrix(self) -> np.ndarray:
        """All prototypes stacked as a read-only (class_count, dim) array; requires a full set.

        Built on the first read and kept, since a set never changes after it
        is made.
        """
        if self._matrix is None:
            missing = [k for k in range(self.class_count) if k not in self._prototypes]
            if missing:
                raise UninitializedPrototype(
                    f"{self.domain} prototypes uninitialized for classes {missing}")
            matrix = np.array([self._prototypes[k] for k in range(self.class_count)])
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def _with_rows(self, classes: np.ndarray, rows: np.ndarray) -> "PrototypeSet":
        out = object.__new__(PrototypeSet)  # __init__'s checks passed for this set
        out.domain, out.class_count, out.dim = self.domain, self.class_count, self.dim
        out._prototypes = dict(self._prototypes)
        out._matrix = None
        out._store(classes, rows)
        return out

    def with_updates(self, updates: dict[int, np.ndarray]) -> "PrototypeSet":
        """New set with the given classes replaced; untouched classes share storage."""
        return self._with_rows(*self._stack(updates))

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain,
            "dim": self.dim,
            "class_count": self.class_count,
            "prototypes": {str(k): self._prototypes[k].tolist()
                           for k in sorted(self._prototypes)},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PrototypeSet":
        return cls(doc["domain"], doc["class_count"], doc["dim"],
                   {class_key(k): numeric_array(v, f"prototype {k}")
                    for k, v in doc["prototypes"].items()})


# --- batched kernels ----------------------------------------------------------

def class_means(features: np.ndarray, labels: np.ndarray, class_count: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The classes present in a non-empty batch and the arithmetic mean of each one's rows.

    Labels outside 0..class_count-1 raise ValueError. The means are not
    normalized.
    """
    if not (0 <= np.minimum.reduce(labels) and np.maximum.reduce(labels) < class_count):
        outside = (labels < 0) | (labels >= class_count)
        raise ValueError(f"labels {sorted(set(labels[outside].tolist()))} "
                         f"outside 0..{class_count - 1}")
    counts = np.bincount(labels, minlength=class_count)
    present = counts.nonzero()[0]
    onehot = (labels == present[:, None]).astype(np.float64)
    return present, (onehot @ features) / counts[present, None]


def blend_rows(prev: np.ndarray, means: np.ndarray, mean_norms: np.ndarray,
               initialized: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row blend weight and renormalized blend of ``prev`` toward ``means``.

    alpha = (cos(prev, mean) + 1) / 2, so an aligned mean replaces the
    prototype (alpha = 1) and an opposed mean leaves it unchanged (alpha = 0).
    The mean is deliberately not normalized before blending; only the result
    is. A row that is not ``initialized`` (None: every row is) has no previous prototype:
    its ``prev`` row must be zero, and it takes alpha = 1, the normalized mean.
    ``mean_norms`` are the row norms of ``means``, none of them zero.
    """
    full = initialized is None
    prev_norms = row_norms(prev) if full else np.where(initialized, row_norms(prev), 1.0)
    alpha = (np.einsum("ij,ij->i", prev, means) / (prev_norms * mean_norms) + 1.0) / 2.0
    alpha = alpha if full else np.where(initialized, alpha, 1.0)
    blended = (1.0 - alpha)[:, None] * prev + alpha[:, None] * means
    return alpha, blended / row_norms(blended)[:, None]


# --- prototype maintenance --------------------------------------------------------

def update_all(pset: PrototypeSet, features, labels) -> PrototypeSet:
    """Update the prototypes of every class present in the batch, in one batched pass.

    Initialized classes blend toward their mini-batch mean (see
    :func:`blend_rows`); uninitialized ones adopt the normalized mean. Absent
    classes are untouched and keep their rows, so an empty batch returns the
    set unchanged once its shapes are checked.
    """
    # checked before the class sums, which would warn on a non-finite entry
    features, labels = check_batch(features, labels)
    if features.shape[1] != pset.dim:
        raise DimensionMismatch(
            f"feature dim {features.shape[1]} does not match prototype dim {pset.dim}")
    if len(features) == 0:
        return pset
    present, means = class_means(features, labels, pset.class_count)
    mean_norms = row_norms(means)
    if not NORM_EPS < np.minimum.reduce(mean_norms) <= np.maximum.reduce(mean_norms) < np.inf:
        bad = ~np.isfinite(mean_norms)
        if np.any(bad):
            raise ValueError(f"mini-batch mean for class {present[np.argmax(bad)]} "
                             "contains non-finite entries")
        raise ZeroVector(f"mini-batch mean for class {present[np.argmax(mean_norms <= NORM_EPS)]}"
                         " is zero")
    if pset._matrix is not None:  # a full set: every class has a previous row
        prev, initialized = pset._matrix[present], None
    else:
        stored, zero, classes = pset._prototypes, np.zeros(pset.dim), present.tolist()
        prev = np.array([stored.get(k, zero) for k in classes])
        initialized = np.array([k in stored for k in classes])
    _, rows = blend_rows(prev, means, mean_norms, initialized)
    out = pset._with_rows(present, rows)
    if len(present) == pset.class_count:  # present counts up from 0, so rows is the matrix
        out._matrix = rows
    return out


def initialize_prototypes(batch: LabeledBatch, threshold: float, domain: str,
                          class_count: int) -> PrototypeSet:
    """Prototype per class = normalized mean of its features scoring >= threshold.

    Labels at or above ``class_count`` (the "no class" outcome of a
    single-class model) never qualify; a qualifying negative label raises
    ValueError. Classes with no qualifying feature are left uninitialized.
    """
    if len(batch) == 0:
        raise EmptyBatch("cannot initialize prototypes from an empty batch")
    keep = (batch.scores >= threshold) & (batch.labels < class_count)
    return update_all(PrototypeSet(domain, class_count, batch.features.shape[1]),
                      batch.features[keep], batch.labels[keep])


def minibatch_prototypes(features, labels) -> dict[int, np.ndarray]:
    """Per-class arithmetic mean of the batch features, not yet normalized."""
    features, labels = check_batch(features, labels)
    if len(features) == 0:
        raise EmptyBatch("cannot build mini-batch prototypes from an empty batch")
    present, means = class_means(features, labels, int(labels.max()) + 1)
    return dict(zip(present.tolist(), means))


def _blend_one(prev, minibatch_mean) -> tuple[float, np.ndarray]:
    """:func:`blend_rows` on one (prev, mean) pair, validated as vectors."""
    pair = np.array(as_vectors(prev, minibatch_mean))
    norms = nonzero_norms(pair, "the blend weight is undefined for a zero prototype or mean")
    alpha, rows = blend_rows(pair[:1], pair[1:], norms[1:])
    return float(alpha[0]), rows[0]


def blend_weight(prev, minibatch_mean) -> float:
    """Cosine similarity mapped to [0, 1]: alpha = (cos + 1) / 2."""
    return _blend_one(prev, minibatch_mean)[0]


def update_prototype(prev, minibatch_mean) -> np.ndarray:
    """Blend the previous prototype toward the mini-batch mean, then renormalize."""
    return _blend_one(prev, minibatch_mean)[1]
