"""Distribution diagnostics.

Per-class feature variance (covariance trace), class-mean shift between
domains, a proxy A-distance from a held-out logistic domain classifier,
rank-consistency coefficients with tie handling, pseudo-label true-positive
ratios against hidden labels, and a deterministic 2-D PCA projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, InsufficientSamples, as_float, as_index, class_key,
                     entry_reader)
from .mathcore import sigmoid


def check_domain_rows(source_rows: int, target_rows: int) -> None:
    """The proxy A-distance's rule: at least 20 rows in each domain."""
    if source_rows < 20 or target_rows < 20:
        raise InsufficientSamples(
            f"need >= 20 samples per domain, got {source_rows} and {target_rows}")


def check_projection_shape(shape: tuple) -> None:
    """The 2-D projection's rule: 2-D data with dim >= 2 and at least 3 rows."""
    if len(shape) != 2 or shape[1] < 2:
        raise InsufficientSamples(f"need 2-D data with dim >= 2, got shape {shape}")
    if shape[0] < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {shape[0]}")


def check_evaluable(source_rows: int, target_rows: int, feature_dim: int) -> None:
    """Both rules above, for an evaluation of ``feature_dim``-dim embeddings of these rows."""
    check_domain_rows(source_rows, target_rows)
    check_projection_shape((target_rows, feature_dim))


def intra_class_variance(features, labels) -> dict[int, float]:
    """Covariance trace per class: sum over dims of the unbiased variance.

    Classes with fewer than two samples are omitted.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return {int(k): float(np.var(features[labels == k], axis=0, ddof=1).sum())
            for k in np.unique(labels) if np.sum(labels == k) >= 2}


def mean_shift(source_features, source_labels, target_features, target_labels,
               normalize_means: bool = False) -> dict[int, float]:
    """Euclidean distance between per-class mean features of the two domains.

    Only classes present in both domains are reported. With
    ``normalize_means`` the class means are scaled to unit norm before the
    distance, which measures the purely directional shift between the class
    centers.
    """
    sf = np.asarray(source_features, dtype=np.float64)
    sl = np.asarray(source_labels, dtype=np.int64)
    tf = np.asarray(target_features, dtype=np.float64)
    tl = np.asarray(target_labels, dtype=np.int64)
    shifts = {}
    for k in sorted(set(np.unique(sl).tolist()) & set(np.unique(tl).tolist())):
        sm = sf[sl == k].mean(axis=0)
        tm = tf[tl == k].mean(axis=0)
        if normalize_means:
            sm = sm / np.linalg.norm(sm)
            tm = tm / np.linalg.norm(tm)
        shifts[int(k)] = float(np.linalg.norm(sm - tm))
    return shifts


def _column_basis(x: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns spanning the subspace of R^m that the rows of an (n, m) ``x``
    numerically occupy, or None when that is all of R^m.

    The eigenvectors of ``xᵀx`` whose eigenvalues exceed the rounding level
    ``max(n, m) * eps * λ_max``; the rows reach the other directions only through
    rounding. A non-finite Gram (a design that overflowed while it was
    standardized) keeps the whole space, so ``eigh`` never sees one.
    """
    gram = x.T @ x
    if not np.isfinite(gram).all():
        return None
    values, vectors = np.linalg.eigh(gram)
    keep = values > max(x.shape) * np.finfo(np.float64).eps * values[-1]
    return None if keep.all() else vectors[:, keep]


def _fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent on regularized logistic loss; deterministic.

    400 unit steps with a 1e-3 ridge on every weight but the bias (the last column).
    When the rows of ``x`` numerically span only r of its m dimensions, as the
    standardized embeddings of an affine extractor do, each step's two products go
    through the (n, r) factor ``a = x @ basis`` (see ``_column_basis``), while ``w``
    stays in the full space, so the ridge acts on all of it. The factor changes ``w``
    only at the rounding level. Otherwise the products use ``x`` itself. The steps
    share two (n,) buffers, allocated once: the logits ``a @ v``, and the sigmoid of
    the logits, from which ``y`` is then subtracted in place.
    """
    n = len(y)
    basis = _column_basis(x)
    # the factor column-major: a.T @ r runs on contiguous rows
    a = x if basis is None else np.asfortranarray(x @ basis)
    logits, residual = np.empty(n), np.empty(n)
    w = np.zeros(x.shape[1])
    for _ in range(400):
        np.matmul(a, w if basis is None else basis.T @ w, out=logits)
        np.subtract(sigmoid(logits, out=residual), y, out=residual)
        grad = a.T @ residual
        grad = (grad if basis is None else basis @ grad) / n
        grad[:-1] += 1e-3 * w[:-1]  # bias column is last and unregularized
        w = w - grad
    return w


def _pooled_rows(xs: np.ndarray, xt: np.ndarray, rows: np.ndarray,
                 design: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the pooled ``[xs; xt]``, without building the pool, written to the
    first columns of the first len(rows) rows of ``design``, a C-contiguous (>= len(rows),
    d + 1) array whose last column is 1 (the bias); returns those rows."""
    out = design[:len(rows)]
    x = out[:, :-1]
    from_source = rows < len(xs)
    x[from_source] = xs[rows[from_source]]
    x[~from_source] = xt[rows[~from_source] - len(xs)]
    return out


def _standardize(design: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """``(x - mu) / sd`` in place on every column of ``design`` but the bias."""
    x = design[:, :-1]
    np.subtract(x, mu, out=x)
    np.divide(x, sd, out=x)
    return design


def _column_spread(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x.std(axis=0)`` bit for bit, given its ``mean``, 16 columns at a time rather than from
    a copy of ``x``; a lone last column, which numpy would sum pairwise, joins a block."""
    stops = [*range(16, x.shape[1] - 1, 16), x.shape[1]]
    squares = [np.add.reduce(np.square(x[:, start:stop] - mean[start:stop]), axis=0)
               for start, stop in zip([0, *stops], stops)]
    return np.sqrt(np.concatenate(squares) / len(x))


def proxy_a_distance(source_embeddings, target_embeddings) -> float:
    """2 * (1 - eps) where eps is the held-out error of a domain classifier.

    A logistic classifier is trained on a seeded 50/50 split of the pooled
    embeddings (source labeled 0, target 1) and evaluated on the held-out
    half; the result is clamped to [0, 2]. Note the formula maps
    indistinguishable domains (eps = 0.5) to 1.0, not 0. A NaN or infinite
    embedding entry gives nan, and so does an overflow of float64: a train-half
    column whose mean or spread overflows, or a held-out row whose standardized
    score is undefined (inf - inf). Both halves are gathered in turn into one
    design buffer, sized for the held-out half (which has the extra row of an odd
    pooled count): the train half while the probe is fitted, then the held-out half
    over the same pages. The peak memory is about one copy of a half; the fit (see
    ``_fit_logistic``) adds its (rows, r) factor when the train half spans only
    r < d + 1 dimensions.
    """
    xs = np.asarray(source_embeddings, dtype=np.float64)
    xt = np.asarray(target_embeddings, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2 or xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch("embeddings must be 2-D with a common dim")
    check_domain_rows(len(xs), len(xt))
    if not (np.isfinite(xs).all() and np.isfinite(xt).all()):
        return float("nan")
    rng = np.random.Generator(np.random.PCG64(0))
    perm = rng.permutation(len(xs) + len(xt))
    y = (perm >= len(xs)).astype(np.float64)  # the domain of each permuted row
    half = len(perm) // 2
    design = np.empty((len(perm) - half, xs.shape[1] + 1))
    design[:, -1] = 1.0
    train = _pooled_rows(xs, xt, perm[:half], design)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = train[:, :-1].mean(axis=0)
        sd = _column_spread(train[:, :-1], mu)
    if not (np.isfinite(mu).all() and np.isfinite(sd).all()):
        return float("nan")
    sd = np.where(sd < 1e-12, 1.0, sd)
    w = _fit_logistic(_standardize(train, mu, sd), y[:half])
    # a held-out row far outside the train half's spread may overflow to an infinite score,
    # whose sign still classifies it
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _standardize(_pooled_rows(xs, xt, perm[half:], design), mu, sd) @ w
    if np.isnan(scores).any():
        return float("nan")
    eps = float(np.mean((scores >= 0.0) != y[half:]))
    return float(np.clip(2.0 * (1.0 - eps), 0.0, 2.0))


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # one past each tie group's last 0-based position
    return (0.5 * (2 * ends - counts - 1) + 1.0)[inverse]


def _check_pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise DimensionMismatch(f"paired 1-D sequences required, got {xs.shape} vs {ys.shape}")
    if len(xs) < 2:
        raise DimensionMismatch("need at least two observations")
    return xs, ys


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation; ties receive average ranks. A NaN input gives nan."""
    xs, ys = _check_pair(xs, ys)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return float("nan")
    rx = _rankdata(xs)
    ry = _rankdata(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = float(np.linalg.norm(rx) * np.linalg.norm(ry))
    if denom == 0.0:
        return float("nan")
    return float(np.dot(rx, ry) / denom)


def _tied_pairs(counts: np.ndarray) -> int:
    return int(np.sum(counts * (counts - 1) // 2))


def _count_inversions(ranks: np.ndarray, base: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, base).

    Bottom-up merge sort over blocks of doubling width. Keys are offset by
    block id, so one ``searchsorted`` of every right half into the sorted left
    halves counts the inversions across each pair of halves, and one sort
    merges all the pairs.
    """
    n = len(ranks)
    keys = ranks.astype(np.int64)
    index = np.arange(n)
    swaps = 0
    width = 1
    while width < n:
        block = index // (2 * width)
        right = index % (2 * width) >= width
        offset = keys + block * base
        # a right half exists only behind a full left half, which ends at
        # (block + 1) * width among the left halves
        below = np.searchsorted(offset[~right], offset[right], side="right")
        swaps += int(np.sum((block[right] + 1) * width - below))
        keys = np.sort(offset) - block * base
        width *= 2
    return swaps


def kendall_tau(xs, ys) -> float:
    """Kendall tau-b in O(n log n) time and O(n) memory; a NaN input gives nan.

    Knight's algorithm (JASA 61(314), 1966): with pairs sorted by (x, y), the
    discordant pairs are the strict inversions of the y sequence, so
    S = n0 - n1 - n2 + n3 - 2 * swaps in exact integers, where n1 and n2 are
    the pairs tied in x and in y and n3 the pairs tied in both.
    """
    xs, ys = _check_pair(xs, ys)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return float("nan")
    n = len(xs)
    _, rx, x_counts = np.unique(xs, return_inverse=True, return_counts=True)
    _, ry, y_counts = np.unique(ys, return_inverse=True, return_counts=True)
    order = np.lexsort((ry, rx))
    rx, ry = rx[order], ry[order]
    starts = np.flatnonzero(np.diff(rx, prepend=-1) | np.diff(ry, prepend=-1))
    joint_counts = np.diff(starts, append=n)
    n1 = _tied_pairs(x_counts)
    n2 = _tied_pairs(y_counts)
    s = (n * (n - 1) // 2 - n1 - n2 + _tied_pairs(joint_counts)
         - 2 * _count_inversions(ry, len(y_counts)))
    n0 = n * (n - 1) / 2.0
    denom = np.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        return float("nan")
    return float(s / denom)


def tp_ratio(pseudo_labels, pseudo_indices, hidden_labels) -> dict[int, float]:
    """Per pseudo class, the fraction of instances whose hidden label agrees."""
    pl = np.asarray(pseudo_labels, dtype=np.int64)
    pi = np.asarray(pseudo_indices, dtype=np.int64)
    hidden = np.asarray(hidden_labels, dtype=np.int64)
    if pl.shape != pi.shape:
        raise DimensionMismatch("pseudo labels and indices must align")
    out = {}
    for k in np.unique(pl):
        mask = pl == k
        out[int(k)] = float(np.mean(hidden[pi[mask]] == k))
    return out


def class_average(values: dict[int, float]) -> float:
    """Unweighted mean over the reported classes (nan when empty).

    Finite entries always have a finite mean: where their sum overflows, the
    mean is the sum of each entry's share instead.
    """
    if not values:
        return float("nan")
    entries = np.array(list(values.values()), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf and a -inf average to nan
        mean = float(np.mean(entries))
    if not np.isfinite(mean) and np.isfinite(entries).all():
        mean = float(np.sum(entries / len(entries)))
    return mean


def pca_project_2d(features) -> np.ndarray:
    """Project centered data onto its top-2 principal components.

    Component signs are fixed by making the largest-magnitude loading
    positive, so the projection is deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    check_projection_shape(x.shape)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = []
    for idx in order:
        v = eigvecs[:, idx]
        if v[int(np.argmax(np.abs(v)))] < 0.0:
            v = -v
        components.append(v)
    return centered @ np.stack(components, axis=1)


# The report's diagnostics, each named once, in summary row order: the scalars
# (MetricsReport field -> metrics.json key), then the per-class tables, then pseudo_count.
# metrics.json, its reader and the summary rows all iterate these.
SCALARS = {"proxy_a_distance": "proxy_a_distance", "spearman": "spearman_rho",
           "kendall": "kendall_tau"}
TABLES = ("source_variance", "target_variance", "mean_shift", "tp_ratio")


@dataclass(frozen=True)
class MetricsReport:
    """Per-class and aggregate diagnostics for one adapted model."""

    source_variance: dict[int, float] = field(default_factory=dict)
    target_variance: dict[int, float] = field(default_factory=dict)
    mean_shift: dict[int, float] = field(default_factory=dict)
    proxy_a_distance: float = float("nan")
    spearman: float = float("nan")
    kendall: float = float("nan")
    tp_ratio: dict[int, float] = field(default_factory=dict)
    pseudo_count: int = 0

    def summary(self) -> dict[str, float]:
        """The ``summary_comparison.csv`` rows: each scalar under its metrics.json key,
        each table's class average as ``<table>_avg``, then ``pseudo_count``."""
        return {**{key: getattr(self, name) for name, key in SCALARS.items()},
                **{f"{name}_avg": class_average(getattr(self, name)) for name in TABLES},
                "pseudo_count": float(self.pseudo_count)}

    def to_json_dict(self) -> dict:
        doc = {key: _json_float(getattr(self, name)) for name, key in SCALARS.items()}
        for name in TABLES:
            values = getattr(self, name)
            doc[name] = {str(k): _json_float(values[k]) for k in sorted(values)}
            doc[name]["avg"] = _json_float(class_average(values))
        doc["pseudo_count"] = self.pseudo_count
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "metrics") -> "MetricsReport":
        """Inverse of :meth:`to_json_dict`; a malformed ``doc`` raises ParseError naming ``path``."""
        entry = entry_reader(doc, path)

        def untable(values: dict) -> dict[int, float]:
            return {class_key(k): as_float(v) for k, v in values.items()
                    if k != "avg" and v is not None}

        def scalar(v) -> float:
            return float("nan") if v is None else as_float(v)

        return cls(**{name: entry(key, scalar) for name, key in SCALARS.items()},
                   **{name: entry(name, untable) for name in TABLES},
                   pseudo_count=entry("pseudo_count", as_index, optional=True) or 0)


def _json_float(x: float):
    """Floats for JSON output; non-finite values become null."""
    return x if np.isfinite(x) else None
