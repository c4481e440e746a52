"""Distribution diagnostics.

Per-class feature variance (covariance trace), class-mean shift between
domains, a proxy A-distance from a held-out logistic domain classifier,
rank-consistency coefficients with tie handling, pseudo-label true-positive
ratios against hidden labels, and a deterministic 2-D PCA projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples
from .mathcore import sigmoid


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


def _fit_logistic(x: np.ndarray, y: np.ndarray, iterations: int = 400,
                  learning_rate: float = 1.0, l2: float = 1e-3) -> np.ndarray:
    """Full-batch gradient descent on regularized logistic loss; deterministic."""
    w = np.zeros(x.shape[1])
    n = len(y)
    for _ in range(iterations):
        grad = x.T @ (sigmoid(x @ w) - y) / n
        grad[:-1] += l2 * w[:-1]  # bias column is last and unregularized
        w = w - learning_rate * grad
    return w


def proxy_a_distance(source_embeddings, target_embeddings, split_seed: int = 0) -> float:
    """2 * (1 - eps) where eps is the held-out error of a domain classifier.

    A logistic classifier is trained on a seeded 50/50 split of the pooled
    embeddings (source labeled 0, target 1) and evaluated on the held-out
    half; the result is clamped to [0, 2]. Note the formula maps
    indistinguishable domains (eps = 0.5) to 1.0, not 0.
    """
    xs = np.asarray(source_embeddings, dtype=np.float64)
    xt = np.asarray(target_embeddings, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2 or xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch("embeddings must be 2-D with a common dim")
    if len(xs) < 20 or len(xt) < 20:
        raise InsufficientSamples(
            f"need >= 20 samples per domain, got {len(xs)} and {len(xt)}")
    x = np.vstack([xs, xt])
    y = np.concatenate([np.zeros(len(xs)), np.ones(len(xt))])
    rng = np.random.Generator(np.random.PCG64(split_seed))
    perm = rng.permutation(len(x))
    half = len(x) // 2
    train_idx, test_idx = perm[:half], perm[half:]
    mu = x[train_idx].mean(axis=0)
    sd = x[train_idx].std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xn = (x - mu) / sd
    xn = np.hstack([xn, np.ones((len(xn), 1))])
    w = _fit_logistic(xn[train_idx], y[train_idx])
    pred = (xn[test_idx] @ w >= 0.0).astype(np.float64)
    eps = float(np.mean(pred != y[test_idx]))
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
    """Spearman rank correlation; ties receive average ranks."""
    xs, ys = _check_pair(xs, ys)
    rx = _rankdata(xs)
    ry = _rankdata(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = float(np.linalg.norm(rx) * np.linalg.norm(ry))
    if denom == 0.0:
        return float("nan")
    return float(np.dot(rx, ry) / denom)


def kendall_tau(xs, ys) -> float:
    """Kendall tau-b: concordant minus discordant pairs with tie correction."""
    xs, ys = _check_pair(xs, ys)
    n = len(xs)
    d = np.subtract.outer(xs, xs)
    np.sign(d, out=d)
    e = np.subtract.outer(ys, ys)
    d *= np.sign(e, out=e)
    np.fill_diagonal(d, 0.0)  # inf - inf on the diagonal is nan, not a pair
    # the sign-product matrix is symmetric: each pair is counted twice
    s = float(d.sum()) / 2.0
    n0 = n * (n - 1) / 2.0

    def tie_term(v):
        _, counts = np.unique(v, return_counts=True)
        return float(np.sum(counts * (counts - 1) / 2.0))

    n1 = tie_term(xs)
    n2 = tie_term(ys)
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
    """Unweighted mean over the reported classes (nan when empty)."""
    if not values:
        return float("nan")
    return float(np.mean(list(values.values())))


def pca_project_2d(features) -> np.ndarray:
    """Project centered data onto its top-2 principal components.

    Component signs are fixed by making the largest-magnitude loading
    positive, so the projection is deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise InsufficientSamples(f"need 2-D data with dim >= 2, got shape {x.shape}")
    if len(x) < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {len(x)}")
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

    @property
    def source_variance_avg(self) -> float:
        return class_average(self.source_variance)

    @property
    def target_variance_avg(self) -> float:
        return class_average(self.target_variance)

    @property
    def mean_shift_avg(self) -> float:
        return class_average(self.mean_shift)

    @property
    def tp_ratio_avg(self) -> float:
        return class_average(self.tp_ratio)

    def to_json_dict(self) -> dict:
        def table(values: dict[int, float]) -> dict:
            doc = {str(k): _json_float(values[k]) for k in sorted(values)}
            doc["avg"] = _json_float(class_average(values))
            return doc

        return {
            "source_variance": table(self.source_variance),
            "target_variance": table(self.target_variance),
            "mean_shift": table(self.mean_shift),
            "proxy_a_distance": _json_float(self.proxy_a_distance),
            "spearman_rho": _json_float(self.spearman),
            "kendall_tau": _json_float(self.kendall),
            "tp_ratio": table(self.tp_ratio),
            "pseudo_count": self.pseudo_count,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MetricsReport":
        def untable(values: dict) -> dict[int, float]:
            return {int(k): float(v) for k, v in values.items()
                    if k != "avg" and v is not None}

        def scalar(v) -> float:
            return float("nan") if v is None else float(v)

        return cls(
            source_variance=untable(doc["source_variance"]),
            target_variance=untable(doc["target_variance"]),
            mean_shift=untable(doc["mean_shift"]),
            proxy_a_distance=scalar(doc["proxy_a_distance"]),
            spearman=scalar(doc["spearman_rho"]),
            kendall=scalar(doc["kendall_tau"]),
            tp_ratio=untable(doc["tp_ratio"]),
            pseudo_count=int(doc.get("pseudo_count", 0)),
        )


def _json_float(x: float):
    """Floats for JSON output; non-finite values become null."""
    x = float(x)
    return x if np.isfinite(x) else None
