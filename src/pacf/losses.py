"""The training objective: one batched implementation of every loss term.

Each term is a ``*_batch`` kernel over n rows (embeddings, or the linear
classifier's distributions over them). It returns the batch-mean value in
nats and the gradient of that mean with respect to its inputs: logits,
features, or the discriminator's own parameters. The trainer in
:mod:`pacf.adapt` sums them over one stacked batch (:func:`total_loss`) and
chains the sum to its parameters once. The ``*_rows`` kernels they build on
return per-row values and per-row gradients. The two prototype terms read
one stacked :class:`Geometry` of the features against both prototype sets,
with each set's posterior, from :func:`prototype_geometries`; a step
computes it once, and each term chains back through it once.

The public per-instance operations (:func:`prototype_posterior`,
:func:`prototype_cross_entropy`, :func:`regularizer_variant`,
:func:`mutual_regularization`, :func:`classification_loss` and
:func:`domain_adversarial_loss`) are batch-of-one views: they validate one
instance and call the same kernels, so the gradients they expose are the
gradients that train. Each returns a :class:`LossValue` carrying the
scalar value plus

* ``grad_features``   gradient w.r.t. the instance feature vector,
* ``grad_params``     named gradients for trainable parameters,
* ``grad_inputs``     named gradients w.r.t. inputs: distributions or logits
                      here, the stacked logits and embeddings in the trainer.

Prototypes are constant buffers everywhere: no loss exposes a gradient path
into a prototype entry. The domain-adversarial term bakes gradient reversal
into the feature gradient (the sign-flipped discriminator gradient); its
parameter gradients stay un-reversed so the discriminator itself still
learns. A single-class model uses the sigmoid pair [p, 1 - p] wherever a
softmax row would be, so its logits and cosines have one column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, NamedTuple

import numpy as np

from . import mathcore
from .errors import DimensionMismatch, check_fields, rule
from .mathcore import CLAMP_EPS, clamped_log, nonzero_norms
from .prototypes import PrototypeSet


# the objective's terms, in order: a term t is weighted by LossWeights.lambda_<t>, and sup by 1
TERMS = ("sup", "unsup", "dis", "pce", "mut")


@dataclass(frozen=True)
class LossValue:
    value: float
    grad_features: np.ndarray | None = None
    grad_params: dict[str, np.ndarray] = field(default_factory=dict)
    grad_inputs: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights for the composed objective."""

    lambda_unsup: float = rule(1.0, "[0, inf)")
    lambda_dis: float = rule(0.1, "[0, inf)")
    lambda_pce: float = rule(1.0, "[0, inf)")
    lambda_mut: float = rule(1.0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def pop_from(cls, doc: dict) -> "LossWeights":
        """Weights from the ``lambda_*`` keys present in ``doc``, removing them from it.

        Absent keys keep the defaults above.
        """
        return cls(**{f.name: doc.pop(f.name) for f in fields(cls) if f.name in doc})


# --- batched kernels ----------------------------------------------------------

def class_probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise class distribution; a single logit column yields [p, 1 - p] rows."""
    if logits.shape[1] == 1:
        p0 = mathcore.sigmoid(logits[:, 0])
        return np.stack([p0, 1.0 - p0], axis=1)
    return mathcore.softmax_rows(logits)


def log_probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise log of :func:`class_probabilities`, exact where it underflows."""
    if logits.shape[1] == 1:
        z = logits[:, 0]
        return np.stack([-mathcore.softplus(-z), -mathcore.softplus(z)], axis=1)
    # max, not softmax_rows' gather: the sign of a +-0 max can reach a log-probability
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))


def cross_entropy_rows(log_probs: np.ndarray, probs: np.ndarray, labels: np.ndarray,
                       logit_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log p[label] and its gradient w.r.t. the row's logits (p - onehot).

    A sigmoid pair has one logit, so only the first ``logit_width`` columns
    of the gradient are kept.
    """
    rows = np.arange(len(labels))
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return -log_probs[rows, labels], grad[:, :logit_width]


def cross_entropy_batch(logits: np.ndarray, probs: np.ndarray, labels: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """Mean cross entropy of the linear classifier and its gradient w.r.t. the logits.

    ``probs`` must be :func:`class_probabilities` of ``logits``.
    """
    nll, grad_logits = cross_entropy_rows(log_probabilities(logits), probs, labels,
                                          logits.shape[1])
    return float(np.add.reduce(nll) / len(labels)), grad_logits / len(labels)


def prototype_geometry(features: np.ndarray, matrix: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of the features and their cosines against each unit prototype row."""
    if features.shape[1] != matrix.shape[1]:
        raise DimensionMismatch(
            f"feature dim {features.shape[1]} does not match prototype dim {matrix.shape[1]}")
    norms = nonzero_norms(features, "cosine against a prototype is undefined for a zero feature")
    return norms, (features / norms[:, None]) @ matrix.T


def cosine_grad_to_features(grad_cos: np.ndarray, cos: np.ndarray, features: np.ndarray,
                            norms: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Chain per-row cosine gradients back to the features.

    d cos_k / dx = mu_k / |x| - cos_k * x / |x|^2  (prototypes are unit norm).
    """
    radial = np.add.reduce(grad_cos * cos, axis=1)
    return grad_cos @ matrix / norms[:, None] - radial[:, None] * features / (norms ** 2)[:, None]


class Geometry(NamedTuple):
    """A batch of features against the source and the target prototypes, stacked source
    first, with each set's posterior at ``tau`` (the sigmoid pair for a single class)."""

    matrix: np.ndarray      # (2C, dim) unit prototype rows, source then target
    norms: np.ndarray       # (n,) feature row norms
    cos: np.ndarray         # (n, 2C) cosine of each feature to each prototype
    tau: float              # the temperature of the posteriors
    scores: np.ndarray      # (2n, C) cos / tau, one row per feature and set, source first
    posteriors: np.ndarray  # (n, 2, K = max(C, 2)) p_src(y|x) and p_tgt(y|x)

    def chain(self, features: np.ndarray, grad_scores: np.ndarray) -> np.ndarray:
        """The feature gradient of a batch mean from its gradient w.r.t. ``scores``,
        of which a sigmoid pair's second column is dropped (it has one score)."""
        n = len(features)
        grad_cos = grad_scores[:, :self.cos.shape[1] // 2].reshape(n, -1) / self.tau / n
        return cosine_grad_to_features(grad_cos, self.cos, features, self.norms, self.matrix)


def prototype_geometries(features: np.ndarray, src: PrototypeSet, tgt: PrototypeSet,
                         tau: float) -> Geometry:
    """The stacked geometry of ``features`` against the source and the target set.

    The prototype terms of one step share it, so it is computed once.
    """
    if (src.class_count, src.dim) != (tgt.class_count, tgt.dim):
        raise DimensionMismatch(f"source/target prototype sets disagree on (classes, dim): "
                                f"{(src.class_count, src.dim)} vs {(tgt.class_count, tgt.dim)}")
    matrix = np.concatenate([src.matrix(), tgt.matrix()])
    norms, cos = prototype_geometry(features, matrix)
    scores = (cos / tau).reshape(2 * len(cos), -1)
    posteriors = class_probabilities(scores).reshape(len(features), 2, -1)
    return Geometry(matrix, norms, cos, tau, scores, posteriors)


def prototype_cross_entropy_batch(features: np.ndarray, labels: np.ndarray,
                                  geometry: Geometry) -> tuple[float, np.ndarray]:
    """Mean prototype cross entropy over both domains and its feature gradient.

    Per row: -log p_src(y|x) - log p_tgt(y|x), with p the cosine softmax at
    temperature tau (the sigmoid pair for a single class).
    """
    n = len(labels)
    nll, grad_scores = cross_entropy_rows(
        log_probabilities(geometry.scores), geometry.posteriors.reshape(2 * n, -1),
        np.repeat(labels, 2), geometry.posteriors.shape[2])
    mean_nll = np.add.reduce(nll.reshape(n, 2), axis=0) / n
    return float(np.add.reduce(mean_nll)), geometry.chain(features, grad_scores)


def pair_divergence(kind: str, a: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (value, d/da, d/db) of one regularizer pair. Gradients use clamped logs."""
    if kind == "l2":
        diff = a - b
        return np.add.reduce(diff * diff, axis=-1), 2.0 * diff, -2.0 * diff
    if kind == "kl":
        # the value is flat in b where clamped_log floors it, so d/db is 0 there
        return (mathcore.kl_rows(a, b), clamped_log(a) - clamped_log(b) + 1.0,
                np.where(b > CLAMP_EPS, -a / np.maximum(b, CLAMP_EPS), 0.0))
    if kind == "jsd":
        # mathcore.js_rows, bit for bit, with each log taken once and shared with d/da, d/db
        log_m = clamped_log(0.5 * (a + b))
        from_a, from_b = clamped_log(a) - log_m, clamped_log(b) - log_m
        return (0.5 * np.add.reduce(a * from_a, axis=-1)
                + 0.5 * np.add.reduce(b * from_b, axis=-1),
                0.5 * from_a, 0.5 * from_b)
    raise ValueError(f"unknown regularizer kind {kind!r}")


def regularizer_rows(kind: str, p_lin: np.ndarray, posteriors: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row D(p_lin, p_src) + D(p_lin, p_tgt) and its gradients w.r.t. p_lin and
    ``posteriors``, which stacks p_src and p_tgt on axis 1 as (n, 2, K)."""
    values, g_lin, g_post = pair_divergence(kind, p_lin[:, None], posteriors)
    return np.add.reduce(values, axis=1), np.add.reduce(g_lin, axis=1), g_post


def mutual_regularization_batch(features: np.ndarray, probs: np.ndarray, geometry: Geometry,
                                kind: str, logit_width: int
                                ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean regularizer coupling the linear distribution to both prototype posteriors.

    Returns the value and its gradients w.r.t. the linear logits and w.r.t.
    the features, through both posteriors.
    """
    n = len(features)
    values, g_lin, g_post = regularizer_rows(kind, probs, geometry.posteriors)
    grad_logits = mathcore.softmax_vjp_rows(probs, g_lin)[:, :logit_width] / n
    grad_scores = mathcore.softmax_vjp_rows(geometry.posteriors, g_post).reshape(2 * n, -1)
    return float(np.add.reduce(values) / n), grad_logits, geometry.chain(features, grad_scores)


def discriminator_bce_batch(features: np.ndarray, domain: np.ndarray, weight: np.ndarray,
                            bias: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean BCE of the logistic domain discriminator (0 = source, 1 = target).

    Returns the value, the discriminator's weight and bias gradients, and the
    feature gradient with the gradient-reversal sign flip applied.
    """
    z = features @ weight + float(bias)
    value = float(np.add.reduce(mathcore.softplus(z) - domain * z) / len(domain))
    dz = (mathcore.sigmoid(z) - domain) / len(domain)
    return value, features.T @ dz, np.asarray(np.add.reduce(dz)), np.multiply.outer(-dz, weight)


# --- per-instance operations: batch-of-one views of the kernels -------------------

def prototype_posterior(x, pset: PrototypeSet, tau: float) -> np.ndarray:
    """Class distribution from cosine similarities against one prototype set.

    Multi-class sets use softmax(cos / tau); a single-class set uses the
    sigmoid pair [p, 1 - p].
    """
    tau = mathcore._check_temperature(tau)
    _, cos = prototype_geometry(mathcore.as_vector(x)[None], pset.matrix())
    return class_probabilities(cos / tau)[0]


def prototype_cross_entropy(x, pseudo_label: int, src: PrototypeSet, tgt: PrototypeSet,
                            tau: float) -> LossValue:
    """Negative log cosine-softmax posterior at the pseudo label, in both domains.

    value = -log p_src(y~|x) - log p_tgt(y~|x). ``grad_features`` is the exact
    gradient through both cosine-softmax branches; prototypes receive none.
    """
    if not (0 <= pseudo_label < max(src.class_count, 2)):
        raise ValueError(f"pseudo label {pseudo_label} out of range")
    x = mathcore.as_vector(x)[None]
    geometry = prototype_geometries(x, src, tgt, mathcore._check_temperature(tau))
    value, grad = prototype_cross_entropy_batch(x, np.array([pseudo_label]), geometry)
    return LossValue(value=value, grad_features=grad[0])


def regularizer_variant(p_lin, p_src, p_tgt, kind: str) -> LossValue:
    """Couple the linear distribution to both prototype posteriors.

    l2:  |p_lin - p_src|^2 + |p_lin - p_tgt|^2
    kl:  KL(p_lin || p_src) + KL(p_lin || p_tgt)
    jsd: JS(p_lin || p_src) + JS(p_lin || p_tgt)

    ``grad_inputs`` carries d/d p_lin, d/d p_src and d/d p_tgt so the caller
    can chain each branch through its own softmax.
    """
    p_lin, p_src, p_tgt = mathcore.as_vectors(p_lin, p_src, p_tgt)
    values, g_lin, g_post = regularizer_rows(kind, p_lin[None], np.stack([p_src, p_tgt])[None])
    return LossValue(
        value=float(values[0]),
        grad_inputs={"p_lin": g_lin[0], "p_src": g_post[0, 0], "p_tgt": g_post[0, 1]},
    )


def mutual_regularization(p_lin, p_src, p_tgt) -> LossValue:
    """JS coupling between the linear distribution and both prototype posteriors."""
    return regularizer_variant(p_lin, p_src, p_tgt, "jsd")


def classification_loss(p_lin, label: int) -> LossValue:
    """Cross entropy -log p_lin[label].

    ``grad_inputs['logits']`` is the gradient through the softmax that
    produced ``p_lin`` (probs minus one-hot).
    """
    p = mathcore.as_vector(p_lin)
    if not (0 <= label < p.size):
        raise ValueError(f"label {label} out of range for {p.size} classes")
    nll, grad_logits = cross_entropy_rows(clamped_log(p)[None], p[None], np.array([label]),
                                          p.size)
    return LossValue(value=float(nll[0]), grad_inputs={"logits": grad_logits[0]})


def domain_adversarial_loss(x, domain_label: int, discriminator_w,
                            discriminator_b: float) -> LossValue:
    """Binary cross entropy of a logistic domain discriminator over a feature.

    domain_label is 0 for source, 1 for target. ``grad_params`` holds the
    standard discriminator gradient; ``grad_features`` is the feature gradient
    with the gradient-reversal sign flip already applied.
    """
    x, w = mathcore.as_vectors(x, discriminator_w)
    if domain_label not in (0, 1):
        raise ValueError(f"domain label must be 0 or 1, got {domain_label!r}")
    value, grad_w, grad_b, grad_features = discriminator_bce_batch(
        x[None], np.array([float(domain_label)]), w, discriminator_b)
    return LossValue(
        value=value,
        grad_features=grad_features[0],
        grad_params={"discriminator_w": grad_w, "discriminator_b": grad_b},
    )


def total_loss(components: Mapping[str, LossValue], weights: LossWeights, *,
               rows: Mapping[str, object] | None = None, row_count: int = 0) -> LossValue:
    """Weighted sum of the objective terms.

    value = sup + lambda_unsup * unsup + lambda_dis * dis
              + lambda_pce * pce + lambda_mut * mut

    Every gradient field combines linearly with the same weights, key by key,
    in component order; missing components contribute nothing. The
    ``grad_inputs`` of a component named in ``rows`` cover only those rows of
    a ``row_count``-row batch and add into them; the summed ``grad_inputs``
    cover every row, zero where no term does.
    """
    unknown = set(components) - set(TERMS)
    if unknown:
        raise ValueError(f"unknown loss components: {sorted(unknown)}")
    rows = rows or {}
    value = 0.0
    grad_features: np.ndarray | None = None
    grad_params, grad_inputs = {}, {}
    for name, loss in components.items():
        weight = 1.0 if name == "sup" else getattr(weights, f"lambda_{name}")
        value += weight * loss.value
        if loss.grad_features is not None:
            contrib = weight * loss.grad_features
            grad_features = contrib if grad_features is None else grad_features + contrib
        for key, grad in loss.grad_params.items():
            contrib = weight * grad
            grad_params[key] = contrib if key not in grad_params else grad_params[key] + contrib
        where = rows.get(name, slice(None))
        for key, grad in loss.grad_inputs.items():
            contrib = weight * grad
            if key in grad_inputs:
                grad_inputs[key][where] += contrib  # every sum here is a fresh array
            elif name in rows:
                grad_inputs[key] = np.zeros((row_count, contrib.shape[1]))
                grad_inputs[key][where] = contrib
            else:
                grad_inputs[key] = contrib
    return LossValue(value, grad_features, grad_params, grad_inputs)
