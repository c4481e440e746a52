"""Vector geometry and probability primitives shared by the other modules.

Everything here is a pure function over float64 arrays, apart from the ``out``
array ``sigmoid`` may write to. The public vector operations validate 1-D
inputs; ``sigmoid``, ``softplus`` and
``clamped_log`` act elementwise, and the ``*_rows`` kernels act along the
last axis, so one formula serves a single vector and a batch of rows alike.

Divergences use the natural logarithm (values in nats), so the
Jensen-Shannon divergence is bounded by ln 2. Probabilities are floored at
``CLAMP_EPS`` inside logarithms, which keeps divergences finite at exact
zeros; vectors with norm at or below ``NORM_EPS`` are rejected as zero.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidTemperature, ZeroVector

NORM_EPS = 1e-12
CLAMP_EPS = 1e-12


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a non-empty, finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def as_vectors(*values) -> tuple[np.ndarray, ...]:
    """Each of ``values`` by :func:`as_vector`; :class:`DimensionMismatch` unless all have
    one length."""
    vectors = tuple(map(as_vector, values))
    if len({len(v) for v in vectors}) > 1:
        raise DimensionMismatch("vectors of unequal lengths: "
                                + " vs ".join(str(len(v)) for v in vectors))
    return vectors


def clamped_log(p: np.ndarray) -> np.ndarray:
    """Elementwise natural log with the argument floored at ``CLAMP_EPS``."""
    return np.log(np.maximum(p, CLAMP_EPS))


def l2_normalize(v) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving its direction."""
    v = as_vector(v)
    norm = float(np.linalg.norm(v))
    if norm <= NORM_EPS:
        raise ZeroVector(f"cannot normalize a vector with norm {norm!r}")
    return v / norm


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``rows``, by np.linalg.norm's sum for real rows."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def nonzero(norms: np.ndarray, message: str) -> np.ndarray:
    """``norms``; :class:`ZeroVector` with ``message`` if one is at most NORM_EPS."""
    if np.logical_or.reduce(norms <= NORM_EPS, axis=None):
        raise ZeroVector(message)
    return norms


def nonzero_norms(rows: np.ndarray, message: str) -> np.ndarray:
    """:func:`row_norms` of ``rows``, checked by :func:`nonzero`."""
    return nonzero(row_norms(rows), message)


def cosine_similarity(a, b) -> float:
    a, b = as_vectors(a, b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= NORM_EPS or nb <= NORM_EPS:
        raise ZeroVector("cosine similarity is undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def _check_temperature(tau: float) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0.0:
        raise InvalidTemperature(f"temperature must be positive and finite, got {tau!r}")
    return tau


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max-subtraction for stability."""
    # the row max by an argmax gather; exp erases where it differs: a zero max's sign, a NaN's
    top = z.argmax(axis=-1) + np.arange(0, z.size, z.shape[-1]).reshape(z.shape[:-1])
    e = np.exp(z - z.reshape(-1)[top][..., None])
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def temperature_softmax(scores, tau: float) -> np.ndarray:
    """Softmax of scores/tau by :func:`softmax_rows`, the max subtracted before the division."""
    tau = _check_temperature(tau)
    s = as_vector(scores)
    return softmax_rows((s - float(np.max(s))) / tau)


def softmax_vjp_rows(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Row-wise softmax VJP along the last axis: p_i * (g_i - sum_j p_j g_j)."""
    inner = np.add.reduce(probs * grad_probs, axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def softmax_vjp(probs, grad_probs) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the pre-softmax scores.

    For p = softmax(z):  dL/dz_i = p_i * (g_i - sum_j p_j g_j).
    """
    p, g = as_vectors(probs, grad_probs)
    return softmax_vjp_rows(p, g)


def sigmoid(z, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, elementwise, as an array of z's shape.

    With e = exp(-|z|) <= 1 it is 1 / (1 + e) for z >= 0 and e / (1 + e) otherwise,
    taken in one division as max(e, z >= 0) / (1 + e). -|z| is taken as min(z, -z),
    which keeps the sign of a NaN input. The result is written to ``out`` when given
    (a float64 array of z's shape, returned), and ``out`` may be ``z`` itself.
    """
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    elif np.may_share_memory(z, out):
        z = z.copy()
    e = np.minimum(z, np.negative(z, out=out), out=out)
    np.exp(e, out=e)
    numerator = np.maximum(e, z >= 0.0)
    e += 1.0
    return np.divide(numerator, e, out=out)


def softplus(z) -> np.ndarray:
    """log(1 + exp(z)) without overflow, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL(q || p) along the last axis, logs clamped as in :func:`kl_divergence`."""
    return np.add.reduce(q * (clamped_log(q) - clamped_log(p)), axis=-1)


def js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence along the last axis, symmetric in p and q bitwise."""
    m = 0.5 * (p + q)
    return 0.5 * kl_rows(p, m) + 0.5 * kl_rows(q, m)


def kl_divergence(q, p) -> float:
    """KL(q || p) in nats; both arguments floored at CLAMP_EPS inside the logs."""
    q, p = as_vectors(q, p)
    return float(kl_rows(q, p))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats: 0.5 KL(p||m) + 0.5 KL(q||m), m = (p+q)/2.

    Evaluated symmetrically, so js(p, q) == js(q, p) bitwise.
    """
    p, q = as_vectors(p, q)
    return float(js_rows(p, q))


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, the verification oracle.

    grad_i = (f(x + h e_i) - f(x - h e_i)) / (2 h)
    """
    x = as_vector(x)
    if not (h > 0.0):
        raise ValueError("step size h must be positive")
    grad = np.empty_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += h
        backward[i] -= h
        grad[i] = (float(f(forward)) - float(f(backward))) / (2.0 * h)
    return grad
