"""The per-step kernels against verbatim copies of the formulas they replaced, bit for bit.

The adaptation step's kernels take their reductions through the ufuncs themselves and the
softmax's row max through ``argmax`` and a gather. Each oracle below is the formula as it
read before that rewrite, so these tests hold on both sides of it. The inputs are the
shapes one default step sees, (128, 8), (64, 8), (118, 8) and (n, 2, 8), and rows of
special values: signed zeros, infinities and NaNs, including rows whose maximum is a
signed zero, where ``max`` and the gather may disagree on the sign.
"""

import numpy as np
import pytest

from pacf import adapt, losses, mathcore, prototypes
from pacf.errors import Diverged
from pacf.prototypes import PrototypeSet

STEP_SHAPES = [(128, 8), (64, 8), (118, 8), (59, 2, 8)]
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 3.5, -700.0,
                    710.0, 5e-324])


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def without_nan_signs(a):
    """``a`` with every NaN made the positive quiet NaN: no comparison, and no text form
    that a run writes, tells a NaN's sign or payload."""
    return np.where(np.isnan(a), np.nan, a)


def step_rows(shape, seed):
    """Random logits of a step's shape, at a logit scale the trainer reaches."""
    return np.random.default_rng(seed).standard_normal(shape) * 6.0


def special_rows(width, count=742, seed=5):
    """``count`` rows drawn from ``SPECIAL``, then rows whose maximum is a signed zero."""
    rng = np.random.default_rng(seed)
    rows = SPECIAL[rng.integers(0, len(SPECIAL), size=(count, width))]
    zero_max = np.full((4, max(width, 2)), -np.inf)
    zero_max[0, :2] = [-0.0, 0.0]
    zero_max[1, :2] = [0.0, -0.0]
    zero_max[2, 0] = -0.0
    zero_max[3, -2:] = [-0.0, -0.0]
    return np.vstack([rows, zero_max[:, :width]])


def oracle_softmax_rows(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_log_probabilities(logits):
    if logits.shape[1] == 1:
        z = logits[:, 0]
        return np.stack([-mathcore.softplus(-z), -mathcore.softplus(z)], axis=1)
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def oracle_cross_entropy_rows(log_probs, probs, labels, logit_width):
    rows = np.arange(len(labels))
    onehot = np.zeros_like(probs)
    onehot[rows, labels] = 1.0
    return -log_probs[rows, labels], (probs - onehot)[:, :logit_width]


def oracle_blend_rows(prev, means, mean_norms, initialized):
    prev_norms = np.where(initialized, mathcore.row_norms(prev), 1.0)
    cos = np.einsum("ij,ij->i", prev, means) / (prev_norms * mean_norms)
    alpha = np.where(initialized, (cos + 1.0) / 2.0, 1.0)
    blended = (1.0 - alpha)[:, None] * prev + alpha[:, None] * means
    return alpha, blended / mathcore.row_norms(blended)[:, None]


def oracle_pseudo_labels(probs, threshold, class_count):
    """The confidence filter of ``generate_pseudo_labels`` on its teacher's ``probs``."""
    confidence = probs.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(confidence))
    if len(bad):
        raise Diverged(f"the teacher's class probabilities for target row {bad[0] + 1} "
                       "are not finite")
    labels = probs.argmax(axis=1)
    idx = np.flatnonzero((confidence >= threshold) & (labels < class_count))
    return idx, labels[idx], confidence[idx]


class TestSoftmaxRows:
    @pytest.mark.parametrize("shape", STEP_SHAPES, ids=str)
    def test_step_shapes(self, shape):
        z = step_rows(shape, 1)
        assert_bitwise_equal(mathcore.softmax_rows(z), oracle_softmax_rows(z))

    @pytest.mark.parametrize("width", [8, 2])
    def test_special_rows(self, width):
        # a row holding a NaN comes out all NaN either way, though the NaN's sign may
        # differ: the gathered NaN is the row's first, and max may return another
        z = special_rows(width)
        with np.errstate(all="ignore"):
            assert_bitwise_equal(without_nan_signs(mathcore.softmax_rows(z)),
                                 without_nan_signs(oracle_softmax_rows(z)))

    def test_signed_zero_maximum(self):
        z = special_rows(8)[-4:]
        with np.errstate(all="ignore"):
            assert_bitwise_equal(mathcore.softmax_rows(z), oracle_softmax_rows(z))

    def test_ties_and_one_row(self):
        z = np.array([[2.0, 2.0, -1.0], [-3.0, 5.0, 5.0]])
        assert_bitwise_equal(mathcore.softmax_rows(z), oracle_softmax_rows(z))
        assert_bitwise_equal(mathcore.softmax_rows(z[0]), oracle_softmax_rows(z[0]))

    def test_non_contiguous_rows(self):
        z = step_rows((64, 16), 2)[:, ::2]
        assert_bitwise_equal(mathcore.softmax_rows(z), oracle_softmax_rows(z))

    def test_class_probabilities_of_the_prototype_scores(self):
        scores = (step_rows((118, 16), 3) / 40.0).reshape(236, 8)
        assert_bitwise_equal(losses.class_probabilities(scores), oracle_softmax_rows(scores))


class TestLogProbabilities:
    @pytest.mark.parametrize("shape", [(128, 8), (64, 8), (118, 8), (118, 1)], ids=str)
    def test_step_shapes(self, shape):
        z = step_rows(shape, 4)
        assert_bitwise_equal(losses.log_probabilities(z), oracle_log_probabilities(z))

    @pytest.mark.parametrize("width", [8, 2, 1])
    def test_special_rows(self, width):
        z = special_rows(width)
        with np.errstate(all="ignore"):
            assert_bitwise_equal(losses.log_probabilities(z), oracle_log_probabilities(z))

    def test_signed_zero_maximum(self):
        # z = logits - max holds each zero with a sign that depends on which zero the max
        # returned; the result is z minus a log-sum of at least log 2
        z = np.array([[-0.0, 0.0, -np.inf], [0.0, -0.0, -np.inf], [-0.0, -np.inf, -1.0]])
        with np.errstate(all="ignore"):
            assert_bitwise_equal(losses.log_probabilities(z), oracle_log_probabilities(z))


class TestCrossEntropyRows:
    @pytest.mark.parametrize("n", [128, 64, 118])
    def test_linear_head(self, n):
        logits = step_rows((n, 8), 6)
        labels = np.random.default_rng(7).integers(0, 8, size=n)
        args = (losses.log_probabilities(logits), losses.class_probabilities(logits), labels, 8)
        for got, want in zip(losses.cross_entropy_rows(*args), oracle_cross_entropy_rows(*args)):
            assert_bitwise_equal(got, want)

    def test_prototype_scores_with_repeated_labels(self):
        scores = (step_rows((59, 16), 8) / 40.0).reshape(118, 8)
        posteriors = losses.class_probabilities(scores).reshape(59, 2, 8)
        labels = np.repeat(np.random.default_rng(9).integers(0, 8, size=59), 2)
        args = (losses.log_probabilities(scores), posteriors.reshape(118, 8), labels, 8)
        for got, want in zip(losses.cross_entropy_rows(*args), oracle_cross_entropy_rows(*args)):
            assert_bitwise_equal(got, want)

    def test_sigmoid_pair_keeps_one_column(self):
        logits = step_rows((64, 1), 10)
        labels = np.random.default_rng(11).integers(0, 2, size=64)  # 1 is "no class"
        args = (losses.log_probabilities(logits), losses.class_probabilities(logits), labels, 1)
        for got, want in zip(losses.cross_entropy_rows(*args), oracle_cross_entropy_rows(*args)):
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("width", [8, 2])
    def test_special_rows(self, width):
        probs = special_rows(width)
        log_probs = special_rows(width, seed=12)
        labels = np.random.default_rng(13).integers(0, width, size=len(probs))
        with np.errstate(all="ignore"):
            for logit_width in (width, 1):
                args = (log_probs, probs, labels, logit_width)
                for got, want in zip(losses.cross_entropy_rows(*args),
                                     oracle_cross_entropy_rows(*args)):
                    assert_bitwise_equal(got, want)


def prototype_rows(seed, count, dim=128):
    rows = np.random.default_rng(seed).standard_normal((count, dim))
    return rows / mathcore.row_norms(rows)[:, None]


class TestBlendRows:
    @pytest.mark.parametrize("scale", [1.0, 3.0], ids=["unit", "scaled"])
    @pytest.mark.parametrize("count", [8, 5, 1])
    def test_full_set(self, count, scale):
        prev = prototype_rows(14, count) * scale
        means = np.random.default_rng(15).standard_normal((count, 128))
        args = (prev, means, mathcore.row_norms(means), np.ones(count, dtype=bool))
        for got, want in zip(prototypes.blend_rows(*args), oracle_blend_rows(*args)):
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 0.25], ids=["unit", "scaled", "shrunk"])
    def test_one_pair(self, scale):
        # the per-instance blend, whose previous row need not have unit norm
        prev = prototype_rows(28, 1)[0] * scale
        mean = np.random.default_rng(29).standard_normal(128)
        alpha, rows = oracle_blend_rows(prev[None], mean[None],
                                        mathcore.row_norms(mean[None]), np.ones(1, dtype=bool))
        assert prototypes.blend_weight(prev, mean) == float(alpha[0])
        assert_bitwise_equal(prototypes.update_prototype(prev, mean), rows[0])

    def test_partial_set(self):
        initialized = np.array([True, False, True, True, False, True, False, True])
        prev = prototype_rows(16, 8) * initialized[:, None]
        means = np.random.default_rng(17).standard_normal((8, 128))
        args = (prev, means, mathcore.row_norms(means), initialized)
        for got, want in zip(prototypes.blend_rows(*args), oracle_blend_rows(*args)):
            assert_bitwise_equal(got, want)


def oracle_update(pset, features, labels):
    """The rows ``update_all`` stores for the classes present, by the oracle blend."""
    counts = np.bincount(labels, minlength=pset.class_count)
    present = np.flatnonzero(counts)
    onehot = (labels == present[:, None]).astype(np.float64)
    means = (onehot @ features) / counts[present, None]
    stored = set(pset.initialized_classes())
    prev = np.array([pset.get(k) if k in stored else np.zeros(pset.dim) for k in present])
    initialized = np.array([k in stored for k in present])
    return present, oracle_blend_rows(prev, means, mathcore.row_norms(means), initialized)[1]


class TestUpdateAllRows:
    """``update_all``'s stored rows, on full sets (read through their matrix or not) and
    on partial ones, at the batch sizes of a step."""

    def pset(self, classes):
        rows = prototype_rows(18, 8)
        return PrototypeSet("target", 8, 128, {k: rows[k] for k in classes})

    @pytest.mark.parametrize("n", [64, 59, 3])
    @pytest.mark.parametrize("matrix_read", [False, True])
    @pytest.mark.parametrize("classes", [range(8), (0, 2, 3, 7)], ids=["full", "partial"])
    def test_rows(self, n, matrix_read, classes):
        pset = self.pset(classes)
        if matrix_read and pset.fully_initialized:
            pset.matrix()
        rng = np.random.default_rng(19 + n)
        features = rng.standard_normal((n, 128)) * 4.0
        labels = rng.integers(0, 8, size=n)
        updated = prototypes.update_all(pset, features, labels)
        present, rows = oracle_update(pset, features, labels)
        for k, row in zip(present.tolist(), rows):
            assert_bitwise_equal(updated.get(k), row)


class TestPseudoLabels:
    """``generate_pseudo_labels`` against the confidence filter it had, on teacher
    probabilities given directly."""

    @pytest.fixture()
    def given_probs(self, monkeypatch):
        def run(probs, threshold=0.8, class_count=8):
            teacher = adapt.init_state(adapt.TrainerConfig(feature_dim=4), 3, class_count).student
            monkeypatch.setattr(adapt, "forward", lambda params, x: (None, probs))
            return adapt.generate_pseudo_labels(teacher, np.zeros((len(probs), 3)), threshold)
        return run

    @pytest.mark.parametrize("n", [64, 118])
    @pytest.mark.parametrize("threshold", [0.3, 0.8, 1.5])
    def test_step_probabilities(self, given_probs, n, threshold):
        probs = losses.class_probabilities(step_rows((n, 8), 20) / 2.0)
        pseudo = given_probs(probs, threshold)
        for got, want in zip((pseudo.indices, pseudo.labels, pseudo.scores),
                             oracle_pseudo_labels(probs, threshold, 8)):
            assert_bitwise_equal(got, want)

    def test_sigmoid_pairs(self, given_probs):
        probs = losses.class_probabilities(step_rows((64, 1), 21))
        pseudo = given_probs(probs, 0.6, class_count=1)
        for got, want in zip((pseudo.indices, pseudo.labels, pseudo.scores),
                             oracle_pseudo_labels(probs, 0.6, 1)):
            assert_bitwise_equal(got, want)

    def test_ties_zeros_and_infinities(self, given_probs):
        rows = special_rows(8)
        with np.errstate(invalid="ignore"):
            finite = rows[np.isfinite(rows.max(axis=1))]  # a row max of -inf, inf or NaN diverges
        probs = np.vstack([finite, [[0.5, 0.5, 0, 0, 0, 0, 0, 0]], np.zeros((2, 8))])
        probs[-1, 3] = -0.0
        pseudo = given_probs(probs, 0.4)
        for got, want in zip((pseudo.indices, pseudo.labels, pseudo.scores),
                             oracle_pseudo_labels(probs, 0.4, 8)):
            assert_bitwise_equal(got, want)

    def test_non_finite_rows_name_the_same_row(self, given_probs):
        probs = special_rows(8)
        with pytest.raises(Diverged) as want:
            oracle_pseudo_labels(probs, 0.8, 8)
        with pytest.raises(Diverged) as got:
            given_probs(probs)
        assert str(got.value) == str(want.value)


def oracle_pair_divergence(kind, a, b):
    if kind == "l2":
        diff = a - b
        return (diff * diff).sum(axis=-1), 2.0 * diff, -2.0 * diff
    if kind == "kl":
        log_a, log_b = mathcore.clamped_log(a), mathcore.clamped_log(b)
        return ((a * (log_a - log_b)).sum(axis=-1), log_a - log_b + 1.0,
                np.where(b > mathcore.CLAMP_EPS, -a / np.maximum(b, mathcore.CLAMP_EPS), 0.0))
    log_m = mathcore.clamped_log(0.5 * (a + b))
    from_a, from_b = mathcore.clamped_log(a) - log_m, mathcore.clamped_log(b) - log_m
    return (0.5 * (a * from_a).sum(axis=-1) + 0.5 * (b * from_b).sum(axis=-1),
            0.5 * from_a, 0.5 * from_b)


def oracle_softmax_vjp_rows(probs, grad_probs):
    inner = (probs * grad_probs).sum(axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def oracle_chain(geometry, features, grad_scores):
    n = len(features)
    grad_cos = grad_scores[:, :geometry.cos.shape[1] // 2].reshape(n, -1) / geometry.tau / n
    radial = (grad_cos * geometry.cos).sum(axis=1)
    return (grad_cos @ geometry.matrix / geometry.norms[:, None]
            - radial[:, None] * features / (geometry.norms ** 2)[:, None])


class TestBatchMeans:
    """The loss terms' batch means and sums, each against its formula as it read."""

    def test_cross_entropy_batch(self):
        logits = step_rows((118, 8), 22)
        labels = np.random.default_rng(23).integers(0, 8, size=118)
        value, grad = losses.cross_entropy_batch(logits, losses.class_probabilities(logits),
                                                 labels)
        nll = -oracle_log_probabilities(logits)[np.arange(118), labels]
        assert value == float(nll.mean())
        assert_bitwise_equal(grad, oracle_cross_entropy_rows(
            oracle_log_probabilities(logits), oracle_softmax_rows(logits), labels, 8)[1] / 118)

    def test_discriminator_bce_batch(self):
        rng = np.random.default_rng(24)
        features, weight = rng.standard_normal((128, 128)), rng.standard_normal(128) * 0.1
        domain = np.repeat([0.0, 1.0], 64)
        value, grad_w, grad_b, _ = losses.discriminator_bce_batch(features, domain, weight, 0.3)
        z = features @ weight + 0.3
        dz = (mathcore.sigmoid(z) - domain) / 128
        assert value == float((mathcore.softplus(z) - domain * z).mean())
        assert_bitwise_equal(grad_b, np.asarray(dz.sum()))
        assert_bitwise_equal(grad_w, features.T @ dz)

    @pytest.mark.parametrize("kind", ["jsd", "kl", "l2"])
    def test_prototype_terms(self, kind):
        rng = np.random.default_rng(25)
        rows = prototype_rows(26, 16)
        src, tgt = (PrototypeSet(domain, 8, 128, dict(enumerate(rows[i::2])))
                    for i, domain in enumerate(("source", "target")))
        features = rng.standard_normal((59, 128)) * 3.0
        labels = rng.integers(0, 8, size=59)
        probs = losses.class_probabilities(step_rows((59, 8), 27))
        geometry = losses.prototype_geometries(features, src, tgt, 0.05)
        value, grad = losses.prototype_cross_entropy_batch(features, labels, geometry)
        nll, grad_scores = oracle_cross_entropy_rows(
            oracle_log_probabilities(geometry.scores), geometry.posteriors.reshape(118, -1),
            np.repeat(labels, 2), 8)
        assert value == float(nll.reshape(59, 2).mean(axis=0).sum())
        assert_bitwise_equal(grad, oracle_chain(geometry, features, grad_scores))

        value, grad_logits, grad = losses.mutual_regularization_batch(features, probs, geometry,
                                                                      kind, 8)
        values, g_lin, g_post = oracle_pair_divergence(kind, probs[:, None], geometry.posteriors)
        assert value == float(values.sum(axis=1).mean())
        assert_bitwise_equal(grad_logits, oracle_softmax_vjp_rows(probs, g_lin.sum(axis=1)) / 59)
        grad_scores = oracle_softmax_vjp_rows(geometry.posteriors, g_post).reshape(118, -1)
        assert_bitwise_equal(grad, oracle_chain(geometry, features, grad_scores))
