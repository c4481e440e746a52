import math

import numpy as np
import pytest

from pacf import losses, mathcore, prototypes
from pacf.errors import DimensionMismatch, InvalidTemperature, ZeroVector


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(mathcore.l2_normalize([3.0, 4.0]), [0.6, 0.8],
                                   rtol=0, atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_allclose(mathcore.l2_normalize([1.0, 0.0, 0.0]),
                                   [1.0, 0.0, 0.0], rtol=0, atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            mathcore.l2_normalize([0.0, 0.0])

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 20)) * 10 ** rng.uniform(-3, 3)
            if np.linalg.norm(v) <= 1e-12:
                continue
            assert abs(np.linalg.norm(mathcore.l2_normalize(v)) - 1.0) < 1e-12

    def test_direction_preserved(self):
        v = np.array([2.0, -5.0, 1.0])
        u = mathcore.l2_normalize(v)
        assert mathcore.cosine_similarity(u, v) == pytest.approx(1.0, abs=1e-12)


class TestNonzeroNorms:
    def test_norms(self):
        rows = np.array([[3.0, 4.0], [0.0, 1e-6]])
        np.testing.assert_array_equal(mathcore.nonzero_norms(rows, "unused"),
                                      np.linalg.norm(rows, axis=1))

    def test_zero_row_rejected_with_message(self):
        rows = np.array([[3.0, 4.0], [1e-13, 0.0]])
        with pytest.raises(ZeroVector, match="^a zero row$"):
            mathcore.nonzero_norms(rows, "a zero row")


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 2.0])
        assert mathcore.cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert mathcore.cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_evaluated(self):
        # dot = 1, norms sqrt(2) and 1
        expected = 1.0 / math.sqrt(2.0)
        assert mathcore.cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            expected, abs=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            mathcore.cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mathcore.cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            c = mathcore.cosine_similarity(a, b)
            assert c == mathcore.cosine_similarity(b, a)
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12

    def test_invariant_under_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.normal(size=6) * 3.0
            w = rng.normal(size=6) * 0.2
            direct = mathcore.cosine_similarity(v, w)
            normalized = mathcore.cosine_similarity(
                mathcore.l2_normalize(v), mathcore.l2_normalize(w))
            assert abs(direct - normalized) < 1e-12


class TestTemperatureSoftmax:
    def test_uniform_on_constant_scores(self):
        for tau in (0.01, 1.0, 50.0):
            np.testing.assert_allclose(
                mathcore.temperature_softmax([2.5, 2.5, 2.5], tau),
                [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_two_score_direct_formula(self):
        e = math.exp(1.0)
        np.testing.assert_allclose(
            mathcore.temperature_softmax([1.0, 0.0], 1.0),
            [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)

    def test_sharp_temperature_direct_formula(self):
        # gap 0.8 at tau 0.05 -> exp(16) ratio
        probs = mathcore.temperature_softmax([0.9, 0.1], 0.05)
        expected_small = math.exp(-16.0) / (1.0 + math.exp(-16.0))
        assert probs[1] == pytest.approx(expected_small, rel=1e-9)
        assert probs[0] == pytest.approx(1.0 - expected_small, rel=1e-12)

    def test_invalid_temperature(self):
        for tau in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidTemperature):
                mathcore.temperature_softmax([1.0, 2.0], tau)

    def test_normalization_property(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            scores = rng.normal(scale=10.0, size=rng.integers(1, 12))
            tau = 10 ** rng.uniform(-3, 3)
            probs = mathcore.temperature_softmax(scores, tau)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            scores = rng.normal(scale=5.0, size=6)
            tau = 10 ** rng.uniform(-2, 2)
            shift = rng.normal(scale=100.0)
            base = mathcore.temperature_softmax(scores, tau)
            shifted = mathcore.temperature_softmax(scores + shift, tau)
            np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_monotone_in_scores(self):
        probs = mathcore.temperature_softmax([0.1, 0.5, 0.9], 0.7)
        assert probs[0] < probs[1] < probs[2]

    @pytest.mark.parametrize("width", range(2, 10))
    def test_is_the_training_softmax_byte_for_byte(self, width):
        # criteria 1 and 3 check this function, so it must be the kernel training runs
        rng = np.random.default_rng(width)
        for z in rng.normal(scale=10.0, size=(200, width)):
            assert (mathcore.temperature_softmax(z, 1.0).tobytes()
                    == losses.class_probabilities(z[None])[0].tobytes())


class TestSigmoidProbability:
    def test_zero_score(self):
        np.testing.assert_allclose(losses.class_probabilities(np.array([[0.0 / 1.0]]))[0],
                                   [0.5, 0.5], atol=1e-15)

    def test_saturation(self):
        probs = losses.class_probabilities(np.array([[500.0 / 1.0]]))[0]
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula(self):
        expected = 1.0 / (1.0 + math.exp(-10.0))
        probs = losses.class_probabilities(np.array([[0.5 / 0.05]]))[0]
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert probs[1] == pytest.approx(1.0 - expected, rel=1e-9)


def oracle_sigmoid(z):
    """The masked two-branch logistic function: the reference for ``mathcore.sigmoid``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestSigmoid:
    """``sigmoid`` equals ``oracle_sigmoid`` bit for bit, signed zeros and NaNs included."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 709.8, -709.8,
               745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1e-300, -1e-300, 36.7, -36.7, 1.0, -1.0]

    def test_special_values(self):
        z = np.array(self.SPECIAL)
        z = np.concatenate([z, np.array([0x7FF8000000000123, 0xFFF8000000000321],
                                        dtype=np.uint64).view(np.float64)])  # NaN payloads
        assert_bitwise_equal(mathcore.sigmoid(z), oracle_sigmoid(z))

    def test_scaled_random_values(self):
        rng = np.random.default_rng(11)
        for k in range(-320, 309, 7):
            z = rng.standard_normal(257) * 10.0 ** k
            assert_bitwise_equal(mathcore.sigmoid(z), oracle_sigmoid(z))

    def test_shapes(self):
        rng = np.random.default_rng(12)
        for z in (np.float64(-3.5), 2.0, rng.standard_normal((3, 4)) * 50, np.zeros(0)):
            assert_bitwise_equal(mathcore.sigmoid(z), oracle_sigmoid(z))

    def test_scalars_give_zero_dimensional_arrays(self):
        for z in (np.float64(-3.5), 2.0, -0.0, np.nan):
            result = mathcore.sigmoid(z)
            assert type(result) is np.ndarray and result.shape == ()

    def test_out_receives_the_result(self):
        rng = np.random.default_rng(13)
        z = np.concatenate([np.array(self.SPECIAL), rng.standard_normal(301) * 40])
        out = np.full_like(z, 7.0)
        result = mathcore.sigmoid(z, out=out)
        assert result is out
        assert_bitwise_equal(out, oracle_sigmoid(z))

    def test_zero_dimensional_out(self):
        out = np.empty(())
        assert mathcore.sigmoid(np.float64(-3.5), out=out) is out
        assert_bitwise_equal(out, oracle_sigmoid(-3.5))

    def test_out_may_be_z_itself(self):
        rng = np.random.default_rng(14)
        z = np.concatenate([np.array(self.SPECIAL), rng.standard_normal(301) * 40])
        expected = oracle_sigmoid(z)
        assert mathcore.sigmoid(z, out=z) is z
        assert_bitwise_equal(z, expected)

    def test_out_overlapping_z_gives_the_sigmoid_of_z_as_it_was(self):
        z = np.random.default_rng(15).standard_normal(40) * 30
        expected = oracle_sigmoid(z[1:])
        assert_bitwise_equal(mathcore.sigmoid(z[1:], out=z[:-1]), expected)
        assert_bitwise_equal(z[:-1], expected)


class TestKlDivergence:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert mathcore.kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert mathcore.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_direct_formula(self):
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert mathcore.kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
            expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mathcore.kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            size = rng.integers(2, 9)
            q = rng.dirichlet(np.ones(size))
            p = rng.dirichlet(np.ones(size))
            assert mathcore.kl_divergence(q, p) >= 0.0


class TestJsDivergence:
    def test_identity(self):
        p = np.array([0.1, 0.6, 0.3])
        assert mathcore.js_divergence(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert mathcore.js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_direct_formula_and_symmetry(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.2, 0.8])
        m = 0.5 * (p + q)
        expected = 0.5 * sum(pi * math.log(pi / mi) for pi, mi in zip(p, m)) \
            + 0.5 * sum(qi * math.log(qi / mi) for qi, mi in zip(q, m))
        value = mathcore.js_divergence(p, q)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == mathcore.js_divergence(q, p)

    def test_bounds_and_bitwise_symmetry(self):
        rng = np.random.default_rng(6)
        bound = math.log(2.0) + 1e-12
        for _ in range(500):
            size = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(size) * rng.uniform(0.2, 3.0))
            q = rng.dirichlet(np.ones(size) * rng.uniform(0.2, 3.0))
            value = mathcore.js_divergence(p, q)
            assert 0.0 <= value <= bound
            assert value == mathcore.js_divergence(q, p)


class TestFiniteDifferenceGradient:
    def test_known_quadratic(self):
        grad = mathcore.finite_difference_gradient(
            lambda v: float(np.dot(v, v)), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        grad = mathcore.finite_difference_gradient(lambda v: 3.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_allclose(grad, [0.0, 0.0, 0.0], atol=0)

    def test_matches_analytic_cosine_gradient(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = mathcore.l2_normalize(rng.normal(size=5))
            x = mathcore.l2_normalize(rng.normal(size=5))
            norms, cos = losses.prototype_geometry(x[None], mu[None])
            analytic = losses.cosine_grad_to_features(np.ones((1, 1)), cos, x[None], norms,
                                                      mu[None])[0]
            numeric = mathcore.finite_difference_gradient(
                lambda v: mathcore.cosine_similarity(mu, v), x, 1e-5)
            np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestSoftmaxVjp:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.normal(size=6)
            g = rng.normal(size=6)

            def f(logits):
                return float(np.dot(g, mathcore.temperature_softmax(logits, 1.0)))

            probs = mathcore.temperature_softmax(z, 1.0)
            analytic = mathcore.softmax_vjp(probs, g)
            numeric = mathcore.finite_difference_gradient(f, z, 1e-6)
            np.testing.assert_allclose(analytic, numeric, atol=1e-7)


# the seven vector functions that share as_vectors' length rule, each called with vectors of
# lengths 3 and 4 in its first two vector arguments
UNEQUAL_VECTORS = {
    "cosine_similarity": mathcore.cosine_similarity,
    "softmax_vjp": mathcore.softmax_vjp,
    "kl_divergence": mathcore.kl_divergence,
    "js_divergence": mathcore.js_divergence,
    "regularizer_variant": lambda a, b: losses.regularizer_variant(a, b, a, "jsd"),
    "domain_adversarial_loss": lambda a, b: losses.domain_adversarial_loss(a, 0, b, 0.0),
    "prototypes._blend_one": prototypes._blend_one,
}


class TestOneLengthRule:
    @pytest.mark.parametrize("name", sorted(UNEQUAL_VECTORS))
    def test_unequal_lengths_raise_dimension_mismatch(self, name):
        short, long = np.full(3, 0.25), np.full(4, 0.25)
        with pytest.raises(DimensionMismatch, match="^vectors of unequal lengths: 3 vs 4"):
            UNEQUAL_VECTORS[name](short, long)

    def test_as_vectors_returns_the_checked_vectors(self):
        a, b, c = mathcore.as_vectors([1, 2], (3.0, 4.0), np.array([5, 6]))
        for v, expected in ((a, [1.0, 2.0]), (b, [3.0, 4.0]), (c, [5.0, 6.0])):
            assert v.dtype == np.float64 and v.tolist() == expected

    def test_as_vectors_message_names_every_length(self):
        with pytest.raises(DimensionMismatch, match="^vectors of unequal lengths: 2 vs 2 vs 1$"):
            mathcore.as_vectors([1.0, 2.0], [1.0, 2.0], [1.0])
