import math

import numpy as np
import pytest

from pacf import losses, mathcore
from pacf.errors import DimensionMismatch, UninitializedPrototype
from pacf.losses import (LossValue, LossWeights, classification_loss,
                         domain_adversarial_loss, mutual_regularization,
                         prototype_cross_entropy, prototype_posterior,
                         regularizer_variant, total_loss)
from pacf.prototypes import PrototypeSet


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(np.linalg.norm(numeric), 1e-8)
    return np.linalg.norm(analytic - numeric) / scale


def orthonormal_prototypes(domain, class_count, dim, rng):
    matrix = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:class_count]
    return PrototypeSet(domain, class_count, dim,
                        {k: matrix[k] for k in range(class_count)})


def random_prototypes(domain, class_count, dim, rng):
    return PrototypeSet(domain, class_count, dim,
                        {k: mathcore.l2_normalize(rng.normal(size=dim))
                         for k in range(class_count)})


class TestPrototypePosterior:
    def test_matching_prototype_dominates(self):
        rng = np.random.default_rng(20)
        pset = orthonormal_prototypes("source", 3, 6, rng)
        probs = prototype_posterior(pset.get(1), pset, 0.05)
        # cosine gap 1 vs 0 at tau 0.05: competitor mass ~ 2 e^{-20}
        assert probs[1] == pytest.approx(1.0, abs=1e-8)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identical_prototypes_give_uniform(self):
        direction = mathcore.l2_normalize([1.0, 2.0, 3.0])
        pset = PrototypeSet("target", 4, 3, {k: direction for k in range(4)})
        probs = prototype_posterior([0.3, -0.1, 0.8], pset, 0.05)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_single_class_sigmoid(self):
        pset = PrototypeSet("source", 1, 2, {0: np.array([1.0, 0.0])})
        probs = prototype_posterior([0.0, 1.0], pset, 1.0)  # cos = 0
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_uninitialized_rejected(self):
        pset = PrototypeSet("source", 2, 2, {0: np.array([1.0, 0.0])})
        with pytest.raises(UninitializedPrototype):
            prototype_posterior([1.0, 1.0], pset, 0.05)


class TestPrototypeCrossEntropy:
    def test_aligned_prototypes_give_near_zero(self):
        rng = np.random.default_rng(21)
        class_count, dim = 4, 8
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:class_count]
        src = PrototypeSet("source", class_count, dim,
                          {k: basis[k] for k in range(class_count)})
        tgt = PrototypeSet("target", class_count, dim,
                          {k: basis[k] for k in range(class_count)})
        loss = prototype_cross_entropy(basis[2], 2, src, tgt, 0.05)
        expected = 2.0 * math.log(1.0 + (class_count - 1) * math.exp(-20.0))
        assert loss.value == pytest.approx(expected, rel=1e-6)
        assert 0.0 <= loss.value < 1e-7

    def test_equidistant_two_class_case(self):
        src = PrototypeSet("source", 2, 2,
                           {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
        tgt = PrototypeSet("target", 2, 2,
                           {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
        x = np.array([1.0, 1.0])  # equal cosine against both prototypes
        loss = prototype_cross_entropy(x, 0, src, tgt, 0.05)
        assert loss.value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            class_count = int(rng.integers(2, 6))
            dim = int(rng.integers(3, 9))
            tau = float(rng.uniform(0.05, 1.0))
            src = random_prototypes("source", class_count, dim, rng)
            tgt = random_prototypes("target", class_count, dim, rng)
            x = rng.normal(size=dim)
            label = int(rng.integers(0, class_count))
            loss = prototype_cross_entropy(x, label, src, tgt, tau)
            numeric = mathcore.finite_difference_gradient(
                lambda v: prototype_cross_entropy(v, label, src, tgt, tau).value, x, 1e-5)
            assert relative_error(loss.grad_features, numeric) < 1e-4

    def test_single_class_gradient(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            src = random_prototypes("source", 1, 4, rng)
            tgt = random_prototypes("target", 1, 4, rng)
            x = rng.normal(size=4)
            tau = float(rng.uniform(0.05, 1.0))
            for label in (0, 1):
                loss = prototype_cross_entropy(x, label, src, tgt, tau)
                numeric = mathcore.finite_difference_gradient(
                    lambda v: prototype_cross_entropy(v, label, src, tgt, tau).value,
                    x, 1e-5)
                assert relative_error(loss.grad_features, numeric) < 1e-4

    def test_no_gradient_path_into_prototypes(self):
        rng = np.random.default_rng(24)
        src = random_prototypes("source", 3, 5, rng)
        tgt = random_prototypes("target", 3, 5, rng)
        loss = prototype_cross_entropy(rng.normal(size=5), 1, src, tgt, 0.1)
        assert loss.grad_params == {}
        assert loss.grad_inputs == {}

    @pytest.mark.parametrize("class_count, dim", [(4, 5), (3, 6)])
    def test_mismatched_sets_rejected(self, class_count, dim):
        rng = np.random.default_rng(26)
        src = random_prototypes("source", 3, 5, rng)
        tgt = random_prototypes("target", class_count, dim, rng)
        with pytest.raises(DimensionMismatch):
            prototype_cross_entropy(rng.normal(size=5), 1, src, tgt, 0.1)

    def test_non_negative_over_random_configs(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            src = random_prototypes("source", 3, 4, rng)
            tgt = random_prototypes("target", 3, 4, rng)
            loss = prototype_cross_entropy(rng.normal(size=4), int(rng.integers(3)),
                                           src, tgt, float(rng.uniform(0.05, 2.0)))
            assert loss.value >= 0.0


def softmax_chain_gradient(build_loss, probs_list, branch_keys, logits_list):
    """Chain distribution-level gradients through softmax back to each logit block."""
    loss = build_loss(*probs_list)
    grads = []
    for probs, key in zip(probs_list, branch_keys):
        grads.append(mathcore.softmax_vjp(probs, loss.grad_inputs[key]))
    return loss, grads


class TestMutualRegularization:
    def test_identical_distributions_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert mutual_regularization(p, p, p).value == 0.0

    def test_disjoint_point_masses(self):
        value = mutual_regularization([1.0, 0.0], [0.0, 1.0], [0.0, 1.0]).value
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_swapping_src_tgt_invariant(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            p1, p2, p3 = (rng.dirichlet(np.ones(4)) for _ in range(3))
            assert mutual_regularization(p1, p2, p3).value == pytest.approx(
                mutual_regularization(p1, p3, p2).value, abs=1e-15)

    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_gradients_through_logits(self, branch):
        rng = np.random.default_rng(27 + branch)
        keys = ["p_lin", "p_src", "p_tgt"]
        for _ in range(20):
            size = int(rng.integers(2, 6))
            logits = [rng.normal(size=size) for _ in range(3)]
            probs = [mathcore.temperature_softmax(z, 1.0) for z in logits]
            loss = mutual_regularization(*probs)
            analytic = mathcore.softmax_vjp(probs[branch], loss.grad_inputs[keys[branch]])

            def value_of(z):
                current = [p.copy() for p in probs]
                current[branch] = mathcore.temperature_softmax(z, 1.0)
                return mutual_regularization(*current).value

            numeric = mathcore.finite_difference_gradient(value_of, logits[branch], 1e-5)
            assert relative_error(analytic, numeric) < 1e-4


class TestRegularizerVariants:
    @pytest.mark.parametrize("kind", ["l2", "kl", "jsd"])
    def test_identical_distributions_zero(self, kind):
        p = np.array([0.25, 0.25, 0.5])
        assert regularizer_variant(p, p, p, kind).value == 0.0

    def test_l2_point_masses(self):
        value = regularizer_variant([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], "l2").value
        assert value == pytest.approx(4.0, abs=1e-15)

    def test_kl_is_asymmetric(self):
        rng = np.random.default_rng(28)
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        forward = regularizer_variant(a, b, b, "kl").value
        backward = regularizer_variant(b, a, a, "kl").value
        assert abs(forward - backward) > 1e-6

    def test_jsd_kind_equals_mutual_regularization(self):
        rng = np.random.default_rng(29)
        p1, p2, p3 = (rng.dirichlet(np.ones(5)) for _ in range(3))
        assert regularizer_variant(p1, p2, p3, "jsd").value == \
            mutual_regularization(p1, p2, p3).value

    @pytest.mark.parametrize("kind", ["l2", "kl", "jsd"])
    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_gradients_through_logits(self, kind, branch):
        rng = np.random.default_rng(30)
        keys = ["p_lin", "p_src", "p_tgt"]
        for _ in range(12):
            size = int(rng.integers(2, 6))
            logits = [rng.normal(size=size) for _ in range(3)]
            probs = [mathcore.temperature_softmax(z, 1.0) for z in logits]
            loss = regularizer_variant(*probs, kind)
            analytic = mathcore.softmax_vjp(probs[branch], loss.grad_inputs[keys[branch]])

            def value_of(z):
                current = [p.copy() for p in probs]
                current[branch] = mathcore.temperature_softmax(z, 1.0)
                return regularizer_variant(*current, kind).value

            numeric = mathcore.finite_difference_gradient(value_of, logits[branch], 1e-5)
            assert relative_error(analytic, numeric) < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            regularizer_variant([0.5, 0.5], [0.5, 0.5], [0.3, 0.3, 0.4], "jsd")


class TestClassificationLoss:
    def test_one_hot_at_label(self):
        assert classification_loss([0.0, 1.0, 0.0], 1).value == 0.0

    def test_uniform_four_classes(self):
        value = classification_loss([0.25] * 4, 2).value
        assert value == pytest.approx(math.log(4.0), abs=1e-15)

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            size = int(rng.integers(2, 8))
            logits = rng.normal(size=size, scale=2.0)
            label = int(rng.integers(size))
            probs = mathcore.temperature_softmax(logits, 1.0)
            loss = classification_loss(probs, label)
            analytic = loss.grad_inputs["logits"]  # already w.r.t. logits
            numeric = mathcore.finite_difference_gradient(
                lambda z: classification_loss(
                    mathcore.temperature_softmax(z, 1.0), label).value,
                logits, 1e-5)
            assert relative_error(analytic, numeric) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            classification_loss([0.5, 0.5], 2)


class TestDomainAdversarialLoss:
    def test_uninformative_discriminator(self):
        # zero weights and bias put the discriminator at exactly 0.5
        loss = domain_adversarial_loss([1.0, -2.0], 0, [0.0, 0.0], 0.0)
        assert loss.value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct_discriminator(self):
        loss = domain_adversarial_loss([10.0], 1, [5.0], 0.0)  # z = 50, label 1
        assert loss.value == pytest.approx(0.0, abs=1e-20)

    def test_gradient_reversal_is_exact_sign_flip(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=4)
        w = rng.normal(size=4)
        loss = domain_adversarial_loss(x, 1, w, 0.3)
        z = float(np.dot(w, x)) + 0.3
        dz = mathcore.sigmoid(z) - 1.0
        non_reversed = dz * w
        assert np.array_equal(loss.grad_features, -non_reversed)

    def test_feature_gradient_matches_negated_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.normal(size=5)
            w = rng.normal(size=5)
            b = float(rng.normal())
            label = int(rng.integers(2))
            loss = domain_adversarial_loss(x, label, w, b)
            numeric = mathcore.finite_difference_gradient(
                lambda v: domain_adversarial_loss(v, label, w, b).value, x, 1e-5)
            assert relative_error(-loss.grad_features, numeric) < 1e-4

    def test_param_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            x = rng.normal(size=3)
            w = rng.normal(size=3)
            b = float(rng.normal())
            label = int(rng.integers(2))
            loss = domain_adversarial_loss(x, label, w, b)
            numeric_w = mathcore.finite_difference_gradient(
                lambda v: domain_adversarial_loss(x, label, v, b).value, w, 1e-5)
            assert relative_error(loss.grad_params["discriminator_w"], numeric_w) < 1e-4
            numeric_b = mathcore.finite_difference_gradient(
                lambda v: domain_adversarial_loss(x, label, w, float(v[0])).value,
                np.array([b]), 1e-5)
            assert relative_error([float(loss.grad_params["discriminator_b"])],
                                  numeric_b) < 1e-4


class TestTotalLoss:
    def components(self):
        return {
            "sup": LossValue(value=1.2, grad_params={"a": np.array([1.0, 2.0])}),
            "unsup": LossValue(value=0.4, grad_params={"a": np.array([0.5, -1.0])}),
            "dis": LossValue(value=0.7, grad_params={"b": np.array([2.0])}),
            "pce": LossValue(value=2.0, grad_features=np.array([1.0, 1.0])),
            "mut": LossValue(value=0.3, grad_features=np.array([0.0, 3.0])),
        }

    def test_only_supervised(self):
        weights = LossWeights(lambda_unsup=0.0, lambda_dis=0.0,
                              lambda_pce=0.0, lambda_mut=0.0)
        combined = total_loss({"sup": LossValue(value=1.5)}, weights)
        assert combined.value == 1.5

    def test_default_weights_match_hand_sum(self):
        weights = LossWeights()  # 1.0, 0.1, 1.0, 1.0
        combined = total_loss(self.components(), weights)
        expected = 1.2 + 1.0 * 0.4 + 0.1 * 0.7 + 1.0 * 2.0 + 1.0 * 0.3
        assert combined.value == pytest.approx(expected, abs=1e-15)
        np.testing.assert_allclose(combined.grad_params["a"], [1.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(combined.grad_params["b"], [0.2], atol=1e-15)
        np.testing.assert_allclose(combined.grad_features, [1.0, 4.0], atol=1e-15)

    def test_doubling_pce_weight_doubles_its_contribution(self):
        components = self.components()
        base = total_loss(components, LossWeights(lambda_pce=1.0))
        double = total_loss(components, LossWeights(lambda_pce=2.0))
        assert double.value - base.value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(double.grad_features - base.grad_features,
                                   components["pce"].grad_features, atol=1e-12)

    def test_linearity_in_each_weight(self):
        components = self.components()
        for name in ("lambda_unsup", "lambda_dis", "lambda_pce", "lambda_mut"):
            v0 = total_loss(components, LossWeights(**{name: 0.0})).value
            v1 = total_loss(components, LossWeights(**{name: 1.0})).value
            v2 = total_loss(components, LossWeights(**{name: 2.0})).value
            assert (v2 - v1) == pytest.approx(v1 - v0, abs=1e-12)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            total_loss({"bogus": LossValue(value=1.0)}, LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_dis=-0.1)


class TestJensenShannonPairKernel:
    """``pair_divergence("jsd")`` takes three logs; its values and gradients are the bits of
    ``mathcore.js_rows`` and of the gradient formula with every log taken again."""

    def rows(self):
        rng = np.random.default_rng(31)
        a = rng.dirichlet(np.ones(5), size=(12, 1))
        b = rng.dirichlet(np.ones(5), size=(12, 2))
        a[0, 0, :2] = 0.0                       # exact zeros
        b[1, 1, 3] = 0.0
        a[2, 0, 1] = mathcore.CLAMP_EPS / 7.0   # below the clamp
        b[3, 0, 4] = mathcore.CLAMP_EPS / 3.0
        a[4, 0] = b[4, 1] = np.eye(5)[2]        # a one-hot pair on both sides
        b[5, 0] = 1e-300                        # a subnormal-scale row
        return a, b

    def test_bitwise_equal_to_js_rows_and_clamped_gradients(self):
        a, b = self.rows()
        values, grad_a, grad_b = losses.pair_divergence("jsd", a, b)
        m = 0.5 * (a + b)
        assert values.tobytes() == mathcore.js_rows(a, b).tobytes()
        expected_a = 0.5 * (mathcore.clamped_log(a) - mathcore.clamped_log(m))
        expected_b = 0.5 * (mathcore.clamped_log(b) - mathcore.clamped_log(m))
        assert grad_a.tobytes() == expected_a.tobytes()
        assert grad_b.tobytes() == expected_b.tobytes()

    def test_symmetric_bitwise(self):
        a, b = self.rows()
        b = b[:, :1]
        assert (losses.pair_divergence("jsd", a, b)[0].tobytes()
                == losses.pair_divergence("jsd", b, a)[0].tobytes())


class TestTotalLossRows:
    """A term's gradients for some rows of the batch add into those rows only; the sums
    equal the weighted sums of zero-filled full-size gradients, term by term."""

    def test_matches_zero_filled_sums(self):
        rng = np.random.default_rng(32)
        n, kept = 10, np.array([5, 7, 8])
        rows = {"sup": slice(0, 5), "unsup": kept, "pce": kept, "mut": kept}
        components = {
            "sup": LossValue(0.5, grad_inputs={"logits": rng.normal(size=(5, 3))}),
            "unsup": LossValue(0.25, grad_inputs={"logits": rng.normal(size=(3, 3))}),
            "dis": LossValue(0.75, grad_params={"w": rng.normal(size=4)},
                             grad_inputs={"embeddings": rng.normal(size=(n, 4))}),
            "pce": LossValue(1.5, grad_inputs={"embeddings": rng.normal(size=(3, 4))}),
            "mut": LossValue(0.125, grad_inputs={"logits": rng.normal(size=(3, 3)),
                                                 "embeddings": rng.normal(size=(3, 4))}),
        }
        weights = LossWeights(lambda_unsup=0.5, lambda_dis=0.1, lambda_pce=2.0, lambda_mut=0.3)
        before = {name: {k: g.copy() for k, g in c.grad_inputs.items()}
                  for name, c in components.items()}
        combined = total_loss(components, weights, rows=rows, row_count=n)

        def full(name, grad):
            out = np.zeros((n, grad.shape[1]))
            out[rows.get(name, slice(None))] = grad
            return out

        expected = total_loss({name: LossValue(c.value, grad_params=c.grad_params,
                                               grad_inputs={k: full(name, g) for k, g
                                                            in c.grad_inputs.items()})
                               for name, c in components.items()}, weights)
        assert combined.value == expected.value
        assert combined.grad_params["w"].tobytes() == expected.grad_params["w"].tobytes()
        for key in ("logits", "embeddings"):
            assert combined.grad_inputs[key].tobytes() == expected.grad_inputs[key].tobytes()
        for name, c in components.items():  # the terms' own gradients are left as they were
            for key, grad in c.grad_inputs.items():
                assert grad.tobytes() == before[name][key].tobytes()


class TestLossWeightRanges:
    """Each weight's boundary values, the non-finite numbers and the error type."""

    NAMES = ["lambda_unsup", "lambda_dis", "lambda_pce", "lambda_mut"]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value, accepted", [
        (0.0, True), (-0.0, True), (0, True), (1e308, True), (-5e-324, False), (-1, False),
    ])
    def test_boundary(self, name, value, accepted):
        if accepted:
            assert getattr(LossWeights(**{name: value}), name) == value
        else:
            with pytest.raises(ValueError, match=name) as excinfo:
                LossWeights(**{name: value})
            assert excinfo.type is ValueError

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name) as excinfo:
            LossWeights(**{name: value})
        assert excinfo.type is ValueError
