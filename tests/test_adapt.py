import json
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pacf import adapt, cli, experiment, losses, mathcore
from pacf.adapt import (ModelParams, TrainerConfig, ema_update,
                        forward, generate_pseudo_labels, init_state, predict,
                        run_experiment, train_run, train_step)
from pacf.errors import DimensionMismatch, Diverged
from pacf.losses import LossWeights
from pacf.prototypes import PrototypeSet, update_all
from pacf.synthbench import LabeledBatch


def tiny_config(**overrides):
    kwargs = dict(warmup_steps=5, steps=5, batch_size=8, feature_dim=4,
                  learning_rate=0.05, ema_rate=0.9, augment_noise=0.5, seed=0)
    kwargs.update(overrides)
    return TrainerConfig(**kwargs)


def tiny_data(seed=0, n=40, d=6, classes=3):
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=2.0, size=(classes, d))
    labels = rng.integers(0, classes, size=n)
    features = means[labels] + rng.normal(size=(n, d))
    source = LabeledBatch(features, labels, np.full(n, -1.0))
    target = means[rng.integers(0, classes, size=n)] + rng.normal(size=(n, d)) * 1.5
    return source, target


ALL = slice(None)


def chained(params, inputs, emb, loss):
    """``loss`` from a per-term function with its logit and embedding gradients
    chained to the parameters by the trainer's own chain."""
    grads = {**loss.grad_params, **adapt._backward(params, inputs, emb, loss.grad_inputs)}
    return losses.LossValue(value=loss.value, grad_params=grads)


def make_params(d_in=3, d_feat=3, classes=2, seed=99):
    rng = np.random.default_rng(seed)
    return ModelParams(
        extractor_w=rng.normal(size=(d_in, d_feat)),
        extractor_b=rng.normal(size=d_feat),
        classifier_w=rng.normal(size=(d_feat, classes)),
        classifier_b=rng.normal(size=classes),
        discriminator_w=rng.normal(size=d_feat),
        discriminator_b=np.asarray(rng.normal()),
    )


class TestForward:
    def test_identity_extractor_zero_classifier_uniform(self):
        params = ModelParams(
            extractor_w=np.eye(3), extractor_b=np.zeros(3),
            classifier_w=np.zeros((3, 4)), classifier_b=np.zeros(4),
            discriminator_w=np.zeros(3), discriminator_b=np.asarray(0.0))
        emb, probs = forward(params, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(emb, [1.0, 2.0, 3.0], atol=0)
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_zero_input_zero_biases_zero_embedding(self):
        params = make_params()
        params.extractor_b = np.zeros_like(params.extractor_b)
        emb, _ = forward(params, np.zeros(3))
        np.testing.assert_allclose(emb, 0.0, atol=0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(70)
        params = make_params(d_in=5, d_feat=4, classes=6)
        _, probs = forward(params, rng.normal(size=(20, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_single_class_sigmoid_pair(self):
        params = make_params(classes=1)
        _, probs = forward(params, np.array([0.5, -0.2, 1.0]))
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward(make_params(), np.zeros(7))


class TestPredict:
    def test_dominant_logit_wins(self):
        params = make_params(classes=3, d_feat=3)
        params.classifier_w = np.eye(3)
        params.classifier_b = np.array([0.0, 0.0, 10.0])
        assert predict(params, np.zeros(3) @ params.extractor_w) in (0, 1, 2)

    def test_argmax_shift_invariance(self):
        params = make_params(classes=4, d_feat=3)
        rng = np.random.default_rng(71)
        x = rng.normal(size=(10, 3))
        base = predict(params, x)
        shifted = ModelParams(
            extractor_w=params.extractor_w, extractor_b=params.extractor_b,
            classifier_w=params.classifier_w,
            classifier_b=params.classifier_b + 123.0,
            discriminator_w=params.discriminator_w,
            discriminator_b=params.discriminator_b)
        assert np.array_equal(base, predict(shifted, x))

    def test_untouched_by_prototypes_and_discriminator(self):
        source, target = tiny_data()
        config = tiny_config()
        result = run_experiment(source, target, config)
        state = result.state
        base = predict(state.student, target)
        state.student.discriminator_w = state.student.discriminator_w + 100.0
        mutated_protos = PrototypeSet("target", state.tgt_protos.class_count,
                                      state.tgt_protos.dim)
        state.tgt_protos = mutated_protos
        assert np.array_equal(base, predict(state.student, target))


class TestGeneratePseudoLabels:
    def make_confident_teacher(self):
        params = make_params(d_in=2, d_feat=2, classes=2)
        params.extractor_w = np.eye(2) * 5.0
        params.extractor_b = np.zeros(2)
        params.classifier_w = np.eye(2)
        params.classifier_b = np.zeros(2)
        return params

    def test_confident_kept_with_argmax_label(self):
        teacher = self.make_confident_teacher()
        pseudo = generate_pseudo_labels(teacher, np.array([[2.0, 0.0]]), 0.8)
        assert len(pseudo) == 1
        assert pseudo.labels[0] == 0
        assert pseudo.scores[0] >= 0.8

    def test_low_confidence_dropped(self):
        teacher = self.make_confident_teacher()
        pseudo = generate_pseudo_labels(teacher, np.array([[0.01, 0.0]]), 0.8)
        assert len(pseudo) == 0

    def test_uniform_teacher_drops_everything(self):
        params = make_params(d_in=4, d_feat=3, classes=8)
        params.classifier_w = np.zeros((3, 8))
        params.classifier_b = np.zeros(8)
        pseudo = generate_pseudo_labels(params, np.random.default_rng(1).normal(size=(30, 4)), 0.8)
        assert len(pseudo) == 0  # 1/8 < 0.8

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(72)
        teacher = make_params(d_in=5, d_feat=4, classes=3)
        batch = rng.normal(size=(200, 5))
        sizes = [len(generate_pseudo_labels(teacher, batch, t))
                 for t in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.01)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 0  # thresholds above 1 disable pseudo labeling

    def test_single_class_keeps_only_the_class(self):
        # a sigmoid head gives [p, 1 - p] rows, whose argmax 1 is "no class"
        teacher = make_params(d_in=1, d_feat=1, classes=1)
        teacher.extractor_w = np.ones((1, 1))
        teacher.extractor_b = np.zeros(1)
        teacher.classifier_w = np.ones((1, 1))
        teacher.classifier_b = np.zeros(1)
        logits = np.log(np.array([[0.4], [0.7]]) / np.array([[0.6], [0.3]]))
        pseudo = generate_pseudo_labels(teacher, logits, 0.3)
        assert pseudo.indices.tolist() == [1]
        assert pseudo.labels.tolist() == [0]
        assert pseudo.scores[0] == pytest.approx(0.7, rel=1e-12)

    def test_threshold_above_one_allowed(self):
        teacher = self.make_confident_teacher()
        pseudo = generate_pseudo_labels(teacher, np.array([[2.0, 0.0]]), 1.5)
        assert len(pseudo) == 0

    def test_non_finite_teacher_probabilities_diverge(self):
        teacher = self.make_confident_teacher()
        teacher.extractor_w = np.full((2, 2), 1e308)  # row 2 overflows, row 1 does not
        with pytest.raises(Diverged, match="teacher's class probabilities for target row 2 "):
            generate_pseudo_labels(teacher, np.array([[0.5, 0.5], [2.0, 2.0]]), 0.8)


class TestEmaUpdate:
    def test_rate_zero_copies_student(self):
        teacher, student = make_params(seed=1), make_params(seed=2)
        updated = ema_update(teacher, student, 0.0)
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(updated, key), getattr(student, key))

    def test_fixed_point_when_equal(self):
        params = make_params(seed=3)
        updated = ema_update(params, params, 0.7)
        for key in adapt.PARAM_KEYS:
            np.testing.assert_allclose(getattr(updated, key), getattr(params, key),
                                       rtol=1e-15)

    def test_midpoint(self):
        teacher, student = make_params(seed=4), make_params(seed=4)
        teacher.extractor_w = np.full_like(teacher.extractor_w, 2.0)
        student.extractor_w = np.zeros_like(student.extractor_w)
        updated = ema_update(teacher, student, 0.5)
        np.testing.assert_allclose(updated.extractor_w, 1.0, atol=0)

    def test_geometric_convergence(self):
        teacher, student = make_params(seed=5), make_params(seed=6)
        rate = 0.8

        def distance(a, b):
            return np.sqrt(sum(float(np.sum((getattr(a, k) - getattr(b, k)) ** 2))
                               for k in adapt.PARAM_KEYS))

        initial = distance(teacher, student)
        current = teacher
        for n in range(1, 40):
            current = ema_update(current, student, rate)
            expected = rate ** n * initial
            assert distance(current, student) == pytest.approx(expected, abs=1e-9)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ema_update(make_params(), make_params(), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="classifier_w"):
            ema_update(make_params(classes=3), make_params(classes=2), 0.5)


class TestTrainStep:
    def test_bitwise_deterministic(self):
        source, target = tiny_data()
        config = tiny_config()

        def one_run():
            state = init_state(config, source.dim, 3)
            state, _ = adapt.warmup_run(state, source, target, config)
            state = adapt.initialize_from_warmup(state, source, target, config)
            state, records = train_run(state, source, target, config)
            return state, records

        s1, r1 = one_run()
        s2, r2 = one_run()
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(s1.student, key), getattr(s2.student, key))
            assert np.array_equal(getattr(s1.teacher, key), getattr(s2.teacher, key))
        assert r1 == r2

    def test_zero_learning_rate_freezes_student(self):
        source, target = tiny_data()
        config = tiny_config(learning_rate=0.0)
        state = init_state(config, source.dim, 3)
        state = adapt.initialize_from_warmup(state, source, target, config)
        before = {k: getattr(state.student, k).copy() for k in adapt.PARAM_KEYS}
        teacher_before = {k: getattr(state.teacher, k).copy() for k in adapt.PARAM_KEYS}
        next_state, _ = train_step(state, source, target, config)
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(next_state.student, key), before[key])
        # prototypes and teacher still refresh
        assert next_state.step == state.step + 1

    def test_degenerate_config_ignores_target(self):
        source, target = tiny_data()
        config = tiny_config(pseudo_threshold=1.01, enable_pce=False,
                             enable_adversarial=False, regularizer="none",
                             weights=LossWeights(lambda_unsup=0.0, lambda_dis=0.0,
                                                 lambda_pce=0.0, lambda_mut=0.0))
        other_target = tiny_data(seed=9)[1]

        def run_with(tgt):
            state = init_state(config, source.dim, 3)
            state = adapt.initialize_from_warmup(state, source, tgt, config)
            # keep rng streams aligned: same draw count, different values
            state, record = train_step(state, source, tgt, config)
            return state, record

        # identical target draws feed nothing back into the student
        s1, rec1 = run_with(target)
        s2, rec2 = run_with(np.zeros_like(target) + target)
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(s1.student, key), getattr(s2.student, key))
        assert rec1.pseudo_count == 0
        assert rec1.loss_unsup == 0.0 and rec1.loss_dis == 0.0
        assert rec1.loss_pce == 0.0 and rec1.loss_mut == 0.0

    def test_records_are_finite_on_default_benchmark(self):
        from pacf.synthbench import DomainShiftSpec, generate
        pair = generate(DomainShiftSpec(seed=11, samples_per_class=40))
        config = TrainerConfig(seed=1, warmup_steps=30, steps=30)
        result = run_experiment(pair.source, pair.target_features, config)
        for record in result.warmup_records + result.records:
            for name in ("loss_sup", "loss_unsup", "loss_dis", "loss_pce",
                         "loss_mut", "total"):
                assert np.isfinite(getattr(record, name)), (record.step, name)

    def test_one_student_forward_per_step(self, monkeypatch):
        source, target = tiny_data()
        config = tiny_config()
        state = adapt.initialize_from_warmup(init_state(config, source.dim, 3), source,
                                             target, config)
        rows = []
        original = adapt.forward

        def counting_forward(params, x):
            rows.append(len(x))
            return original(params, x)

        monkeypatch.setattr(adapt, "forward", counting_forward)
        train_step(state, source, target, config, warmup=True)
        assert rows == [config.batch_size]  # the source rows only
        rows.clear()
        train_step(state, source, target, config)
        # the teacher over the target rows, then the student over source and target rows
        assert rows == [config.batch_size, 2 * config.batch_size]

    def test_one_prototype_geometry_per_step(self, monkeypatch):
        """Both prototype terms read one stacked geometry, and each chains back once."""
        source, target = tiny_data()
        config = tiny_config(steps=20)
        state, _ = adapt.warmup_run(init_state(config, source.dim, 3), source, target, config)
        state = adapt.initialize_from_warmup(state, source, target, config)
        calls = []
        for name in ("prototype_geometry", "cosine_grad_to_features"):
            def counting(*args, name=name, original=getattr(losses, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(losses, name, counting)
        steps_with_terms = 0
        for _ in range(config.steps):
            ready = adapt._prototypes_ready(state)
            calls.clear()
            state, record = train_step(state, source, target, config)
            if ready and record.pseudo_count:
                steps_with_terms += 1
                assert calls == ["prototype_geometry"] + 2 * ["cosine_grad_to_features"]
            else:
                assert calls == []
        assert steps_with_terms > 0

    def test_train_run_single_step_equals_train_step(self):
        source, target = tiny_data()
        config = tiny_config(steps=1)

        def prepared_state():
            state = init_state(config, source.dim, 3)
            state, _ = adapt.warmup_run(state, source, target, config)
            return adapt.initialize_from_warmup(state, source, target, config)

        s1, records = train_run(prepared_state(), source, target, config)
        s2, record2 = train_step(prepared_state(), source, target, config)
        assert len(records) == 1
        assert records[0] == record2
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(s1.student, key), getattr(s2.student, key))


class TestSupervisedEquivalence:
    """Degenerate adaptation must replay a hand-written supervised loop bitwise."""

    def reference_loop(self, source, target, config, n_steps, class_count):
        state = init_state(config, source.dim, class_count)
        we = state.student.extractor_w
        be = state.student.extractor_b
        wc = state.student.classifier_w
        bc = state.student.classifier_b
        rng = state.rng
        trajectory = []
        for _ in range(n_steps):
            src_idx = rng.integers(0, len(source), size=config.batch_size)
            rng.integers(0, len(target), size=config.batch_size)
            src_noise = rng.standard_normal((config.batch_size, source.dim))
            rng.standard_normal((config.batch_size, target.shape[1]))
            xs = source.features[src_idx] + config.augment_noise * src_noise
            ys = source.labels[src_idx]
            emb = xs @ we + be
            logits = emb @ wc + bc
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=1, keepdims=True)
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(ys)), ys] = 1.0
            grad_logits = (probs - onehot)[:, :logits.shape[1]] / len(ys)
            gwc = emb.T @ grad_logits
            gbc = grad_logits.sum(axis=0)
            grad_emb = grad_logits @ wc.T
            gwe = xs.T @ grad_emb
            gbe = grad_emb.sum(axis=0)
            we = we - config.learning_rate * (1.0 * gwe)
            be = be - config.learning_rate * (1.0 * gbe)
            wc = wc - config.learning_rate * (1.0 * gwc)
            bc = bc - config.learning_rate * (1.0 * gbc)
            trajectory.append((we.copy(), be.copy(), wc.copy(), bc.copy()))
        return trajectory

    def test_bitwise_equivalence(self):
        source, target = tiny_data(seed=4, n=60, d=5, classes=3)
        config = tiny_config(pseudo_threshold=1.01,
                             weights=LossWeights(lambda_unsup=0.0, lambda_dis=0.0,
                                                 lambda_pce=0.0, lambda_mut=0.0),
                             warmup_steps=4, steps=6)
        result = run_experiment(source, target, config)
        total_steps = config.warmup_steps + config.steps
        expected = self.reference_loop(source, target, config, total_steps, 3)
        final = expected[-1]
        assert np.array_equal(result.state.student.extractor_w, final[0])
        assert np.array_equal(result.state.student.extractor_b, final[1])
        assert np.array_equal(result.state.student.classifier_w, final[2])
        assert np.array_equal(result.state.student.classifier_b, final[3])
        # the discriminator never receives a gradient in this configuration
        assert np.array_equal(result.state.student.discriminator_w,
                              np.zeros(config.feature_dim))


class TestBatchComponentsMatchPerInstanceOps:
    """Vectorized trainer gradients must agree with the per-instance loss ops."""

    def setup_state(self):
        rng = np.random.default_rng(80)
        d_in, d_feat, classes, n = 5, 4, 3, 7
        params = make_params(d_in=d_in, d_feat=d_feat, classes=classes, seed=81)
        protos_src = PrototypeSet("source", classes, d_feat,
                                  {k: mathcore.l2_normalize(rng.normal(size=d_feat))
                                   for k in range(classes)})
        protos_tgt = PrototypeSet("target", classes, d_feat,
                                  {k: mathcore.l2_normalize(rng.normal(size=d_feat))
                                   for k in range(classes)})
        inputs = rng.normal(size=(n, d_in))
        labels = rng.integers(0, classes, size=n)
        return params, protos_src, protos_tgt, inputs, labels

    def test_cross_entropy_component(self):
        params, _, _, inputs, labels = self.setup_state()
        emb, probs = forward(params, inputs)
        component = chained(params, inputs, emb,
                            adapt._cross_entropy_component(params, emb, probs, ALL, labels))
        values = [losses.classification_loss(probs[i], int(labels[i])).value
                  for i in range(len(labels))]
        assert component.value == pytest.approx(np.mean(values), rel=1e-12)
        gwc = np.zeros_like(params.classifier_w)
        for i in range(len(labels)):
            grad_logits = losses.classification_loss(probs[i], int(labels[i])).grad_inputs["logits"]
            gwc += np.outer(emb[i], grad_logits) / len(labels)
        np.testing.assert_allclose(component.grad_params["classifier_w"], gwc, atol=1e-12)

    def test_pce_component(self):
        params, src, tgt, inputs, labels = self.setup_state()
        emb, _ = forward(params, inputs)
        tau = 0.2
        component = chained(params, inputs, emb, adapt._pce_component(
            emb, ALL, labels, losses.prototype_geometries(emb, src, tgt, tau)))
        per_instance = [losses.prototype_cross_entropy(emb[i], int(labels[i]), src, tgt, tau)
                        for i in range(len(labels))]
        assert component.value == pytest.approx(
            np.mean([p.value for p in per_instance]), rel=1e-12)
        gwe = np.zeros_like(params.extractor_w)
        for i, loss in enumerate(per_instance):
            gwe += np.outer(inputs[i], loss.grad_features) / len(per_instance)
        np.testing.assert_allclose(component.grad_params["extractor_w"], gwe, atol=1e-10)

    @pytest.mark.parametrize("kind", ["l2", "kl", "jsd"])
    def test_mut_component_value(self, kind):
        params, src, tgt, inputs, labels = self.setup_state()
        emb, probs = forward(params, inputs)
        tau = 0.3
        component = chained(params, inputs, emb, adapt._mut_component(
            params, emb, probs, ALL, losses.prototype_geometries(emb, src, tgt, tau), kind))
        values = []
        for i in range(len(inputs)):
            p_src = losses.prototype_posterior(emb[i], src, tau)
            p_tgt = losses.prototype_posterior(emb[i], tgt, tau)
            values.append(losses.regularizer_variant(probs[i], p_src, p_tgt, kind).value)
        assert component.value == pytest.approx(np.mean(values), rel=1e-12)

    @pytest.mark.parametrize("kind", ["l2", "kl", "jsd"])
    def test_mut_component_gradient_against_finite_differences(self, kind):
        params, src, tgt, inputs, labels = self.setup_state()
        tau = 0.3

        def objective(flat_we):
            trial = params.copy()
            trial.extractor_w = flat_we.reshape(params.extractor_w.shape)
            emb, probs = forward(trial, inputs)
            return adapt._mut_component(trial, emb, probs, ALL,
                                        losses.prototype_geometries(emb, src, tgt, tau),
                                        kind).value

        emb, probs = forward(params, inputs)
        component = chained(params, inputs, emb, adapt._mut_component(
            params, emb, probs, ALL, losses.prototype_geometries(emb, src, tgt, tau), kind))
        numeric = mathcore.finite_difference_gradient(
            objective, params.extractor_w.ravel(), 1e-6)
        analytic = component.grad_params["extractor_w"].ravel()
        scale = max(np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / scale < 1e-4

    def test_adversarial_component(self):
        params, _, _, inputs, labels = self.setup_state()
        emb, _ = forward(params, inputs)
        src_emb, tgt_emb = emb[:4], emb[4:]
        src_in, tgt_in = inputs[:4], inputs[4:]
        component = chained(params, np.vstack([src_in, tgt_in]), np.vstack([src_emb, tgt_emb]),
                            adapt._adversarial_component(params, np.vstack([src_emb, tgt_emb]),
                                                         np.repeat([0.0, 1.0], [4, 3])))
        values, disc_grads = [], []
        for i, e in enumerate(np.vstack([src_emb, tgt_emb])):
            label = 0 if i < 4 else 1
            loss = losses.domain_adversarial_loss(
                e, label, params.discriminator_w, float(params.discriminator_b))
            values.append(loss.value)
            disc_grads.append(loss.grad_params["discriminator_w"])
        assert component.value == pytest.approx(np.mean(values), rel=1e-12)
        np.testing.assert_allclose(component.grad_params["discriminator_w"],
                                   np.mean(disc_grads, axis=0), atol=1e-12)


class TestComponentGradientsAgainstFiniteDifferences:
    """Every parameter gradient of every batched component matches central
    finite differences, for one class (the sigmoid branches), two and five."""

    TAU = 0.3

    def setup_case(self, class_count):
        rng = np.random.default_rng(90 + class_count)
        d_in, d_feat, n = 5, 4, 9
        params = make_params(d_in=d_in, d_feat=d_feat, classes=class_count,
                             seed=91 + class_count)
        src, tgt = (PrototypeSet(domain, class_count, d_feat,
                                 {k: mathcore.l2_normalize(rng.normal(size=d_feat))
                                  for k in range(class_count)})
                    for domain in ("source", "target"))
        inputs = rng.normal(size=(n, d_in))
        # a sigmoid pair has two rows of outcomes: label 1 means "no class"
        labels = rng.integers(0, max(class_count, 2), size=n)
        return params, src, tgt, inputs, labels

    def loss_function(self, name, src, tgt, inputs, labels):
        def loss_of(params):
            emb, probs = forward(params, inputs)
            if name == "ce":
                loss = adapt._cross_entropy_component(params, emb, probs, ALL, labels)
            elif name == "adversarial":
                loss = adapt._adversarial_component(
                    params, emb, np.repeat([0.0, 1.0], [4, len(emb) - 4]))
            elif name == "pce":
                loss = adapt._pce_component(emb, ALL, labels,
                                            losses.prototype_geometries(emb, src, tgt, self.TAU))
            else:
                loss = adapt._mut_component(params, emb, probs, ALL,
                                            losses.prototype_geometries(emb, src, tgt, self.TAU),
                                            name.split("-")[1])
            return chained(params, inputs, emb, loss)
        return loss_of

    @pytest.mark.parametrize("class_count", [1, 2, 5])
    @pytest.mark.parametrize("name", ["ce", "adversarial", "pce", "mut-l2", "mut-kl", "mut-jsd"])
    def test_every_parameter_gradient(self, name, class_count):
        params, src, tgt, inputs, labels = self.setup_case(class_count)
        loss_of = self.loss_function(name, src, tgt, inputs, labels)
        grads = loss_of(params).grad_params
        assert grads
        for key, analytic in grads.items():
            shape = np.shape(getattr(params, key))

            def value_at(flat, key=key, shape=shape):
                trial = params.copy()
                setattr(trial, key, flat.reshape(shape))
                return loss_of(trial).value

            numeric = mathcore.finite_difference_gradient(
                value_at, np.ravel(getattr(params, key)), 1e-6)
            if name == "adversarial" and key.startswith("extractor"):
                numeric = -numeric  # the extractor receives the reversed gradient
            scale = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(np.ravel(analytic) - numeric) / scale < 1e-6, key


class TestTrainStepGradientAgainstFiniteDifferences:
    """The update ``train_step`` applies is the gradient of its composed objective.

    With ``learning_rate=1`` the applied gradient is ``student - new_student``.
    The extractor receives the reversed adversarial gradient, so its
    objective is ``total - 2 * lambda_dis * loss_dis``; every other tensor's
    is ``total``. Every evaluation replays the same random draws.
    """

    @pytest.mark.parametrize("class_count", [1, 2, 5])
    @pytest.mark.parametrize("enable_adversarial", [False, True])
    @pytest.mark.parametrize("regularizer", ["none", "l2", "kl", "jsd"])
    @pytest.mark.parametrize("enable_pce", [False, True])
    def test_every_student_tensor(self, enable_pce, regularizer, enable_adversarial,
                                  class_count):
        config = tiny_config(enable_pce=enable_pce, regularizer=regularizer,
                             enable_adversarial=enable_adversarial, pseudo_threshold=1e-9,
                             learning_rate=1.0)
        source, target = tiny_data(seed=class_count, classes=class_count)
        d_in, d_feat = source.dim, config.feature_dim
        student = make_params(d_in=d_in, d_feat=d_feat, classes=class_count, seed=7)
        teacher = make_params(d_in=d_in, d_feat=d_feat, classes=class_count, seed=8)
        rng = np.random.default_rng(9)
        src, tgt = (PrototypeSet(domain, class_count, d_feat,
                                 {k: mathcore.l2_normalize(rng.normal(size=d_feat))
                                  for k in range(class_count)})
                    for domain in ("source", "target"))
        draws = np.random.Generator(np.random.PCG64(10)).bit_generator.state
        lambda_dis = config.effective_weights().lambda_dis

        def step(params):
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = draws
            state = adapt.AdaptationState(student=params, teacher=teacher, src_protos=src,
                                          tgt_protos=tgt, step=0, rng=replay)
            return train_step(state, source, target, config)

        updated, record = step(student)
        assert record.pseudo_count > 0
        for key in adapt.PARAM_KEYS:
            shape = np.shape(getattr(student, key))
            analytic = getattr(student, key) - getattr(updated.student, key)

            def objective(flat, key=key, shape=shape):
                trial = student.copy()
                setattr(trial, key, flat.reshape(shape))
                _, rec = step(trial)
                if key.startswith("extractor"):
                    return rec.total - 2.0 * lambda_dis * rec.loss_dis
                return rec.total

            numeric = mathcore.finite_difference_gradient(
                objective, np.ravel(getattr(student, key)), 1e-6)
            scale = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(np.ravel(analytic) - numeric) / scale < 1e-4, key


def reference_step(state, source, target, config):
    """An adaptation step built from the public kernels, with the gradient assembly the
    trainer had before it learned each term's rows: every term's gradients w.r.t. the
    stacked logits and embeddings as zero-filled full-size arrays, summed with their
    weights in component order, then chained by ``_backward``."""
    rng, n = state.rng, config.batch_size
    src_idx = rng.integers(0, len(source), size=n)
    tgt_idx = rng.integers(0, len(target), size=n)
    src_noise = rng.standard_normal((n, source.dim))
    tgt_noise = rng.standard_normal((n, target.shape[1]))
    xs, ys, xt = source.features[src_idx], source.labels[src_idx], target[tgt_idx]
    pseudo = generate_pseudo_labels(state.teacher, xt, config.pseudo_threshold)
    x = np.vstack([xs + config.augment_noise * src_noise, xt + config.augment_noise * tgt_noise])
    student = state.student
    emb, probs = forward(student, x)
    kept = n + pseudo.indices
    weights = config.effective_weights()

    def full(rows, grad):
        out = np.zeros((len(emb), grad.shape[1]))
        out[rows] = grad
        return out

    def ce(rows, labels):
        value, grad = losses.cross_entropy_batch(
            emb[rows] @ student.classifier_w + student.classifier_b, probs[rows], labels)
        return value, {}, {"logits": full(rows, grad)}

    terms = {"sup": (1.0, *ce(slice(0, n), ys))}
    if len(pseudo) and weights.lambda_unsup > 0.0:
        terms["unsup"] = (weights.lambda_unsup, *ce(kept, pseudo.labels))
    if weights.lambda_dis > 0.0:
        value, grad_w, grad_b, grad_emb = losses.discriminator_bce_batch(
            emb, np.repeat([0.0, 1.0], n), student.discriminator_w, student.discriminator_b)
        terms["dis"] = (weights.lambda_dis, value,
                        {"discriminator_w": grad_w, "discriminator_b": grad_b},
                        {"embeddings": grad_emb})
    if len(pseudo) and (weights.lambda_pce > 0.0 or weights.lambda_mut > 0.0):
        geometry = losses.prototype_geometries(emb[kept], state.src_protos, state.tgt_protos,
                                               config.tau)
        if weights.lambda_pce > 0.0:
            value, grad_emb = losses.prototype_cross_entropy_batch(emb[kept], pseudo.labels,
                                                                   geometry)
            terms["pce"] = (weights.lambda_pce, value, {}, {"embeddings": full(kept, grad_emb)})
        if weights.lambda_mut > 0.0:
            value, grad_logits, grad_emb = losses.mutual_regularization_batch(
                emb[kept], probs[kept], geometry, config.regularizer, student.class_count)
            terms["mut"] = (weights.lambda_mut, value, {},
                            {"logits": full(kept, grad_logits),
                             "embeddings": full(kept, grad_emb)})

    total, grad_params, grad_inputs = 0.0, {}, {}
    for weight, value, params_grads, input_grads in terms.values():
        total += weight * value
        for sums, grads in ((grad_params, params_grads), (grad_inputs, input_grads)):
            for key, grad in grads.items():
                sums[key] = weight * grad if key not in sums else sums[key] + weight * grad
    grads = {**grad_params, **adapt._backward(student, x, emb, grad_inputs)}
    new_student = student.apply_gradients(grads, config.learning_rate)
    src_protos = update_all(state.src_protos, emb[:n], ys)
    tgt_protos = state.tgt_protos
    if len(pseudo):
        tgt_protos = update_all(tgt_protos, emb[kept], pseudo.labels)
    next_state = adapt.AdaptationState(
        student=new_student, teacher=ema_update(state.teacher, new_student, config.ema_rate),
        src_protos=src_protos, tgt_protos=tgt_protos, step=state.step + 1, rng=rng)
    values = {name: term[1] for name, term in terms.items()}
    return next_state, total, values, len(pseudo)


def state_bytes(state):
    """Every parameter and prototype row of ``state``, as bytes."""
    parts = [getattr(params, key).tobytes() for params in (state.student, state.teacher)
             for key in adapt.PARAM_KEYS]
    for pset in (state.src_protos, state.tgt_protos):
        parts += [pset.get(k).tobytes() for k in range(pset.class_count)]
    return parts


class TestTrainStepMatchesReferenceAssembly:
    """``train_step`` adds each term's gradients into the rows that term covers; that must
    give the bits of summing zero-filled full-size gradients, over ten steps of every
    ablation and class count. On 6 input and 6 embedding dims a row subset of a product
    has the bits of the full product's rows; the default shape (32 input dims, 128
    embedding dims, 64 + 64 rows) is where a reordered assembly can move them. Under
    OpenBLAS the single-class head's one-column products show it most often."""

    SMALL = (6, 6, 8, 60)        # input dim, feature_dim, batch_size, rows per domain
    DEFAULT = (32, 128, 64, 400)

    @pytest.mark.parametrize("class_count, shape", [
        pytest.param(1, SMALL, id="1"), pytest.param(2, SMALL, id="2"),
        pytest.param(8, SMALL, id="8"), pytest.param(1, DEFAULT, id="1-default-shape"),
        pytest.param(8, DEFAULT, id="8-default-shape")])
    @pytest.mark.parametrize("enable_adversarial", [False, True])
    @pytest.mark.parametrize("regularizer", ["jsd", "kl", "l2", "none"])
    @pytest.mark.parametrize("enable_pce", [False, True])
    def test_ten_steps_bitwise(self, enable_pce, regularizer, enable_adversarial, class_count,
                               shape):
        dim, feature_dim, batch_size, rows = shape
        config = tiny_config(enable_pce=enable_pce, regularizer=regularizer,
                             enable_adversarial=enable_adversarial, pseudo_threshold=0.3,
                             feature_dim=feature_dim, batch_size=batch_size)
        source, target = tiny_data(seed=20 + class_count, n=rows, d=dim, classes=class_count)
        rng = np.random.default_rng(21)
        src, tgt = (PrototypeSet(domain, class_count, config.feature_dim,
                                 {k: mathcore.l2_normalize(rng.normal(size=config.feature_dim))
                                  for k in range(class_count)})
                    for domain in ("source", "target"))
        start = init_state(config, source.dim, class_count)
        states = [adapt.AdaptationState(student=start.student, teacher=start.teacher.copy(),
                                        src_protos=src, tgt_protos=tgt, step=0,
                                        rng=np.random.Generator(np.random.PCG64(22)))
                  for _ in range(2)]
        kept = 0
        for _ in range(10):
            states[0], record = train_step(states[0], source, target, config)
            states[1], total, values, pseudo_count = reference_step(states[1], source,
                                                                    target, config)
            assert state_bytes(states[0]) == state_bytes(states[1])
            assert record.total == total and record.pseudo_count == pseudo_count
            for name, value in values.items():
                assert getattr(record, f"loss_{name}") == value
            kept += pseudo_count
        assert kept > 0


class TestCheckpointRoundTrip:
    def test_round_trip(self):
        import json
        source, target = tiny_data()
        config = tiny_config()
        result = run_experiment(source, target, config)
        doc = adapt.checkpoint_to_json_dict(result.state, config, "deadbeef")
        loaded_doc = json.loads(json.dumps(doc, sort_keys=True))
        state, loaded_config, cfg_hash = adapt.state_from_checkpoint(loaded_doc)
        assert cfg_hash == "deadbeef"
        assert loaded_config == config
        assert state.step == result.state.step
        for key in adapt.PARAM_KEYS:
            assert np.array_equal(getattr(state.student, key),
                                  getattr(result.state.student, key))
        assert state.tgt_protos.initialized_classes() == \
            result.state.tgt_protos.initialized_classes()


class TestEffectiveWeights:
    """A config builds its weights in effect once; nothing else about it changes."""

    def test_follows_replace(self):
        config = TrainerConfig(weights=LossWeights(lambda_dis=0.25, lambda_pce=0.5))
        assert config.effective_weights() is config.effective_weights()
        assert config.effective_weights() == config.weights
        baseline = experiment.baseline_config(config)
        assert baseline.effective_weights() == LossWeights(lambda_dis=0.25, lambda_pce=0.0,
                                                           lambda_mut=0.0)
        no_dis = replace(baseline, enable_adversarial=False, regularizer="kl")
        assert no_dis.effective_weights() == LossWeights(lambda_dis=0.0, lambda_pce=0.0)
        assert config.effective_weights() == config.weights  # the original is untouched

    def test_equality_hash_and_documents_unchanged(self):
        used, fresh = TrainerConfig(seed=3), TrainerConfig(seed=3)
        source, target = tiny_data()
        state = run_experiment(source, target, tiny_config()).state
        before = (hash(used), repr(used), used.to_json_dict(),
                  json.dumps(adapt.checkpoint_to_json_dict(state, used, "h"), sort_keys=True))
        used.effective_weights()
        after = (hash(used), repr(used), used.to_json_dict(),
                 json.dumps(adapt.checkpoint_to_json_dict(state, used, "h"), sort_keys=True))
        assert after == before
        assert used == fresh and hash(used) == hash(fresh)
        assert TrainerConfig.from_json_dict(used.to_json_dict()) == used


class TestTrainerConfigRanges:
    """Each ranged field's boundary values, the non-finite numbers and the error type."""

    @pytest.mark.parametrize("name, value, accepted", [
        ("tau", 5e-324, True), ("tau", 0.0, False),
        ("init_threshold", 1.0, True), ("init_threshold", 1.0 + 2 ** -52, False),
        ("init_threshold", 5e-324, True), ("init_threshold", 0.0, False),
        ("pseudo_threshold", 2.0, True), ("pseudo_threshold", 0.0, False),
        ("ema_rate", 0.0, True), ("ema_rate", 1.0 - 2 ** -53, True),
        ("ema_rate", 1.0, False), ("ema_rate", -5e-324, False),
        ("learning_rate", 0.0, True), ("learning_rate", -5e-324, False),
        ("augment_noise", 0.0, True), ("augment_noise", -5e-324, False),
        ("steps", 1, True), ("steps", 0, False),
        ("warmup_steps", 0, True), ("warmup_steps", -1, False),
        ("batch_size", 1, True), ("batch_size", 0, False),
        ("feature_dim", 1, True), ("feature_dim", 0, False),
        ("seed", 0, True), ("seed", -1, False),
        ("regularizer", "none", True), ("regularizer", "JSD", False),
        ("batch_size", 10 ** 6, True), ("batch_size", 10 ** 6 + 1, False),
        ("feature_dim", 10 ** 5, True), ("feature_dim", 10 ** 5 + 1, False),
        ("feature_dim", 10 ** 20, False),
    ])
    def test_boundary(self, name, value, accepted):
        if accepted:
            assert getattr(TrainerConfig(**{name: value}), name) == value
        else:
            with pytest.raises(ValueError, match=name) as excinfo:
                TrainerConfig(**{name: value})
            assert excinfo.type is ValueError

    @pytest.mark.parametrize("name", ["tau", "init_threshold", "pseudo_threshold", "ema_rate",
                                      "learning_rate", "augment_noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name) as excinfo:
            TrainerConfig(**{name: value})
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("name", ["steps", "warmup_steps", "batch_size", "feature_dim",
                                      "seed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_count_is_wrong_kind(self, name, value):
        with pytest.raises(TypeError, match=name):
            TrainerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["tau", "pseudo_threshold", "learning_rate",
                                      "augment_noise", "lambda_dis"])
    def test_integer_past_float64_fails_its_interval(self, name):
        with pytest.raises(ValueError, match=rf"{name} must lie in .*, got inf$"):
            TrainerConfig.from_json_dict({name: 2 ** 1100})

    def test_number_field_stores_a_float(self):
        doc = TrainerConfig.from_json_dict({"learning_rate": 0, "lambda_pce": 2}).to_json_dict()
        assert (doc["learning_rate"], doc["lambda_pce"]) == (0.0, 2.0)
        assert type(doc["learning_rate"]) is float and type(doc["lambda_pce"]) is float


def test_step_record_loss_fields_follow_the_terms():
    names = [f.name for f in fields(adapt.StepRecord) if f.name.startswith("loss_")]
    assert names == [f"loss_{term}" for term in losses.TERMS]


def test_negative_source_label_rejected_before_warm_up(monkeypatch):
    source, target = tiny_data()
    labels = source.labels.copy()
    labels[5] = -1

    def no_warm_up(*args):
        raise AssertionError("warm-up ran on a source with a label of -1")

    monkeypatch.setattr(adapt, "warmup_run", no_warm_up)
    with pytest.raises(ValueError, match="^source row 6 has label -1; "):
        run_experiment(LabeledBatch(source.features, labels, source.scores), target,
                       tiny_config())


class TestTraceContract:
    """Per adaptation step of the default and the baseline config, each name that
    ``perfbench/tracing.py`` patches on ``adapt`` is called as often as its per-step
    counts assume. A term that is off, or has no pseudo label to read, is not called."""

    TRACED = ("forward", "generate_pseudo_labels", "_cross_entropy_component",
              "_adversarial_component", "_pce_component", "_mut_component", "total_loss",
              "update_all", "ema_update")

    @pytest.mark.parametrize("name, overrides", [
        ("default", {}), ("baseline", {}), ("default", {"pseudo_threshold": 1.5})],
        ids=["default", "baseline", "default-no-pseudo-labels"])
    def test_calls_per_step(self, name, overrides, monkeypatch):
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
                         .read_text())
        config = replace(cli.trainer_from_config(doc), steps=30, **overrides)
        data = cli.generate(cli.spec_from_config(doc))
        source, target = data.source, data.target_features
        state = init_state(config, source.dim, int(source.labels.max()) + 1)
        state, _ = adapt.warmup_run(state, source, target, config)
        state = adapt.initialize_from_warmup(state, source, target, config)
        assert state.src_protos.fully_initialized and state.tgt_protos.fully_initialized

        calls = Counter()

        def count(owner, attr):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        for attr in self.TRACED:
            count(adapt, attr)
        count(adapt.ModelParams, "apply_gradients")
        weights = config.effective_weights()
        steps_with_labels = 0
        for _ in range(config.steps):
            calls.clear()
            state, record = train_step(state, source, target, config)
            kept = int(record.pseudo_count > 0)
            steps_with_labels += kept
            expected = {"forward": 2, "generate_pseudo_labels": 1,
                        "_cross_entropy_component": 1 + kept, "_adversarial_component": 1,
                        "_pce_component": kept * (weights.lambda_pce > 0.0),
                        "_mut_component": kept * (weights.lambda_mut > 0.0),
                        "total_loss": 1, "apply_gradients": 1, "update_all": 1 + kept,
                        "ema_update": 1}
            assert {attr: calls[attr] for attr in expected} == expected
        assert steps_with_labels == (0 if overrides else config.steps)
