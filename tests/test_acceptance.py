"""Acceptance suite: every shipping criterion, one test each, with its budget.

The adaptation-level criteria share one run matrix (computed once per
session): experiment seed s in {0, 1, 2} draws the benchmark with data seed
100 + s and trains with trainer seed s. The default benchmark is the s = 0
instance. Variants per seed: full (all terms), baseline (prototype terms
off), mut-only (mutual regularization without prototype cross entropy).

Each test prints one PASS line with the measured values after its
assertions hold.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from pacf import adapt, cli, experiment, losses, mathcore, metrics, synthbench
from pacf.losses import LossWeights
from pacf.prototypes import PrototypeSet, update_all, update_prototype, blend_weight

SEEDS = (0, 1, 2)


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
    return float(np.linalg.norm(analytic - numeric) / scale)


def random_prototypes(domain, class_count, dim, rng):
    return PrototypeSet(domain, class_count, dim,
                        {k: mathcore.l2_normalize(rng.normal(size=dim))
                         for k in range(class_count)})


class RunMatrix:
    """Lazily computed adaptation runs shared by criteria 4-8."""

    def __init__(self):
        self.datasets = {}
        self.evaluations = {}
        self.durations = {}

    def dataset(self, s):
        if s not in self.datasets:
            self.datasets[s] = synthbench.generate(
                synthbench.DomainShiftSpec(seed=100 + s))
        return self.datasets[s]

    def config(self, s, variant):
        config = adapt.TrainerConfig(seed=s)
        if variant == "full":
            return config
        if variant == "base":
            return experiment.baseline_config(config)
        if variant == "mutonly":
            return replace(config, enable_pce=False)
        raise ValueError(variant)

    def evaluation(self, s, variant):
        key = (s, variant)
        if key not in self.evaluations:
            dataset = self.dataset(s)
            source, target = dataset.source, dataset.target_features
            start = time.perf_counter()
            if variant == "warm":
                config = self.config(s, "full")
                state = adapt.init_state(config, source.dim, 8)
                state, _ = adapt.warmup_run(state, source, target, config)
                state = adapt.initialize_from_warmup(state, source, target, config)
            else:
                config = self.config(s, variant)
                state = adapt.run_experiment(source, target, config).state
            evaluation = experiment.evaluate_state(
                state, config, source, target, dataset.target_hidden_labels)
            self.durations[key] = time.perf_counter() - start
            self.evaluations[key] = evaluation
        return self.evaluations[key]

    def report(self, s, variant):
        return self.evaluation(s, variant).report


@pytest.fixture(scope="session")
def matrix():
    return RunMatrix()


class TestCriterion01GradientCorrectness:
    """Analytic gradients match central finite differences (h = 1e-5)
    within 1e-4 relative error on >= 100 seeded random configurations per loss."""

    N = 100
    H = 1e-5
    TOL = 1e-4

    def test_criterion_1_gradient_correctness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = {}

        worst = 0.0
        for _ in range(self.N):
            class_count = int(rng.integers(2, 6))
            dim = int(rng.integers(3, 9))
            tau = float(rng.uniform(0.1, 1.0))
            src = random_prototypes("source", class_count, dim, rng)
            tgt = random_prototypes("target", class_count, dim, rng)
            x = rng.normal(size=dim)
            label = int(rng.integers(class_count))
            loss = losses.prototype_cross_entropy(x, label, src, tgt, tau)
            numeric = mathcore.finite_difference_gradient(
                lambda v: losses.prototype_cross_entropy(v, label, src, tgt, tau).value,
                x, self.H)
            worst = max(worst, relative_error(loss.grad_features, numeric))
        assert worst < self.TOL
        checked["pce"] = worst

        for kind in ("l2", "kl", "jsd"):
            worst = 0.0
            for _ in range(self.N):
                size = int(rng.integers(2, 6))
                logits = [rng.normal(size=size) for _ in range(3)]
                probs = [mathcore.temperature_softmax(z, 1.0) for z in logits]
                loss = losses.regularizer_variant(*probs, kind)
                for branch, key in enumerate(("p_lin", "p_src", "p_tgt")):
                    analytic = mathcore.softmax_vjp(probs[branch],
                                                    loss.grad_inputs[key])

                    def value_of(z, branch=branch):
                        current = list(probs)
                        current[branch] = mathcore.temperature_softmax(z, 1.0)
                        return losses.regularizer_variant(*current, kind).value

                    numeric = mathcore.finite_difference_gradient(
                        value_of, logits[branch], self.H)
                    worst = max(worst, relative_error(analytic, numeric))
            assert worst < self.TOL, kind
            checked[f"mut-{kind}"] = worst

        worst = 0.0
        for _ in range(self.N):
            size = int(rng.integers(2, 8))
            logits = rng.normal(size=size, scale=2.0)
            label = int(rng.integers(size))
            probs = mathcore.temperature_softmax(logits, 1.0)
            analytic = losses.classification_loss(probs, label).grad_inputs["logits"]
            numeric = mathcore.finite_difference_gradient(
                lambda z: losses.classification_loss(
                    mathcore.temperature_softmax(z, 1.0), label).value,
                logits, self.H)
            worst = max(worst, relative_error(analytic, numeric))
        assert worst < self.TOL
        checked["classification"] = worst

        worst = 0.0
        for _ in range(self.N):
            dim = int(rng.integers(2, 8))
            x = rng.normal(size=dim)
            w = rng.normal(size=dim)
            b = float(rng.normal())
            label = int(rng.integers(2))
            loss = losses.domain_adversarial_loss(x, label, w, b)
            numeric_x = mathcore.finite_difference_gradient(
                lambda v: losses.domain_adversarial_loss(v, label, w, b).value,
                x, self.H)
            # grad_features carries the reversal; the unreversed gradient is checked
            worst = max(worst, relative_error(-loss.grad_features, numeric_x))
            numeric_w = mathcore.finite_difference_gradient(
                lambda v: losses.domain_adversarial_loss(x, label, v, b).value,
                w, self.H)
            worst = max(worst, relative_error(loss.grad_params["discriminator_w"],
                                              numeric_w))
        assert worst < self.TOL
        checked["adversarial"] = worst

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        detail = " ".join(f"{k}={v:.2e}" for k, v in checked.items())
        print(f"\ncriterion 1 PASS: max relative gradient errors {detail} "
              f"({self.N} configs each, {elapsed:.1f} s)")


class TestCriterion02PrototypeAlgebra:
    """Unit norm after every update, alpha in [0, 1], exact fixed points at
    cos = +-1, and bitwise locality, over 10,000 random updates."""

    def test_criterion_2_prototype_algebra(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            dim = int(rng.integers(2, 9))
            prev = mathcore.l2_normalize(rng.normal(size=dim))
            mean = rng.normal(size=dim) * 10 ** rng.uniform(-2, 2)
            alpha = blend_weight(prev, mean)
            assert 0.0 <= alpha <= 1.0
            updated = update_prototype(prev, mean)
            assert abs(np.linalg.norm(updated) - 1.0) <= 1e-9

        # exact fixed points: power-of-two scalings keep the cosine exactly +-1
        for prev in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                     np.array([0.6, 0.8]), np.array([0.6, 0.0, 0.8])):
            for scale in (2.0, 0.5, 4.0):
                aligned = update_prototype(prev, scale * prev)
                assert np.array_equal(aligned, prev), (prev, scale)
                opposed = update_prototype(prev, -scale * prev)
                assert np.array_equal(opposed, prev), (prev, -scale)

        # locality: updating one class never perturbs another, bitwise
        pset = PrototypeSet("source", 4, 3,
                            {k: mathcore.l2_normalize(rng.normal(size=3))
                             for k in range(4)})
        for _ in range(200):
            touched = int(rng.integers(4))
            before = {k: pset.get(k) for k in range(4)}
            pset = update_all(pset, rng.normal(size=(3, 3)),
                              np.full(3, touched, dtype=np.int64))
            for k in range(4):
                if k != touched:
                    assert pset.get(k) is before[k]

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"\ncriterion 2 PASS: 10,000 updates kept unit norm and alpha bounds, "
              f"fixed points exact, locality bitwise ({elapsed:.1f} s)")


class TestCriterion03DivergenceProperties:
    """JS symmetry and [0, ln 2] bound, KL non-negativity, softmax
    normalization and shift invariance, over 10,000 random pairs."""

    def test_criterion_3_divergence_properties(self):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        bound = math.log(2.0) + 1e-12
        for i in range(10_000):
            size = int(rng.integers(2, 9))
            concentration = 10 ** rng.uniform(-0.7, 0.7)
            p = rng.dirichlet(np.full(size, concentration))
            q = rng.dirichlet(np.full(size, concentration))
            if i % 50 == 0:  # exercise exact point masses too
                p = np.zeros(size)
                p[int(rng.integers(size))] = 1.0
            js = mathcore.js_divergence(p, q)
            assert 0.0 <= js <= bound
            assert js == mathcore.js_divergence(q, p)
            assert mathcore.kl_divergence(q, p) >= 0.0
            assert mathcore.kl_divergence(p, q) >= 0.0

            scores = rng.normal(scale=5.0, size=size)
            tau = 10 ** rng.uniform(-3, 3)
            probs = mathcore.temperature_softmax(scores, tau)
            assert abs(float(probs.sum()) - 1.0) < 1e-9
            shifted = mathcore.temperature_softmax(scores + rng.normal(scale=50.0), tau)
            assert np.max(np.abs(probs - shifted)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"\ncriterion 3 PASS: 10,000 random pairs held JS/KL/softmax "
              f"properties ({elapsed:.1f} s)")


class TestCriterion04Compaction:
    """Full run cuts average per-class target-embedding variance by >= 15%
    against the baseline on the default benchmark."""

    def test_criterion_4_compaction(self, matrix):
        full = matrix.report(0, "full")
        base = matrix.report(0, "base")
        reduction = 1.0 - (metrics.class_average(full.target_variance)
                           / metrics.class_average(base.target_variance))
        elapsed = matrix.durations[(0, "full")] + matrix.durations[(0, "base")]
        assert elapsed < 120.0
        assert reduction >= 0.15
        print(f"\ncriterion 4 PASS: target variance "
              f"{metrics.class_average(base.target_variance):.4f} -> "
              f"{metrics.class_average(full.target_variance):.4f}, "
              f"reduction {reduction:.1%} >= 15% "
              f"({elapsed:.0f} s for both runs)")


class TestCriterion05MeanShiftReduction:
    """Full run cuts the average class-mean shift by >= 25% against the
    baseline on the default benchmark."""

    def test_criterion_5_mean_shift_reduction(self, matrix):
        full = matrix.report(0, "full")
        base = matrix.report(0, "base")
        reduction = 1.0 - (metrics.class_average(full.mean_shift)
                           / metrics.class_average(base.mean_shift))
        assert reduction >= 0.25
        print(f"\ncriterion 5 PASS: mean shift {metrics.class_average(base.mean_shift):.4f} -> "
              f"{metrics.class_average(full.mean_shift):.4f}, reduction {reduction:.1%} >= 25%")


class TestCriterion06RankConsistency:
    """Mutual regularization strictly raises Spearman rho and Kendall tau
    between linear scores and prototype cosines, for 3 of 3 seeds."""

    def test_criterion_6_rank_consistency(self, matrix):
        start = time.perf_counter()
        rows = []
        for s in SEEDS:
            with_mut = matrix.report(s, "mutonly")
            without = matrix.report(s, "base")
            assert with_mut.spearman > without.spearman, s
            assert with_mut.kendall > without.kendall, s
            rows.append(f"s{s}: rho {without.spearman:.3f}->{with_mut.spearman:.3f} "
                        f"tau {without.kendall:.3f}->{with_mut.kendall:.3f}")
        mut_cost = sum(matrix.durations[(s, "mutonly")] + matrix.durations[(s, "base")]
                       for s in SEEDS)
        assert mut_cost < 180.0
        print(f"\ncriterion 6 PASS: {'; '.join(rows)} "
              f"({time.perf_counter() - start:.0f} s incremental)")


class TestCriterion07ProxyADistance:
    """Adaptation lowers the proxy A-distance versus the warm-up-only model;
    the metric itself anchors near 1.0 for identical domains and above 1.8
    for separated ones."""

    def test_criterion_7_proxy_a_distance(self, matrix):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        identical = metrics.proxy_a_distance(rng.normal(size=(200, 16)),
                                             rng.normal(size=(200, 16)))
        assert abs(identical - 1.0) <= 0.15
        separated = metrics.proxy_a_distance(
            rng.normal(size=(200, 16)), rng.normal(size=(200, 16)) + 25.0)
        assert separated >= 1.8

        adapted = matrix.report(0, "full").proxy_a_distance
        warm = matrix.report(0, "warm").proxy_a_distance
        warm_cost = matrix.durations[(0, "warm")]
        assert adapted < warm
        assert warm_cost + (time.perf_counter() - start) < 60.0
        print(f"\ncriterion 7 PASS: d_A warm-up {warm:.3f} -> adapted {adapted:.3f}; "
              f"anchors identical={identical:.3f}, separated={separated:.3f}")


class TestCriterion08PseudoLabelQuality:
    """Average pseudo-label TP ratio of the full run is >= the baseline's
    at the final step, for 3 of 3 seeds."""

    def test_criterion_8_pseudo_label_quality(self, matrix):
        rows = []
        for s in SEEDS:
            full = matrix.report(s, "full")
            base = matrix.report(s, "base")
            assert metrics.class_average(full.tp_ratio) >= metrics.class_average(base.tp_ratio), s
            rows.append(f"s{s}: {metrics.class_average(base.tp_ratio):.4f}->"
                        f"{metrics.class_average(full.tp_ratio):.4f}")
        print(f"\ncriterion 8 PASS: TP ratio {'; '.join(rows)}")


class TestCriterion09DeterminismRoundTrip:
    """Identical config and seed produce byte-identical artifacts across two
    invocations of every command; CSV dumps round-trip losslessly."""

    CONFIG = {
        "benchmark": {"class_count": 4, "dim": 8, "samples_per_class": 40,
                      "seed": 5},
        "trainer": {"warmup_steps": 30, "steps": 30, "batch_size": 16,
                    "feature_dim": 12, "seed": 1},
        "ablation": {"enable_pce": True, "regularizer": "jsd",
                     "enable_adversarial": True},
    }

    def test_criterion_9_determinism_and_round_trip(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))

        def run_all(tag):
            # identical directory basenames so inputs match byte for byte
            base = tmp_path / tag
            data = base / "data"
            run = base / "run"
            report = base / "report"
            for d in (data, run, report):
                d.mkdir(parents=True)
            assert cli.main(["gen", "--config", str(config_path),
                             "--out", str(data)]) == 0
            assert cli.main(["train", "--config", str(config_path),
                             "--data", str(data), "--out", str(run)]) == 0
            assert cli.main(["report", str(run), "--out", str(report)]) == 0
            payload = {}
            for directory in (data, run, report):
                for name in sorted(os.listdir(directory)):
                    with open(os.path.join(directory, name), "rb") as fh:
                        payload[f"{directory.name}/{name}"] = fh.read()
            return payload

        first = run_all("a")
        second = run_all("b")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], name

        rng = np.random.default_rng(17)
        batch = synthbench.LabeledBatch(
            rng.normal(size=(30, 6)) * 10 ** rng.uniform(-8, 8, size=(30, 1)),
            rng.integers(-1, 4, size=30), rng.uniform(0, 1, size=30))
        dump = tmp_path / "dump.csv"
        synthbench.save_dump(batch, dump)
        loaded = synthbench.load_dump(dump)
        assert np.array_equal(loaded.features, batch.features)
        assert np.array_equal(loaded.labels, batch.labels)
        assert np.array_equal(loaded.scores, batch.scores)
        svg_count = sum(1 for n in first if n.endswith(".svg"))
        print(f"\ncriterion 9 PASS: {len(first)} artifacts byte-identical across "
              f"invocations (incl. {svg_count} SVGs); dump round-trip lossless")


class TestCriterion10DegenerateEquivalence:
    """With all adaptation terms disabled and pseudo labeling off, the
    trainer's parameter trajectory is bitwise identical to a plain
    supervised-only reference loop."""

    def reference_loop(self, source, target, config, n_steps):
        state = adapt.init_state(config, source.dim,
                                 int(source.labels.max()) + 1)
        we = state.student.extractor_w
        be = state.student.extractor_b
        wc = state.student.classifier_w
        bc = state.student.classifier_b
        rng = state.rng
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
        return we, be, wc, bc

    def test_criterion_10_degenerate_equivalence(self):
        dataset = synthbench.generate(synthbench.DomainShiftSpec(
            seed=100, samples_per_class=50))
        source, target = dataset.source, dataset.target_features
        config = adapt.TrainerConfig(
            seed=0, warmup_steps=20, steps=25, feature_dim=16,
            pseudo_threshold=1.01,
            weights=LossWeights(lambda_unsup=0.0, lambda_dis=0.0,
                                lambda_pce=0.0, lambda_mut=0.0))
        result = adapt.run_experiment(source, target, config)
        we, be, wc, bc = self.reference_loop(source, target, config,
                                             config.warmup_steps + config.steps)
        assert np.array_equal(result.state.student.extractor_w, we)
        assert np.array_equal(result.state.student.extractor_b, be)
        assert np.array_equal(result.state.student.classifier_w, wc)
        assert np.array_equal(result.state.student.classifier_b, bc)
        assert all(record.pseudo_count == 0 for record in result.records)
        print("\ncriterion 10 PASS: degenerate trainer bitwise-identical to the "
              f"supervised reference over {config.warmup_steps + config.steps} steps")
