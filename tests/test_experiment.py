from dataclasses import replace

import numpy as np
import pytest

from pacf import adapt, experiment, losses, metrics, synthbench
from pacf.prototypes import PrototypeSet
from pacf.errors import InsufficientSamples


@pytest.fixture(scope="module")
def small_setup():
    spec = synthbench.DomainShiftSpec(samples_per_class=60)
    dataset = synthbench.generate(spec)
    config = adapt.TrainerConfig(warmup_steps=60, steps=60, feature_dim=32)
    return dataset, config


class TestDefaults:
    def test_default_spec_shape(self):
        spec = synthbench.DomainShiftSpec()
        assert spec.class_count == 8
        assert spec.dim == 32
        assert spec.samples_per_class == 200
        assert spec.target_mean_shift == 1.5
        assert spec.target_std_multiplier == 1.8

    def test_default_trainer_paper_values(self):
        config = adapt.TrainerConfig()
        assert config.tau == 0.05
        assert config.init_threshold == 0.8
        assert config.weights.lambda_unsup == 1.0
        assert config.weights.lambda_dis == 0.1
        assert config.weights.lambda_pce == 1.0
        assert config.weights.lambda_mut == 1.0
        assert config.regularizer == "jsd"

    def test_baseline_config_disables_prototype_terms(self):
        config = adapt.TrainerConfig()
        baseline = experiment.baseline_config(config)
        weights = baseline.effective_weights
        assert weights.lambda_pce == 0.0
        assert weights.lambda_mut == 0.0
        assert weights.lambda_unsup == 1.0
        assert weights.lambda_dis == 0.1


class TestEvaluateState:
    def test_report_fields_populated(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        evaluation = experiment.evaluate_state(result.state, config, source, target,
                                               dataset.target_hidden_labels)
        report = evaluation.report
        assert set(report.source_variance) == set(range(8))
        assert set(report.target_variance) == set(range(8))
        assert set(report.mean_shift) == set(range(8))
        assert 0.0 <= report.proxy_a_distance <= 2.0
        assert -1.0 <= report.spearman <= 1.0
        assert -1.0 <= report.kendall <= 1.0
        assert all(0.0 <= v <= 1.0 for v in report.tp_ratio.values())
        assert report.pseudo_count > 0
        assert evaluation.projection.shape == (len(dataset.target_features), 2)

    def test_variance_uses_normalized_embeddings(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        evaluation = experiment.evaluate_state(result.state, config, source, target,
                                               dataset.target_hidden_labels)
        # normalized embeddings have unit rows, so per-class variance < 2
        assert all(0.0 <= v < 2.0 for v in evaluation.report.target_variance.values())
        assert all(0.0 <= v < 2.0 for v in evaluation.report.mean_shift.values())

    def test_without_hidden_labels_degrades_gracefully(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        evaluation = experiment.evaluate_state(result.state, config, source, target,
                                               target_hidden_labels=None)
        report = evaluation.report
        assert report.target_variance == {}
        assert report.mean_shift == {}
        assert report.tp_ratio == {}
        assert np.isfinite(report.proxy_a_distance)
        assert np.isfinite(report.spearman)

    def test_eval_deterministic(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        e1 = experiment.evaluate_state(result.state, config, source, target,
                                       dataset.target_hidden_labels)
        e2 = experiment.evaluate_state(result.state, config, source, target,
                                       dataset.target_hidden_labels)
        assert e1.report == e2.report
        assert np.array_equal(e1.projection, e2.projection)

    def test_rank_scores_align_with_metrics_module(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        evaluation = experiment.evaluate_state(result.state, config, source, target,
                                               dataset.target_hidden_labels)
        rho = metrics.spearman_rho(evaluation.linear_scores,
                                   evaluation.prototype_cosines)
        assert evaluation.report.spearman == rho

    @pytest.mark.parametrize("missing", [None, 3], ids=["full set", "class 3 uninitialized"])
    def test_prototype_cosines_are_the_training_geometry(self, small_setup, missing):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        state = adapt.run_experiment(source, target, config).state
        protos = state.tgt_protos
        kept = {k: protos.get(k) for k in protos.initialized_classes() if k != missing}
        state = replace(state, tgt_protos=PrototypeSet("target", protos.class_count, protos.dim,
                                                       kept))
        evaluation = experiment.evaluate_state(state, config, source, target,
                                               dataset.target_hidden_labels)
        embeddings, _ = adapt.forward(state.student, target)
        _, cosines = losses.prototype_geometry(embeddings, np.stack(list(kept.values())))
        assert evaluation.prototype_cosines.tobytes() == cosines.max(axis=1).tobytes()

    def test_student_forwarded_once_per_domain(self, small_setup, monkeypatch):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        calls = []
        original = adapt.forward

        def counting_forward(params, features):
            calls.append((params is result.state.student, len(features)))
            return original(params, features)

        monkeypatch.setattr(adapt, "forward", counting_forward)
        evaluation = experiment.evaluate_state(result.state, config, source, target,
                                               dataset.target_hidden_labels)
        student_calls = sorted(rows for is_student, rows in calls if is_student)
        assert student_calls == sorted([len(source.features), len(target)])
        _, probs = original(result.state.student, target)
        assert np.array_equal(evaluation.linear_scores, probs.max(axis=1))

    def test_unknown_hidden_label_enters_no_target_table(self, small_setup):
        dataset, config = small_setup
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        hidden = dataset.target_hidden_labels.copy()
        pseudo = adapt.generate_pseudo_labels(result.state.teacher, target,
                                              config.pseudo_threshold)
        unknown = pseudo.indices[:3]
        assert len(unknown) == 3
        hidden[unknown] = -1
        known = hidden >= 0
        report = experiment.evaluate_state(result.state, config, source, target, hidden).report
        # the same tables as an evaluation that never saw the unknown rows
        expected = experiment.evaluate_state(result.state, config, source, target[known],
                                             hidden[known]).report
        assert -1 not in report.target_variance and -1 not in report.tp_ratio
        assert report.target_variance == expected.target_variance
        assert report.mean_shift == expected.mean_shift
        kept = known[pseudo.indices]
        assert report.tp_ratio == metrics.tp_ratio(pseudo.labels[kept], pseudo.indices[kept],
                                                   hidden)

    def test_probe_fits_on_the_extractor_column_space(self, monkeypatch):
        dataset = synthbench.generate(synthbench.DomainShiftSpec(dim=8, samples_per_class=40))
        config = adapt.TrainerConfig(warmup_steps=20, steps=5, feature_dim=32)
        source, target = dataset.source, dataset.target_features
        result = adapt.run_experiment(source, target, config)
        bases = []
        original = metrics._column_basis

        def recording_basis(x):
            bases.append(original(x))
            return bases[-1]

        monkeypatch.setattr(metrics, "_column_basis", recording_basis)
        experiment.evaluate_state(result.state, config, source, target,
                                  dataset.target_hidden_labels)
        # an affine extractor's embeddings, with the bias column, span input_dim + 1 dims
        assert [basis.shape[1] for basis in bases] == [result.state.student.input_dim + 1]

    def test_peak_memory_about_two_embeddings(self, traced_peak):
        dataset = synthbench.generate(synthbench.DomainShiftSpec(samples_per_class=200))
        config = adapt.TrainerConfig(warmup_steps=50, steps=1)
        source, target = dataset.source, dataset.target_features
        state = adapt.init_state(config, source.dim, 8)
        state, _ = adapt.warmup_run(state, source, target, config)
        state = adapt.initialize_from_warmup(state, source, target, config)
        assert state.tgt_protos.initialized_classes()  # the prototype cosines are computed
        embedding_bytes = (len(source) + len(target)) * config.feature_dim * 8
        # with copies of the embeddings alive at once the peak was 5.1x their bytes; with
        # the probe first and the unit rows made in place, 2.2x
        peak = traced_peak(experiment.evaluate_state, state, config, source, target,
                           dataset.target_hidden_labels)
        assert peak < 3 * embedding_bytes


class TestEvaluationSizes:
    """``evaluate_state`` checks ``metrics.check_evaluable`` before any forward pass."""

    @pytest.fixture()
    def forward_fails(self, monkeypatch):
        def no_forward(*args):
            raise AssertionError("evaluate_state ran a forward pass")
        monkeypatch.setattr(adapt, "forward", no_forward)

    def test_too_few_rows(self, forward_fails):
        dataset = synthbench.generate(synthbench.DomainShiftSpec(class_count=2,
                                                                 samples_per_class=5))
        config = adapt.TrainerConfig(feature_dim=4)
        state = adapt.init_state(config, dataset.source.dim, 2)
        with pytest.raises(InsufficientSamples,
                           match="^need >= 20 samples per domain, got 10 and 10$"):
            experiment.evaluate_state(state, config, dataset.source, dataset.target_features)

    def test_one_dim_embedding(self, forward_fails):
        dataset = synthbench.generate(synthbench.DomainShiftSpec(samples_per_class=5))
        config = adapt.TrainerConfig(feature_dim=1)
        state = adapt.init_state(config, dataset.source.dim, 8)
        with pytest.raises(InsufficientSamples,
                           match=r"^need 2-D data with dim >= 2, got shape \(40, 1\)$"):
            experiment.evaluate_state(state, config, dataset.source, dataset.target_features)
