import numpy as np
import pytest

from pacf import mathcore
from pacf.errors import DimensionMismatch, EmptyBatch, UninitializedPrototype, ZeroVector
from pacf.prototypes import (PrototypeSet, blend_weight, initialize_prototypes,
                             minibatch_prototypes, update_all, update_prototype)
from pacf.synthbench import LabeledBatch


def oracle_update_prototype(prev, mean):
    """The per-class update as it was before prototype maintenance was batched."""
    alpha = (mathcore.cosine_similarity(prev, mean) + 1.0) / 2.0
    return mathcore.l2_normalize((1.0 - alpha) * np.asarray(prev) + alpha * np.asarray(mean))


def oracle_update_all(protos, features, labels):
    """Per-class loop over the classes present: blend if initialized, else adopt."""
    out = dict(protos)
    for k in np.unique(labels):
        mean = features[labels == k].mean(axis=0)
        out[int(k)] = (oracle_update_prototype(protos[int(k)], mean) if int(k) in protos
                       else mathcore.l2_normalize(mean))
    return out


def make_batch(features, labels, scores):
    return LabeledBatch(np.asarray(features, dtype=float),
                        np.asarray(labels), np.asarray(scores, dtype=float))


class TestInitializePrototypes:
    def test_mean_then_normalize(self):
        batch = make_batch([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.9, 0.9])
        pset = initialize_prototypes(batch, 0.8, "source", 1)
        np.testing.assert_allclose(pset.get(0), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_single_feature_normalized(self):
        batch = make_batch([[2.0, 0.0]], [0], [0.9])
        pset = initialize_prototypes(batch, 0.8, "source", 1)
        np.testing.assert_allclose(pset.get(0), [1.0, 0.0], atol=0)

    def test_below_threshold_stays_uninitialized(self):
        batch = make_batch([[1.0, 0.0]], [0], [0.5])
        pset = initialize_prototypes(batch, 0.8, "target", 2)
        assert not pset.is_initialized(0)
        assert not pset.is_initialized(1)
        with pytest.raises(UninitializedPrototype):
            pset.get(0)

    def test_threshold_is_inclusive(self):
        batch = make_batch([[1.0, 0.0]], [0], [0.8])
        pset = initialize_prototypes(batch, 0.8, "target", 1)
        assert pset.is_initialized(0)

    def test_empty_batch(self):
        batch = make_batch(np.empty((0, 2)), np.empty(0, dtype=int), np.empty(0))
        with pytest.raises(EmptyBatch):
            initialize_prototypes(batch, 0.8, "source", 2)


class TestMinibatchPrototypes:
    def test_two_point_mean(self):
        means = minibatch_prototypes([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        assert set(means) == {0}
        np.testing.assert_allclose(means[0], [0.5, 0.5], atol=0)

    def test_only_present_classes_appear(self):
        means = minibatch_prototypes([[1.0, 0.0]], [3])
        assert set(means) == {3}
        np.testing.assert_allclose(means[3], [1.0, 0.0], atol=0)

    def test_against_accumulator_oracle(self):
        rng = np.random.default_rng(10)
        features = rng.normal(size=(40, 5))
        labels = rng.integers(0, 4, size=40)
        means = minibatch_prototypes(features, labels)

        sums: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        for vec, label in zip(features, labels):
            sums[int(label)] = sums.get(int(label), np.zeros(5)) + vec
            counts[int(label)] = counts.get(int(label), 0) + 1
        assert set(means) == set(sums)
        for k in sums:
            np.testing.assert_allclose(means[k], sums[k] / counts[k], atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyBatch):
            minibatch_prototypes(np.empty((0, 3)), np.empty(0, dtype=int))


class TestUpdatePrototype:
    def test_fixed_point_when_mean_equals_prev(self):
        prev = mathcore.l2_normalize([0.6, 0.8])
        result = update_prototype(prev, prev)
        assert blend_weight(prev, prev) == 1.0
        np.testing.assert_allclose(result, prev, atol=1e-12)

    def test_opposed_mean_keeps_previous(self):
        prev = np.array([0.6, 0.8])
        result = update_prototype(prev, -2.0 * prev)
        assert blend_weight(prev, -2.0 * prev) == 0.0
        assert np.array_equal(result, prev)

    def test_orthogonal_blend(self):
        result = update_prototype([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(result, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroVector):
            update_prototype([1.0, 0.0], [0.0, 0.0])

    def test_alpha_range_and_monotonicity(self):
        prev = np.array([1.0, 0.0])
        angles = np.linspace(0.0, np.pi, 25)
        alphas = [blend_weight(prev, [np.cos(a), np.sin(a)]) for a in angles]
        assert all(0.0 <= a <= 1.0 for a in alphas)
        assert all(a1 >= a2 - 1e-15 for a1, a2 in zip(alphas, alphas[1:]))

    def test_alpha_scale_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            prev = mathcore.l2_normalize(rng.normal(size=4))
            mean = rng.normal(size=4)
            assert blend_weight(prev, mean) == pytest.approx(
                blend_weight(prev, 7.3 * mean), abs=1e-12)

    def test_unit_norm_after_random_updates(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            prev = mathcore.l2_normalize(rng.normal(size=6))
            mean = rng.normal(size=6) * 10 ** rng.uniform(-2, 2)
            result = update_prototype(prev, mean)
            assert abs(np.linalg.norm(result) - 1.0) < 1e-9


class TestUpdateAll:
    def make_set(self):
        protos = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        return PrototypeSet("source", 3, 2, protos)

    def test_locality_bitwise(self):
        pset = self.make_set()
        before = pset.get(1).copy()
        updated = update_all(pset, [[0.5, 0.5]], [0])
        assert np.array_equal(updated.get(1), before)
        assert updated.get(1) is pset.get(1)
        assert not np.array_equal(updated.get(0), pset.get(0))

    def test_uninitialized_class_adopts_normalized_mean(self):
        pset = self.make_set()
        updated = update_all(pset, [[3.0, 4.0]], [2])
        np.testing.assert_allclose(updated.get(2), [0.6, 0.8], atol=1e-15)

    def test_replay_matches_stepwise_oracle(self):
        rng = np.random.default_rng(13)
        pset = PrototypeSet("target", 4, 3)
        oracle: dict[int, np.ndarray] = {}
        for _ in range(30):
            n = int(rng.integers(1, 8))
            features = rng.normal(size=(n, 3))
            labels = rng.integers(0, 4, size=n)
            pset = update_all(pset, features, labels)
            for k in np.unique(labels):
                mean = features[labels == k].mean(axis=0)
                if int(k) in oracle:
                    alpha = (mathcore.cosine_similarity(oracle[int(k)], mean) + 1.0) / 2.0
                    blended = (1.0 - alpha) * oracle[int(k)] + alpha * mean
                    oracle[int(k)] = mathcore.l2_normalize(blended)
                else:
                    oracle[int(k)] = mathcore.l2_normalize(mean)
        assert set(pset.initialized_classes()) == set(oracle)
        for k, expected in oracle.items():
            np.testing.assert_allclose(pset.get(k), expected, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            update_all(self.make_set(), [[1.0, 0.0]], [5])

    def test_empty_batch_leaves_set_unchanged(self):
        pset = self.make_set()
        updated = update_all(pset, np.empty((0, 2)), np.empty(0, dtype=int))
        assert updated.initialized_classes() == pset.initialized_classes()
        for k in pset.initialized_classes():
            assert updated.get(k) is pset.get(k)


class TestBatchedUpdateAgainstPerClassOracle:
    """The batched update equals the old per-class loop, error types included."""

    @pytest.mark.parametrize("class_count", [1, 2, 8])
    def test_random_batches(self, class_count):
        rng = np.random.default_rng(40 + class_count)
        for _ in range(60):
            dim = int(rng.integers(2, 17))
            initialized = rng.random(class_count) < 0.6  # partly initialized sets
            protos = {k: mathcore.l2_normalize(rng.normal(size=dim))
                      for k in range(class_count) if initialized[k]}
            pset = PrototypeSet("target", class_count, dim, protos)
            n = int(rng.integers(1, 3 * class_count + 2))  # many classes get a single row
            features = rng.normal(size=(n, dim)) * 10 ** rng.uniform(-2, 2)
            labels = rng.integers(0, class_count, size=n)
            updated = update_all(pset, features, labels)
            expected = oracle_update_all(
                {k: pset.get(k) for k in pset.initialized_classes()}, features, labels)
            assert updated.initialized_classes() == sorted(expected)
            for k, row in expected.items():
                np.testing.assert_allclose(updated.get(k), row, rtol=0, atol=1e-12)
                if k not in labels:
                    assert updated.get(k) is pset.get(k)

    def test_batch_of_one_views(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            prev = mathcore.l2_normalize(rng.normal(size=dim))
            mean = rng.normal(size=dim) * 10 ** rng.uniform(-2, 2)
            np.testing.assert_allclose(update_prototype(prev, mean),
                                       oracle_update_prototype(prev, mean), rtol=0, atol=1e-12)
            assert blend_weight(prev, mean) == pytest.approx(
                (mathcore.cosine_similarity(prev, mean) + 1.0) / 2.0, abs=1e-12)

    def make_set(self):
        return PrototypeSet("source", 3, 2, {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})

    @pytest.mark.parametrize("labels", [[5], [3], [-1], [0, 7]])
    def test_label_out_of_range(self, labels):
        with pytest.raises(ValueError):
            update_all(self.make_set(), np.ones((len(labels), 2)), labels)

    @pytest.mark.parametrize("label", [0, 2])  # an initialized and an uninitialized class
    def test_zero_class_mean(self, label):
        with pytest.raises(ZeroVector):
            update_all(self.make_set(), [[1.0, 2.0], [-1.0, -2.0]], [label, label])

    @pytest.mark.parametrize("label", [0, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, label, bad):
        with pytest.raises(ValueError):
            update_all(self.make_set(), [[bad, 1.0], [0.5, 0.5]], [label, 1])

    def test_empty_batch(self):
        pset = self.make_set()
        assert update_all(pset, np.empty((0, 2)), np.empty(0, dtype=int)) is pset
        with pytest.raises(EmptyBatch):
            minibatch_prototypes(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(EmptyBatch):
            initialize_prototypes(make_batch(np.empty((0, 2)), np.empty(0, dtype=int),
                                             np.empty(0)), 0.8, "source", 3)

    def test_feature_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            update_all(self.make_set(), [[1.0, 0.0, 0.0]], [0])


class TestPrototypeMatrix:
    def full_set(self):
        return PrototypeSet("source", 3, 2, {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]),
                                             2: np.array([0.6, 0.8])})

    def test_read_only(self):
        pset = self.full_set()
        matrix = pset.matrix()
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0
        assert not pset.get(0).flags.writeable
        with pytest.raises(ValueError):
            pset.get(0)[0] = 2.0
        assert pset.matrix() is matrix

    def test_never_stale_after_updates(self):
        pset = self.full_set()
        before = pset.matrix().copy()
        updated = pset.with_updates({1: np.array([0.8, -0.6])})
        np.testing.assert_array_equal(updated.matrix(), [[1.0, 0.0], [0.8, -0.6], [0.6, 0.8]])
        np.testing.assert_array_equal(pset.matrix(), before)
        again = update_all(updated, [[0.0, 3.0], [1.0, 1.0]], [0, 2])
        np.testing.assert_array_equal(again.matrix(), np.stack([again.get(k) for k in range(3)]))
        np.testing.assert_array_equal(again.matrix()[1], updated.matrix()[1])


class TestPrototypeSetJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(14)
        protos = {k: mathcore.l2_normalize(rng.normal(size=5)) for k in (0, 2)}
        pset = PrototypeSet("target", 4, 5, protos)
        import json
        doc = json.loads(json.dumps(pset.to_json_dict()))
        loaded = PrototypeSet.from_json_dict(doc)
        assert loaded.domain == "target"
        assert loaded.class_count == 4
        assert loaded.initialized_classes() == [0, 2]
        for k in (0, 2):
            assert np.array_equal(loaded.get(k), pset.get(k))

    def test_non_unit_prototype_rejected(self):
        with pytest.raises(ValueError):
            PrototypeSet("source", 1, 2, {0: np.array([1.0, 1.0])})

    @pytest.mark.parametrize("key, value", [("class_count", 2.7), ("class_count", "3"),
                                            ("class_count", float("inf")), ("dim", 2.0)])
    def test_count_that_is_not_an_integer_rejected(self, key, value):
        doc = PrototypeSet("source", 3, 2, {0: np.array([1.0, 0.0])}).to_json_dict()
        doc[key] = value
        with pytest.raises(TypeError):
            PrototypeSet.from_json_dict(doc)

    def test_numpy_integer_counts_become_ints(self):
        pset = PrototypeSet("source", np.int64(3), np.int32(2))
        assert (pset.class_count, pset.dim) == (3, 2)
        assert type(pset.class_count) is type(pset.dim) is int

    def test_matrix_requires_full_set(self):
        pset = PrototypeSet("source", 2, 2, {0: np.array([1.0, 0.0])})
        with pytest.raises(UninitializedPrototype):
            pset.matrix()
