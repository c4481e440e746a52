import numpy as np
import pytest

from pacf import metrics
from pacf.errors import DimensionMismatch, InsufficientSamples


class TestIntraClassVariance:
    def test_identical_samples_zero(self):
        out = metrics.intra_class_variance([[1.0, 2.0]] * 5, [0] * 5)
        assert out[0] == 0.0

    def test_hand_computed_trace(self):
        out = metrics.intra_class_variance([[0.0, 0.0], [2.0, 0.0]], [0, 0])
        assert out[0] == pytest.approx(2.0, abs=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        base = metrics.intra_class_variance(x, labels)
        shifted = metrics.intra_class_variance(x + np.array([5.0, -3.0, 0.1, 100.0]),
                                               labels)
        for k in base:
            assert base[k] == pytest.approx(shifted[k], rel=1e-9)

    def test_singleton_class_omitted(self):
        out = metrics.intra_class_variance([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]],
                                           [0, 0, 1])
        assert 1 not in out and 0 in out

    def test_permutation_invariance(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        perm = rng.permutation(40)
        a = metrics.intra_class_variance(x, labels)
        b = metrics.intra_class_variance(x[perm], labels[perm])
        for k in a:
            assert a[k] == pytest.approx(b[k], rel=1e-12)


class TestMeanShift:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(52).normal(size=(20, 3))
        labels = np.arange(20) % 2
        out = metrics.mean_shift(x, labels, x, labels)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_three_four_five(self):
        src = np.array([[0.0, 0.0], [1.0, 1.0]])
        tgt = src + np.array([3.0, 4.0])
        out = metrics.mean_shift(src, [0, 0], tgt, [0, 0])
        assert out[0] == pytest.approx(5.0, abs=1e-12)

    def test_symmetric_in_domains(self):
        rng = np.random.default_rng(53)
        a, la = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
        b, lb = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
        fwd = metrics.mean_shift(a, la, b, lb)
        rev = metrics.mean_shift(b, lb, a, la)
        assert fwd == rev

    def test_known_shift_recovered_on_benchmark(self):
        from pacf.synthbench import DomainShiftSpec, generate
        spec = DomainShiftSpec(seed=3, samples_per_class=2000,
                               target_std_multiplier=1.0)
        pair = generate(spec)
        out = metrics.mean_shift(pair.source.features, pair.source.labels,
                                 pair.target_features, pair.target_hidden_labels)
        # per-class distance ~ 1.5 within ~3 sigma sampling error of sqrt(d/n)
        for k, value in out.items():
            assert value == pytest.approx(1.5, abs=3.0 * np.sqrt(32 / 2000))

    def test_class_missing_from_one_domain_omitted(self):
        out = metrics.mean_shift([[0.0, 0.0]], [0], [[1.0, 1.0]], [1])
        assert out == {}


class TestProxyADistance:
    def test_identical_domains_near_one(self):
        rng = np.random.default_rng(54)
        a = rng.normal(size=(200, 8))
        b = rng.normal(size=(200, 8))
        value = metrics.proxy_a_distance(a, b)
        assert value == pytest.approx(1.0, abs=0.15)

    def test_separated_domains_near_two(self):
        rng = np.random.default_rng(55)
        a = rng.normal(size=(100, 5))
        b = rng.normal(size=(100, 5)) + 20.0
        assert metrics.proxy_a_distance(a, b) >= 1.95

    def test_formula_quarter_error(self):
        # eps = 0.25 maps to 1.5; checked on the raw formula
        assert 2.0 * (1.0 - 0.25) == 1.5

    def test_resampled_domain_concentrates_near_one(self):
        rng = np.random.default_rng(56)
        pool = rng.normal(size=(800, 6))
        a = pool[rng.integers(0, 800, size=300)]
        b = pool[rng.integers(0, 800, size=300)]
        assert metrics.proxy_a_distance(a, b) == pytest.approx(1.0, abs=0.15)

    def test_symmetry_up_to_split(self):
        rng = np.random.default_rng(57)
        a = rng.normal(size=(150, 4))
        b = rng.normal(size=(150, 4)) + 0.4
        fwd = metrics.proxy_a_distance(a, b)
        rev = metrics.proxy_a_distance(b, a)
        assert abs(fwd - rev) < 0.15

    def test_deterministic(self):
        rng = np.random.default_rng(58)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(60, 3)) + 1.0
        assert metrics.proxy_a_distance(a, b) == metrics.proxy_a_distance(a, b)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            metrics.proxy_a_distance(np.zeros((10, 2)), np.zeros((50, 2)))

    def test_range(self):
        rng = np.random.default_rng(59)
        for scale in (0.0, 0.5, 3.0):
            a = rng.normal(size=(50, 4))
            b = rng.normal(size=(50, 4)) + scale
            assert 0.0 <= metrics.proxy_a_distance(a, b) <= 2.0


class TestRankCoefficients:
    def test_perfect_agreement(self):
        xs = [0.3, 1.2, -0.5, 2.0]
        assert metrics.spearman_rho(xs, xs) == pytest.approx(1.0, abs=1e-12)
        assert metrics.kendall_tau(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_reversal(self):
        xs = np.array([1.0, 2.0, 3.0, 5.0])
        ys = -xs
        assert metrics.spearman_rho(xs, ys) == pytest.approx(-1.0, abs=1e-12)
        assert metrics.kendall_tau(xs, ys) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_example(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [1.0, 3.0, 2.0, 4.0]
        assert metrics.spearman_rho(xs, ys) == pytest.approx(0.8, abs=1e-12)
        assert metrics.kendall_tau(xs, ys) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_kendall_against_pair_counting_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            xs = rng.integers(0, 6, size=n).astype(float)  # ties likely
            ys = rng.integers(0, 6, size=n).astype(float)
            concordant = discordant = ties_x = ties_y = 0
            for i in range(n):
                for j in range(i + 1, n):
                    dx, dy = xs[i] - xs[j], ys[i] - ys[j]
                    if dx == 0 and dy == 0:
                        ties_x += 1
                        ties_y += 1
                    elif dx == 0:
                        ties_x += 1
                    elif dy == 0:
                        ties_y += 1
                    elif dx * dy > 0:
                        concordant += 1
                    else:
                        discordant += 1
            n0 = n * (n - 1) / 2
            denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
            if denom == 0:
                continue
            expected = (concordant - discordant) / denom
            assert metrics.kendall_tau(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_spearman_ties_average_ranks(self):
        # ranks of xs: [1.5, 1.5, 3]; ys: [1, 2, 3]
        rho = metrics.spearman_rho([5.0, 5.0, 9.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(0.866025403784438, abs=1e-12)

    def test_spearman_heavy_ties_against_loop_ranks(self):
        def loop_ranks(values):
            order = np.argsort(values, kind="stable")
            ranks = np.empty(len(values))
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(62)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            xs = rng.integers(0, int(rng.integers(1, 5)), size=n) * 0.5
            ys = rng.integers(0, 3, size=n).astype(float)
            rx = loop_ranks(xs) - loop_ranks(xs).mean()
            ry = loop_ranks(ys) - loop_ranks(ys).mean()
            denom = float(np.linalg.norm(rx) * np.linalg.norm(ry))
            rho = metrics.spearman_rho(xs, ys)
            if denom == 0.0:
                assert np.isnan(rho)
            else:
                assert rho == float(np.dot(rx, ry) / denom)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(61)
        xs = rng.normal(size=50)
        ys = rng.normal(size=50)
        rho = metrics.spearman_rho(xs, ys)
        tau = metrics.kendall_tau(xs, ys)
        assert metrics.spearman_rho(np.exp(xs), ys) == pytest.approx(rho, abs=1e-12)
        assert metrics.kendall_tau(xs, ys ** 3) == pytest.approx(tau, abs=1e-12)

    def test_nan_input_gives_nan_like_kendall(self):
        for xs, ys in (([1.0, np.nan, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
                       ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, np.nan, 1.0])):
            assert np.isnan(metrics.spearman_rho(xs, ys))
            assert np.isnan(metrics.kendall_tau(xs, ys))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metrics.spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            metrics.kendall_tau([1.0], [2.0])


class TestTpRatio:
    def test_all_correct(self):
        hidden = np.array([0, 1, 2, 0, 1])
        out = metrics.tp_ratio([0, 1, 2], [0, 1, 2], hidden)
        assert out == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_absent_class_missing_from_map(self):
        out = metrics.tp_ratio([0, 0], [0, 1], np.array([0, 0, 2]))
        assert 2 not in out

    def test_two_of_three_correct(self):
        hidden = np.array([1, 1, 0])
        out = metrics.tp_ratio([1, 1, 1], [0, 1, 2], hidden)
        assert out[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_exact_rational_counts(self):
        hidden = np.array([0, 0, 0, 1, 1, 1, 1])
        out = metrics.tp_ratio([0, 0, 0, 0, 1, 1], [0, 1, 3, 4, 5, 6], hidden)
        assert out[0] == 2.0 / 4.0
        assert out[1] == 2.0 / 2.0

    def test_class_average(self):
        assert metrics.class_average({0: 1.0, 1: 0.5}) == pytest.approx(0.75)
        assert np.isnan(metrics.class_average({}))


class TestPcaProject2d:
    def test_axis_aligned_data_recovered(self):
        rng = np.random.default_rng(62)
        x = np.zeros((100, 2))
        x[:, 0] = rng.normal(scale=5.0, size=100)
        x[:, 1] = rng.normal(scale=0.5, size=100)
        centered = x - x.mean(axis=0)
        # orthogonalize the columns so the sample covariance is exactly diagonal
        centered[:, 1] -= centered[:, 0] * (centered[:, 0] @ centered[:, 1]) \
            / (centered[:, 0] @ centered[:, 0])
        projected = metrics.pca_project_2d(centered)
        np.testing.assert_allclose(np.abs(projected), np.abs(centered), atol=1e-9)

    def test_rank_one_data_second_coordinate_zero(self):
        t = np.linspace(-2.0, 2.0, 50)
        x = np.outer(t, [1.0, 2.0, -1.0])
        projected = metrics.pca_project_2d(x)
        assert np.all(np.abs(projected[:, 1]) < 1e-9)

    def test_projected_variance_equals_top_eigenvalues(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
        projected = metrics.pca_project_2d(x)
        centered = x - x.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))
        top_two = np.sort(eigvals)[::-1][:2]
        observed = projected.var(axis=0, ddof=1)
        np.testing.assert_allclose(observed, top_two, rtol=1e-9)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(50, 4))
        a = metrics.pca_project_2d(x)
        b = metrics.pca_project_2d(x.copy())
        assert np.array_equal(a, b)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            metrics.pca_project_2d(np.zeros((2, 4)))
        with pytest.raises(InsufficientSamples):
            metrics.pca_project_2d(np.zeros((10, 1)))


class TestReportSerialization:
    def test_json_round_trip(self):
        report = metrics.MetricsReport(
            source_variance={0: 1.5, 1: 2.0},
            target_variance={0: 3.0, 1: 1.0},
            mean_shift={0: 0.4, 1: 0.6},
            proxy_a_distance=1.2,
            spearman=0.8,
            kendall=0.6,
            tp_ratio={0: 0.9},
            pseudo_count=42,
        )
        doc = report.to_json_dict()
        assert doc["source_variance"]["avg"] == pytest.approx(1.75)
        loaded = metrics.MetricsReport.from_json_dict(doc)
        assert loaded == report

    def test_non_finite_becomes_null(self):
        report = metrics.MetricsReport()
        doc = report.to_json_dict()
        assert doc["proxy_a_distance"] is None
        loaded = metrics.MetricsReport.from_json_dict(doc)
        assert np.isnan(loaded.proxy_a_distance)
