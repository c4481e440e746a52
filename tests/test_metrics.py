import math
import struct
import time

import numpy as np
import pytest

from pacf import metrics
from pacf.errors import DimensionMismatch, InsufficientSamples, ParseError


def oracle_kendall_tau(xs, ys) -> float:
    """The n x n sign-matrix Kendall tau-b that ``metrics.kendall_tau`` replaced.

    ``inf - inf`` is nan, so an infinity warns on the diagonal and a repeated
    infinity makes its pairs nan: call it under ``np.errstate(invalid="ignore")``
    with each infinity at most once per argument.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    d = np.subtract.outer(xs, xs)
    np.sign(d, out=d)
    e = np.subtract.outer(ys, ys)
    d *= np.sign(e, out=e)
    np.fill_diagonal(d, 0.0)
    s = float(d.sum()) / 2.0  # the matrix is symmetric: each pair counted twice
    n0 = n * (n - 1) / 2.0

    def tie_term(v):
        _, counts = np.unique(v, return_counts=True)
        return float(np.sum(counts * (counts - 1) / 2.0))

    denom = np.sqrt((n0 - tie_term(xs)) * (n0 - tie_term(ys)))
    if denom == 0.0:
        return float("nan")
    return float(s / denom)


def oracle_proxy_a_distance(source_embeddings, target_embeddings) -> float:
    """The pooled ``vstack``/``hstack`` probe that ``metrics.proxy_a_distance`` replaced."""
    xs = np.asarray(source_embeddings, dtype=np.float64)
    xt = np.asarray(target_embeddings, dtype=np.float64)
    x = np.vstack([xs, xt])
    y = np.concatenate([np.zeros(len(xs)), np.ones(len(xt))])
    rng = np.random.Generator(np.random.PCG64(0))
    perm = rng.permutation(len(x))
    half = len(x) // 2
    train_idx, test_idx = perm[:half], perm[half:]
    mu = x[train_idx].mean(axis=0)
    sd = x[train_idx].std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xn = (x - mu) / sd
    xn = np.hstack([xn, np.ones((len(xn), 1))])
    w = metrics._fit_logistic(xn[train_idx], y[train_idx])
    pred = (xn[test_idx] @ w >= 0.0).astype(np.float64)
    eps = float(np.mean(pred != y[test_idx]))
    return float(np.clip(2.0 * (1.0 - eps), 0.0, 2.0))


def oracle_sigmoid(z):
    """The masked two-branch logistic function of ``test_mathcore.oracle_sigmoid``, kept here
    so that the fit oracles do not move with ``mathcore.sigmoid``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The loop ``metrics._fit_logistic`` ran on the full design before it used a factor."""
    w = np.zeros(x.shape[1])
    n = len(y)
    for _ in range(400):
        grad = x.T @ (oracle_sigmoid(x @ w) - y) / n
        grad[:-1] += 1e-3 * w[:-1]  # bias column is last and unregularized
        w = w - grad
    return w


def factor_fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The factor loop ``metrics._fit_logistic`` ran on a rank-deficient design before its
    steps reused buffers, each step's temporaries allocated afresh."""
    n = len(y)
    basis = metrics._column_basis(x)
    a = np.asfortranarray(x @ basis)
    w = np.zeros(x.shape[1])
    for _ in range(400):
        grad = basis @ (a.T @ (oracle_sigmoid(a @ (basis.T @ w)) - y)) / n
        grad[:-1] += 1e-3 * w[:-1]  # bias column is last and unregularized
        w = w - grad
    return w


def probe_designs(xs, xt):
    """The standardized train design with its domain labels, and the standardized held-out
    design, of the split ``metrics.proxy_a_distance`` makes."""
    x = np.vstack([xs, xt])
    y = np.concatenate([np.zeros(len(xs)), np.ones(len(xt))])
    perm = np.random.Generator(np.random.PCG64(0)).permutation(len(x))
    train_idx, test_idx = perm[:len(x) // 2], perm[len(x) // 2:]
    mu = x[train_idx].mean(axis=0)
    sd = x[train_idx].std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xn = np.hstack([(x - mu) / sd, np.ones((len(x), 1))])
    return xn[train_idx], y[train_idx], xn[test_idx]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("domain", [0, 1])
    def test_non_finite_entry_gives_nan(self, value, domain):
        rng = np.random.default_rng(60)
        pair = [rng.normal(size=(50, 4)), rng.normal(size=(50, 4))]
        pair[domain][7, 2] = value
        assert np.isnan(metrics.proxy_a_distance(*pair))

    @pytest.mark.parametrize("domain", [0, 1])
    def test_column_whose_mean_overflows_gives_nan(self, domain):
        rng = np.random.default_rng(61)
        pair = [rng.normal(size=(50, 4)), rng.normal(size=(50, 4))]
        pair[domain][:, 2] = 1.7e308  # finite, but the train half's column mean is not
        assert np.isnan(metrics.proxy_a_distance(*pair))

    @pytest.mark.parametrize("cells, expected", [
        ((1.7e308,), 1.52),             # an infinite score: its sign classifies the row
        ((-1.7e308,), 1.48),
        ((1.7e308, -1.7e308), math.nan),  # inf - inf: the score is undefined
    ])
    def test_held_out_row_past_the_train_spread(self, cells, expected):
        rng = np.random.default_rng(62)
        xs, xt = rng.normal(size=(50, 4)) * 0.5, rng.normal(size=(50, 4)) * 0.5 + 0.5
        held_out = np.random.Generator(np.random.PCG64(0)).permutation(100)[50:]
        row = held_out[held_out >= 50][0] - 50  # a target row of the held-out half
        xt[row, :len(cells)] = cells  # standardized by a spread below 1, it overflows
        assert metrics.proxy_a_distance(xs, xt) == pytest.approx(expected, nan_ok=True)


class TestProxyADistanceAgainstOracle:
    @staticmethod
    def domains(seed, ns, nt, d, shift=0.5):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(ns, d)), rng.normal(size=(nt, d)) * 1.5 + shift

    @staticmethod
    def affine(seed, ns, nt, rank, d):
        """Embeddings of an affine map from ``rank`` inputs, as pacf's extractor makes them:
        the standardized columns span only ``rank`` + 1 dimensions."""
        rng = np.random.default_rng(seed)
        w, b = rng.normal(size=(rank, d)), rng.normal(size=d)
        return (rng.normal(size=(ns, rank)) @ w + b,
                (rng.normal(size=(nt, rank)) * 1.8 + 1.0) @ w + b)

    @pytest.mark.parametrize("ns, nt, d", [
        (37, 90, 6),    # unequal domain sizes
        (90, 37, 6),
        (20, 21, 5),    # odd total
        (20, 20, 3),    # the 20-row minimum
        (64, 51, 1),    # one dim
        (300, 280, 48),
    ])
    def test_bitwise_equal_on_gaussians(self, ns, nt, d):
        xs, xt = self.domains(ns * 1000 + nt, ns, nt, d)
        assert bits(metrics.proxy_a_distance(xs, xt)) == bits(oracle_proxy_a_distance(xs, xt))

    def test_bitwise_equal_with_constant_columns(self):
        xs, xt = self.domains(71, 45, 38, 5)
        xs[:, 1] = xt[:, 1] = 2.5   # sd == 0 on the train half: divided by 1
        xs[:, 3] = xt[:, 3] = 0.0
        assert bits(metrics.proxy_a_distance(xs, xt)) == bits(oracle_proxy_a_distance(xs, xt))

    @pytest.mark.parametrize("ns, nt, rank, d", [(200, 200, 4, 32), (150, 173, 1, 9),
                                                 (400, 333, 8, 128)])
    def test_bitwise_equal_on_rank_deficient_affine_embeddings(self, ns, nt, rank, d):
        xs, xt = self.affine(rank * 7 + d, ns, nt, rank, d)
        assert bits(metrics.proxy_a_distance(xs, xt)) == bits(oracle_proxy_a_distance(xs, xt))

    def test_peak_memory_about_one_input(self, traced_peak):
        xs, xt = self.domains(72, 2000, 2007, 64)
        # the pooled probe peaked at 3.1x the input bytes, one design matrix per half at 1.1x
        assert traced_peak(metrics.proxy_a_distance, xs, xt) < 1.5 * (xs.nbytes + xt.nbytes)


class TestFitLogisticAgainstOracle:
    domains = staticmethod(TestProxyADistanceAgainstOracle.domains)
    affine = staticmethod(TestProxyADistanceAgainstOracle.affine)

    @pytest.mark.parametrize("ns, nt, d", [(37, 90, 6), (20, 21, 5), (20, 20, 3), (64, 51, 1),
                                           (300, 280, 48)])
    def test_bitwise_equal_on_full_rank_designs(self, ns, nt, d):
        x, y, _ = probe_designs(*self.domains(ns * 1000 + nt, ns, nt, d))
        assert metrics._column_basis(x) is None
        assert metrics._fit_logistic(x, y).tobytes() == oracle_fit_logistic(x, y).tobytes()

    @pytest.mark.parametrize("ns, nt, rank, d", [(200, 200, 4, 32), (150, 173, 1, 9),
                                                 (400, 333, 8, 128),
                                                 (800, 800, 32, 128)])  # pacf's 32 -> 128
    def test_close_on_rank_deficient_affine_designs(self, ns, nt, rank, d):
        x, y, test = probe_designs(*self.affine(rank * 7 + d, ns, nt, rank, d))
        assert metrics._column_basis(x).shape == (d + 1, rank + 1)
        w = metrics._fit_logistic(x, y)
        expected = oracle_fit_logistic(x, y)
        assert np.linalg.norm(w - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(test @ w >= 0.0, test @ expected >= 0.0)

    @pytest.mark.parametrize("ns, nt, rank, d", [(200, 200, 4, 32), (150, 173, 1, 9),
                                                 (400, 333, 8, 128),
                                                 (800, 800, 32, 128)])  # pacf's 32 -> 128
    def test_bitwise_equal_to_the_factor_loop_on_rank_deficient_affine_designs(self, ns, nt,
                                                                                rank, d):
        x, y, _ = probe_designs(*self.affine(rank * 7 + d, ns, nt, rank, d))
        assert metrics._fit_logistic(x, y).tobytes() == factor_fit_logistic(x, y).tobytes()

    def test_design_overflowed_by_standardizing_runs_the_full_loop(self):
        xs, xt = self.affine(61, 40, 40, 2, 6)
        xs[:, 1] = 1.7e308  # finite, but the column mean overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            x, y, _ = probe_designs(xs, xt)
            assert not np.isfinite(x).all()
            assert metrics._column_basis(x) is None  # eigh would fail to converge
            assert metrics._fit_logistic(x, y).tobytes() == oracle_fit_logistic(x, y).tobytes()

    def test_peak_memory_about_one_input(self, traced_peak):
        xs, xt = self.affine(73, 2000, 2007, 8, 64)
        assert traced_peak(metrics.proxy_a_distance, xs, xt) < 1.5 * (xs.nbytes + xt.nbytes)


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


class TestKendallAgainstOracle:
    @staticmethod
    def tied_case(rng, n):
        xs = rng.integers(0, int(rng.integers(1, 8)), size=n) * 0.5 - 1.0
        ys = rng.integers(0, int(rng.integers(1, 8)), size=n) * 0.25 - 0.5
        if rng.random() < 0.3:
            xs = xs + rng.normal(size=n)  # x mostly untied
        for v in (xs, ys):
            if rng.random() < 0.3:
                v[v == 0.0] = -0.0
            if rng.random() < 0.3:
                v[rng.choice(n, size=2, replace=False)] = [np.inf, -np.inf]
        return xs, ys

    def test_bitwise_equal_on_random_tied_cases(self):
        rng = np.random.default_rng(63)
        compared = 0
        for _ in range(400):
            xs, ys = self.tied_case(rng, int(rng.integers(2, 61)))
            with np.errstate(invalid="ignore"):
                expected = oracle_kendall_tau(xs, ys)
            assert bits(metrics.kendall_tau(xs, ys)) == bits(expected), (xs, ys)
            compared += not np.isnan(expected)
        assert compared > 300  # most cases have a defined tau

    def test_bitwise_equal_at_evaluation_size(self):
        n = 1600  # the adapt workloads' target rows; the oracle holds two n x n arrays
        rng = np.random.default_rng(n)
        xs = np.round(rng.normal(size=n), 1)
        ys = xs + rng.normal(size=n)
        assert bits(metrics.kendall_tau(xs, ys)) == bits(oracle_kendall_tau(xs, ys))

    def test_infinities_in_both_arguments_do_not_warn(self):
        # RuntimeWarnings are errors in this suite, so a warning fails here
        xs = np.array([np.inf, 0.5, -np.inf, 2.0, 0.5, -0.0, 1.0])
        ys = np.array([1.0, -np.inf, 0.0, np.inf, 3.0, 0.0, 1.0])
        with np.errstate(invalid="ignore"):
            expected = oracle_kendall_tau(xs, ys)
        assert bits(metrics.kendall_tau(xs, ys)) == bits(expected)
        assert bits(metrics.kendall_tau(ys, xs)) == bits(expected)

    def test_repeated_infinity_is_a_tie(self):
        ys = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
        tau = metrics.kendall_tau([np.inf, np.inf, 1.0, 2.0, -np.inf], ys)
        assert tau == metrics.kendall_tau([9.0, 9.0, 1.0, 2.0, -9.0], ys)
        assert np.isfinite(tau)

    def test_fifty_thousand_rows_against_contingency_table(self):
        rng = np.random.default_rng(64)
        n = 50_000
        x = rng.integers(0, 10, size=n)
        y = np.clip(x * 7 // 10 + rng.integers(-2, 3, size=n), 0, 6)
        table = np.zeros((10, 7), dtype=np.int64)
        np.add.at(table, (x, y), 1)
        concordant = discordant = 0
        for a in range(10):
            for b in range(7):
                concordant += int(table[a, b]) * int(table[a + 1:, b + 1:].sum())
                discordant += int(table[a, b]) * int(table[a + 1:, :b].sum())

        def tied(counts):
            return int(np.sum(counts * (counts - 1) // 2))

        n0 = n * (n - 1) / 2.0
        expected = (concordant - discordant) / np.sqrt(
            (n0 - tied(table.sum(axis=1))) * (n0 - tied(table.sum(axis=0))))
        start = time.perf_counter()
        tau = metrics.kendall_tau(x.astype(float), y.astype(float))
        assert time.perf_counter() - start < 1.0
        assert tau == float(expected)


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

    def test_class_average_of_finite_entries_is_finite(self):
        # the sum of these entries overflows; their mean does not
        assert metrics.class_average({0: 1e308, 1: 1e308}) == 1e308
        assert metrics.class_average({0: 1e308, 1: 1e308, 2: -1e308}) == pytest.approx(1e308 / 3)
        assert np.isnan(metrics.class_average({0: np.inf, 1: -np.inf}))
        assert metrics.class_average({0: np.inf, 1: 1.0}) == np.inf

    def test_class_average_is_numpy_s_mean_where_that_is_finite(self):
        rng = np.random.default_rng(5)
        for size in range(1, 12):
            values = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=size)
            assert metrics.class_average(dict(enumerate(values))) == float(np.mean(values))


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

    @pytest.mark.parametrize("key, value", [
        ("pseudo_count", math.inf), ("pseudo_count", 2.5), ("pseudo_count", "3"),
        ("proxy_a_distance", "0.5"), ("kendall_tau", True), ("tp_ratio", {"0": "0.9"}),
    ])
    def test_value_of_the_wrong_kind_is_malformed(self, key, value):
        doc = metrics.MetricsReport(pseudo_count=3).to_json_dict()
        doc[key] = value
        with pytest.raises(ParseError, match=repr(key)):
            metrics.MetricsReport.from_json_dict(doc)

    def test_integer_past_float64_reads_as_infinity(self):
        doc = metrics.MetricsReport(tp_ratio={0: 0.5}).to_json_dict()
        doc["spearman_rho"] = 2 ** 1100
        doc["tp_ratio"]["0"] = -2 ** 1100
        report = metrics.MetricsReport.from_json_dict(doc)
        assert (report.spearman, report.tp_ratio) == (math.inf, {0: -math.inf})

    def test_non_finite_becomes_null(self):
        report = metrics.MetricsReport()
        doc = report.to_json_dict()
        assert doc["proxy_a_distance"] is None
        loaded = metrics.MetricsReport.from_json_dict(doc)
        assert np.isnan(loaded.proxy_a_distance)
