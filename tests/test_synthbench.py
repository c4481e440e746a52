import numpy as np
import pytest

from pacf.errors import EmptyBatch, InvalidSpec, IoError, ParseError
from pacf import synthbench
from pacf.synthbench import (DomainShiftSpec, LabeledBatch, generate, load_dump,
                             save_dump)


def small_spec(**overrides):
    kwargs = dict(class_count=3, dim=4, samples_per_class=400, source_std=1.0,
                  target_mean_shift=1.5, target_std_multiplier=1.8,
                  mean_scale=1.0, seed=5)
    kwargs.update(overrides)
    return DomainShiftSpec(**kwargs)


class TestGenerate:
    def test_shapes_and_labels(self):
        pair = generate(small_spec())
        assert pair.source.features.shape == (1200, 4)
        assert pair.target_features.shape == (1200, 4)
        assert set(pair.source.labels.tolist()) == {0, 1, 2}
        assert np.all(pair.source.scores == -1.0)
        assert len(pair.target_hidden_labels) == 1200

    def test_no_shift_degenerate_case(self):
        spec = small_spec(target_mean_shift=0.0, target_std_multiplier=1.0,
                          samples_per_class=2000)
        pair = generate(spec)
        for k in range(3):
            src = pair.source.features[pair.source.labels == k]
            tgt = pair.target_features[pair.target_hidden_labels == k]
            # same distribution: means and variances agree within sampling noise
            np.testing.assert_allclose(src.mean(axis=0), tgt.mean(axis=0),
                                       atol=4.0 / np.sqrt(2000))
            np.testing.assert_allclose(src.var(axis=0), tgt.var(axis=0), atol=0.25)

    def test_explicit_shift_recovered(self):
        shift = np.zeros((2, 6))
        shift[:, 0] = 2.5
        spec = small_spec(class_count=2, dim=6, samples_per_class=2000,
                          target_mean_shift=shift, target_std_multiplier=1.0)
        pair = generate(spec)
        for k in range(2):
            src_mean = pair.source.features[pair.source.labels == k].mean(axis=0)
            tgt_mean = pair.target_features[pair.target_hidden_labels == k].mean(axis=0)
            observed = tgt_mean - src_mean
            np.testing.assert_allclose(observed, shift[k], atol=3.0 / np.sqrt(2000) * 2)

    def test_scalar_shift_magnitude(self):
        spec = small_spec(samples_per_class=4000, target_std_multiplier=1.0)
        pair = generate(spec)
        for k in range(3):
            src_mean = pair.source.features[pair.source.labels == k].mean(axis=0)
            tgt_mean = pair.target_features[pair.target_hidden_labels == k].mean(axis=0)
            magnitude = np.linalg.norm(tgt_mean - src_mean)
            assert magnitude == pytest.approx(1.5, abs=0.15)

    def test_variance_multiplier(self):
        spec = small_spec(samples_per_class=2000)
        pair = generate(spec)
        for k in range(3):
            src = pair.source.features[pair.source.labels == k]
            tgt = pair.target_features[pair.target_hidden_labels == k]
            ratio = tgt.var(axis=0, ddof=1).sum() / src.var(axis=0, ddof=1).sum()
            assert ratio == pytest.approx(1.8 ** 2, rel=0.10)

    def test_deterministic_per_seed(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert np.array_equal(a.source.features, b.source.features)
        assert np.array_equal(a.target_features, b.target_features)
        assert np.array_equal(a.target_hidden_labels, b.target_hidden_labels)
        c = generate(small_spec(seed=6))
        assert not np.array_equal(a.source.features, c.source.features)

    def test_explicit_means_respected(self):
        means = np.arange(8.0).reshape(2, 4)
        spec = small_spec(class_count=2, samples_per_class=3000, source_means=means,
                          target_mean_shift=0.0, target_std_multiplier=1.0)
        pair = generate(spec)
        for k in range(2):
            observed = pair.source.features[pair.source.labels == k].mean(axis=0)
            np.testing.assert_allclose(observed, means[k], atol=0.1)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            small_spec(class_count=0)
        with pytest.raises(InvalidSpec):
            small_spec(dim=1)
        with pytest.raises(InvalidSpec):
            small_spec(source_std=0.0)
        with pytest.raises(InvalidSpec):
            small_spec(target_std_multiplier=0.5)
        with pytest.raises(InvalidSpec):
            small_spec(source_means=np.zeros((2, 2)))

    def test_training_view_hides_labels(self):
        pair = generate(small_spec())
        source, target = pair.training_view()
        assert isinstance(source, LabeledBatch)
        assert target.shape == pair.target_features.shape


class TestDumpRoundTrip:
    def test_lossless_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        batch = LabeledBatch(rng.normal(size=(25, 7)) * 10 ** rng.uniform(-6, 6),
                             rng.integers(-1, 5, size=25),
                             rng.uniform(0.0, 1.0, size=25))
        path = tmp_path / "dump.csv"
        save_dump(batch, path)
        loaded = load_dump(path)
        assert np.array_equal(loaded.features, batch.features)
        assert np.array_equal(loaded.labels, batch.labels)
        assert np.array_equal(loaded.scores, batch.scores)

    def test_header_format(self, tmp_path):
        batch = LabeledBatch([[1.0, 2.0]], [0], [0.5])
        path = tmp_path / "dump.csv"
        save_dump(batch, path)
        assert path.read_text().splitlines()[0] == "label,score,f0,f1"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,score,f0,f1\n0,0.5,1.0,2.0\n1,0.5,3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dump(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,score,f0\n0,0.5,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dump(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lbl,score,f0\n0,0.5,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dump(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyBatch):
            load_dump(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("label,score,f0\n")
        with pytest.raises(EmptyBatch):
            load_dump(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_dump(tmp_path / "nope.csv")

    def test_unwritable_path(self, tmp_path):
        batch = LabeledBatch([[1.0, 2.0]], [0], [0.5])
        with pytest.raises(IoError):
            save_dump(batch, tmp_path / "missing_dir" / "dump.csv")


class TestWriteText:
    def test_cut_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.json"
        synthbench.write_text(path, "old\n")
        real_open = open

        class HalfWrite:
            """A file that takes half of the text, then fails."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(synthbench, "open", HalfWrite, raising=False)
        with pytest.raises(IoError):
            synthbench.write_text(path, "new contents\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
