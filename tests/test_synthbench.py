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



class TestSpecRanges:
    """Each ranged field's boundary values, the non-finite numbers and the error type."""

    @pytest.mark.parametrize("name, value, accepted", [
        ("class_count", 1, True), ("class_count", 0, False),
        ("dim", 2, True), ("dim", 1, False),
        ("samples_per_class", 1, True), ("samples_per_class", 0, False),
        ("seed", 0, True), ("seed", -1, False),
        ("source_std", 5e-324, True), ("source_std", 0.0, False),
        ("target_std_multiplier", 1.0, True), ("target_std_multiplier", 1.0 - 2 ** -53, False),
        ("mean_scale", 0.0, True), ("mean_scale", -5e-324, False),
        ("target_mean_shift", 0.0, True), ("target_mean_shift", -5e-324, False),
        # the counts' upper ends; a spec only checks its fields, so nothing is allocated
        ("class_count", 10 ** 5, True), ("class_count", 10 ** 5 + 1, False),
        ("dim", 10 ** 5, True), ("dim", 10 ** 5 + 1, False),
        ("samples_per_class", 10 ** 7, True), ("samples_per_class", 10 ** 7 + 1, False),
        ("samples_per_class", 10 ** 20, False),
    ])
    def test_boundary(self, name, value, accepted):
        if accepted:
            assert getattr(small_spec(**{name: value}), name) == value
        else:
            with pytest.raises(InvalidSpec, match=name) as excinfo:
                small_spec(**{name: value})
            assert excinfo.type is InvalidSpec

    @pytest.mark.parametrize("name", ["source_std", "target_std_multiplier", "mean_scale",
                                      "target_mean_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(InvalidSpec, match=name) as excinfo:
            small_spec(**{name: value})
        assert excinfo.type is InvalidSpec

    @pytest.mark.parametrize("name", ["source_means", "target_mean_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_array_entry_rejected(self, name, value):
        array = np.zeros((3, 4))
        array[2, 1] = value
        with pytest.raises(InvalidSpec, match=name) as excinfo:
            small_spec(**{name: array.tolist()})
        assert excinfo.type is InvalidSpec

    def test_array_entries_stored_as_float64(self):
        shift = [[-1, 0, 2, 0]] * 3
        spec = small_spec(target_mean_shift=shift, source_means=np.ones((3, 4), dtype=int))
        for name in ("target_mean_shift", "source_means"):
            assert getattr(spec, name).dtype == np.float64
        np.testing.assert_array_equal(spec.target_mean_shift, shift)

    @pytest.mark.parametrize("overrides", [
        {"source_std": 1e308}, {"target_std_multiplier": 1e308},
        {"source_std": 1e200, "target_std_multiplier": 1e200},
    ])
    def test_overflowing_spec_rejected_without_warning(self, overrides):
        with pytest.raises(InvalidSpec, match="overflow"):
            generate(small_spec(**overrides))

    @pytest.mark.parametrize("name", ["class_count", "dim", "samples_per_class", "seed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_count_is_wrong_kind(self, name, value):
        with pytest.raises(TypeError, match=name):
            small_spec(**{name: value})


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

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,score,f0\n0,0.5,1.\xe9\n")
        assert synthbench._load_well_formed_dump(path) is None
        with pytest.raises(ParseError, match="bad.csv.*UTF-8"):
            load_dump(path)

    def test_label_outside_int64_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,score,f0\n0,0.5,1.0\n99999999999999999999,0.5,2.0\n")
        with pytest.raises(ParseError, match="bad.csv line 3: .*int64"):
            load_dump(path)

    def test_lines_break_only_at_newlines(self, tmp_path):
        # a vertical tab is whitespace inside a cell, not a line break: "oops" is on
        # line 4 as awk counts lines
        path = tmp_path / "bad.csv"
        path.write_text("label,score,f0\n0,0.5,1.0\v\n1,0.5,2.0\n2,0.5,oops\n")
        with pytest.raises(ParseError, match="line 4:"):
            load_dump(path)

    def test_crlf_and_cr_are_one_line_break(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,score,f0\r\n0,0.5,1.0\r1,0.5,2.0\r\n2,0.5,oops\r\n")
        with pytest.raises(ParseError, match="line 4:"):
            load_dump(path)

    def test_well_formed_dump_skips_the_cell_parser(self, tmp_path, monkeypatch):
        batch = LabeledBatch([[1.0, -0.0], [5e-324, 2.5]], [3, -1], [0.5, -1.0])
        path = tmp_path / "dump.csv"
        save_dump(batch, path)

        def no_read_csv(*args):
            raise AssertionError("a well-formed dump went through read_csv")

        monkeypatch.setattr(synthbench, "read_csv", no_read_csv)
        assert_same_load(load_dump(path), batch)


def oracle_load_dump(path) -> LabeledBatch:
    """The loader that parses every cell through ``read_csv``: the reference for ``load_dump``."""
    linenos, rows = synthbench.read_csv(path, synthbench._dump_header_ok,
                                        synthbench._parse_dump_row)
    labels, scores, features = zip(*rows)
    features = np.asarray(features)
    scores = np.asarray(scores)
    finite = np.isfinite(features).all(axis=1) & np.isfinite(scores)
    if not finite.all():
        raise ParseError(f"{path} line {linenos[int(np.argmin(finite))]}: non-finite value")
    return LabeledBatch(features, np.asarray(labels), scores)


def load_outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the outcome compared is the exception's type and message
        return exc


def assert_same_load(got, expected):
    """Bitwise-equal batches, or exceptions of the same type and message."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, LabeledBatch), got
    for name in ("features", "labels", "scores"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags["C_CONTIGUOUS"]
        assert a.tobytes() == b.tobytes(), name


DUMP_HEADER = b"label,score,f0,f1\n"

# (name, file bytes): every shape of input the two readers might treat differently
EDGE_DUMPS = [
    ("well formed", DUMP_HEADER + b"0,0.5,1.0,2.0\n1,-1.0,3.0,4.0\n"),
    ("crlf", b"label,score,f0,f1\r\n0,0.5,1.0,2.0\r\n1,0.5,3.0,4.0\r\n"),
    ("lone cr", b"label,score,f0,f1\r0,0.5,1.0,2.0\r1,0.5,3.0,4.0"),
    ("blank lines", DUMP_HEADER + b"\n0,0.5,1.0,2.0\n\n\n1,0.5,3.0,4.0\n\n"),
    ("whitespace-only line", DUMP_HEADER + b"0,0.5,1.0,2.0\n \n1,0.5,3.0,4.0\n"),
    ("tab-only line", DUMP_HEADER + b"0,0.5,1.0,2.0\n\t\n"),
    ("no final newline", DUMP_HEADER + b"0,0.5,1.0,2.0\n1,0.5,3.0,4.0"),
    ("bom header", b"\xef\xbb\xbf" + DUMP_HEADER + b"0,0.5,1.0,2.0\n"),
    ("comment line", DUMP_HEADER + b"# note\n0,0.5,1.0,2.0\n"),
    ("comment in cell", DUMP_HEADER + b"0,0.5,1.0,2.0#x\n"),
    ("empty cell", DUMP_HEADER + b"0,0.5,,2.0\n"),
    ("empty label", DUMP_HEADER + b",0.5,1.0,2.0\n"),
    ("underscore float", DUMP_HEADER + b"0,0.5,1_0,2.0\n"),
    ("underscore label", DUMP_HEADER + b"1_0,0.5,1.0,2.0\n"),
    ("arabic-indic digit", DUMP_HEADER + "0,0.5,\u0663,2.0\n".encode()),
    ("fullwidth label", DUMP_HEADER + "\uff13,0.5,1.0,2.0\n".encode()),
    ("nan", DUMP_HEADER + b"0,0.5,nan,2.0\n"),
    ("NaN score", DUMP_HEADER + b"0,NaN,1.0,2.0\n"),
    ("inf", DUMP_HEADER + b"0,0.5,1.0,inf\n"),
    ("-Infinity", DUMP_HEADER + b"0,0.5,-Infinity,2.0\n"),
    ("+infinity", DUMP_HEADER + b"0,0.5,1.0,+infinity\n"),
    ("nan on a later line", DUMP_HEADER + b"0,0.5,1.0,2.0\n\n1,0.5,3.0,nan\n"),
    ("1e400", DUMP_HEADER + b"0,0.5,1e400,2.0\n"),
    ("denormal", DUMP_HEADER + b"0,0.5,4.9e-324,-2.5e-320\n"),
    ("negative zero", DUMP_HEADER + b"0,-0.0,-0.0,0.0\n"),
    ("long mantissa", DUMP_HEADER
     + b"0,0.5,0.1000000000000000055511151231257827021181583404541015625,2.0\n"),
    ("label 3.0", DUMP_HEADER + b"3.0,0.5,1.0,2.0\n"),
    ("label space 3", DUMP_HEADER + b" 3,0.5,1.0,2.0\n"),
    ("label +3", DUMP_HEADER + b"+3,0.5,1.0,2.0\n"),
    ("label 1e2", DUMP_HEADER + b"1e2,0.5,1.0,2.0\n"),
    ("label beyond int64", DUMP_HEADER + b"9223372036854775808,0.5,1.0,2.0\n"),
    ("label int64 min", DUMP_HEADER + b"-9223372036854775808,0.5,1.0,2.0\n"),
    ("label int64 max", DUMP_HEADER + b"9223372036854775807,0.5,1.0,2.0\n"),
    ("spaces around cells", DUMP_HEADER + b" 0 , 0.5 ,1.0\t, 2.0 \n"),
    ("short row", DUMP_HEADER + b"0,0.5,1.0,2.0\n1,0.5,3.0\n"),
    ("long row", DUMP_HEADER + b"0,0.5,1.0,2.0,5.0\n"),
    ("trailing comma", DUMP_HEADER + b"0,0.5,1.0,2.0,\n"),
    ("header only", DUMP_HEADER),
    ("header only, no newline", DUMP_HEADER.rstrip(b"\n")),
    ("empty file", b""),
    ("newline only", b"\n"),
    ("bad header", b"label,score,f0,f2\n0,0.5,1.0,2.0\n"),
    ("header with cr cell", b"label,score,f0,f1\r\r\n0,0.5,1.0,2.0\n"),
    ("header with trailing space", b"label,score,f0,f1 \n0,0.5,1.0,2.0\n"),
    ("header ending at a lone cr", b"label,score,f0,f1\r0,0.5,1.0,2.0\n1,0.5,3.0,4.0\n"),
    ("quoted cell", DUMP_HEADER + b'0,"0.5",1.0,2.0\n'),
    ("hex float", DUMP_HEADER + b"0,0.5,0x1p3,2.0\n"),
    ("vertical tab in cell", DUMP_HEADER + b"0,0.5,1.0\x0b,2.0\n1,0.5,x,2.0\n"),
    ("form feed line", DUMP_HEADER + b"0,0.5,1.0,2.0\n\x0c\n"),
    ("file separator", DUMP_HEADER + b"0,0.5,1.0\x1c,2.0\n"),
    ("next line", DUMP_HEADER + "0,0.5,1.0\x85,2.0\n".encode()),
    ("line separator", DUMP_HEADER + "0,0.5,1.0\u2028,2.0\n".encode()),
    ("paragraph separator line", DUMP_HEADER + "0,0.5,1.0,2.0\n\u2029\n".encode()),
    ("nul byte", DUMP_HEADER + b"0,0.5,1.0\x00,2.0\n"),
    ("latin-1 byte", DUMP_HEADER + b"0,0.5,1.0,2.\xe9\n"),
    ("truncated utf-8", DUMP_HEADER + b"0,0.5,1.0,2.0\xc3"),
]


class TestLoadDumpMatchesOracle:
    """``load_dump`` equals the cell-by-cell loader bitwise, or fails the same way."""

    @pytest.mark.parametrize("name, data", EDGE_DUMPS, ids=[n for n, _ in EDGE_DUMPS])
    def test_edge_table(self, tmp_path, name, data):
        path = tmp_path / "dump.csv"
        path.write_bytes(data)
        expected = load_outcome(oracle_load_dump, path)
        assert_same_load(load_outcome(load_dump, path), expected)
        fast = synthbench._load_well_formed_dump(path)  # declines rather than raising
        if fast is not None:
            assert_same_load(fast, expected)

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(41)
        path = tmp_path / "dump.csv"
        for _ in range(60):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            features = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-320, 300, size=(n, dim))
            features[rng.random((n, dim)) < 0.05] = -0.0
            labels = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=n,
                                  endpoint=True)
            labels[rng.random(n) < 0.5] = rng.integers(-1, 10)
            batch = LabeledBatch(features, labels, rng.uniform(-1.0, 1.0, size=n))
            save_dump(batch, path)
            loaded = load_dump(path)
            assert_same_load(loaded, oracle_load_dump(path))
            assert_same_load(loaded, batch)

    def test_random_corruptions(self, tmp_path):
        rng = np.random.default_rng(42)
        path = tmp_path / "dump.csv"
        save_dump(LabeledBatch(rng.normal(size=(4, 3)), [0, 1, -1, 2], [0.5, -1.0, 0.25, 1.0]),
                  path)
        clean = path.read_text()
        pieces = [",", "\n", "\r", "\r\n", " ", "\t", "\v", "\x85", "\u2028", "#", '"', "_",
                  "-", "+", ".", "e", "e999", "0", "9", "\u0663", "nan", "inf", "\ufeff", ""]
        for _ in range(300):
            text = clean
            for _ in range(int(rng.integers(1, 4))):
                at, cut = int(rng.integers(0, len(text) + 1)), int(rng.integers(0, 3))
                text = text[:at] + pieces[int(rng.integers(len(pieces)))] + text[at + cut:]
            path.write_bytes(text.encode("utf-8"))
            assert_same_load(load_outcome(load_dump, path), load_outcome(oracle_load_dump, path))


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

    def test_chunks_failing_partway_leave_previous_file_intact(self, tmp_path):
        path = tmp_path / "projection.csv"
        synthbench.write_text(path, "old\n")
        temporary = tmp_path / "projection.csv.tmp"

        def chunks():
            yield "x,y,label\n"
            yield "0.5,-1.25,3\n" * 10_000  # more than one buffer: bytes reach the file
            assert temporary.stat().st_size > 0
            raise ValueError("cannot format a cell")

        with pytest.raises(ValueError, match="cannot format a cell"):
            synthbench.write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["projection.csv"]


def oracle_write_csv(path, header, columns) -> None:
    """The one-string ``write_csv`` that the block-streaming one replaced."""
    cells = [synthbench.format_column(column) for column in columns]
    synthbench.write_text(path, "\n".join([",".join(header), *map(",".join, zip(*cells))])
                          + "\n")


class TestWriteCsvMatchesOracle:
    BLOCK = synthbench.CSV_BLOCK_ROWS

    @staticmethod
    def columns(n):
        """Columns of every kind pacf writes: ints, floats with non-finite cells, a class
        column ending in ``avg.``, and a list of ints that one float makes a float column."""
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        floats[rng.random(n) < 0.05] = np.nan
        floats[rng.random(n) < 0.02] = np.inf
        floats[rng.random(n) < 0.02] = -np.inf
        mixed = list(range(n))
        if n:
            mixed[-1] = 0.5
        return [rng.integers(-1, 8, size=n), floats, [*range(n - 1), "avg."][:n], mixed,
                -np.zeros(n)]

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_identical_bytes(self, tmp_path, n):
        header = ["label", "score", "class", "mixed", "zero"]
        columns = self.columns(n)
        synthbench.write_csv(tmp_path / "new.csv", header, columns)
        oracle_write_csv(tmp_path / "old.csv", header, columns)
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.count(b"\n") == n + 1

    def test_non_finite_cells_are_empty_and_avg_is_kept(self, tmp_path):
        path = tmp_path / "table.csv"
        synthbench.write_csv(path, ["class", "value"],
                             [[0, 1, 2, "avg."], [np.nan, np.inf, -np.inf, 0.25]])
        assert path.read_text() == "class,value\n0,\n1,\n2,\navg.,0.25\n"

    def test_save_dump_peak_memory(self, tmp_path, traced_peak):
        batch = generate(small_spec(dim=32, samples_per_class=2200)).source  # 6,600 rows
        input_bytes = batch.features.nbytes + batch.labels.nbytes + batch.scores.nbytes
        # the text of the whole file peaked at 14x the batch, blocks of rows at about 3.5x
        assert traced_peak(save_dump, batch, tmp_path / "dump.csv") < 6 * input_bytes
