import io
import pickle
import time
import warnings
import zipfile

import numpy as np
import pytest

from pacf.errors import DimensionMismatch, EmptyBatch, InvalidSpec, IoError, ParseError
from pacf import synthbench
from pacf.prototypes import PrototypeSet, update_all
from pacf.synthbench import DomainShiftSpec, LabeledBatch, generate, load_dump, save_dump


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
    rows = synthbench.read_csv(path, synthbench._dump_header_ok, synthbench._parse_dump_row)
    labels, scores, features = zip(*rows)
    return LabeledBatch(np.asarray(features), np.asarray(labels), np.asarray(scores))


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


# target_hidden.csv as `pacf gen` writes it: target.csv's features, with the hidden labels in
# place of -1
RELABEL_FEATURES = [[0.5, -1.25], [2.0, 3.0], [0.001, 7.0]]
RELABEL_HIDDEN = b"label,score,f0,f1\n2,-1.0,0.5,-1.25\n0,-1.0,2.0,3.0\n1,-1.0,0.001,7.0\n"


def set_cell(row, column, cell):
    """An edit of data row ``row``'s cell ``column`` to ``cell``."""
    def edit(data):
        lines = data.split(b"\n")
        cells = lines[row].split(b",")
        cells[column] = cell
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    return edit


def replace(old, new):
    return lambda data: data.replace(old, new)


def narrower(data):
    return b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n")[:-1]) + b"\n"


# name -> (edit of the hidden file's bytes, whether the edited file is still read from the
# mirror written for the unedited one)
RELABEL_MUTATIONS = {
    "unchanged": (lambda data: data, True),
    "label 1_0": (set_cell(1, 0, b"1_0"), False),
    "label space 3": (set_cell(1, 0, b" 3"), False),
    "label +3": (set_cell(1, 0, b"+3"), False),
    "label 3.0": (set_cell(1, 0, b"3.0"), False),
    "empty label": (set_cell(2, 0, b""), False),
    "label of 20 nines": (set_cell(3, 0, b"9" * 20), False),
    "score nan": (set_cell(1, 1, b"nan"), False),
    "score inf": (set_cell(2, 1, b"inf"), False),
    "empty score": (set_cell(1, 1, b""), False),
    "score space -1.0": (set_cell(1, 1, b" -1.0"), False),
    "feature 0.5 reformatted as 0.50": (set_cell(1, 2, b"0.50"), False),
    "feature changed in value": (set_cell(2, 3, b"3.5"), False),
    "feature nan": (set_cell(3, 3, b"nan"), False),
    "crlf line ends": (replace(b"\n", b"\r\n"), False),
    "lone cr line ends": (replace(b"\n", b"\r"), False),
    "no final newline": (lambda data: data.removesuffix(b"\n"), False),
    "inserted blank line": (replace(b"\n0,", b"\n\n0,"), False),
    "dropped row": (lambda data: data.rsplit(b"\n", 2)[0] + b"\n", False),
    "added row": (lambda data: data + b"1,-1.0,2.0,3.0\n", False),
    "changed header": (replace(b"f1", b"f2"), False),
    "narrower file": (narrower, False),
    "non-utf-8 byte": (set_cell(2, 0, b"\xff"), False),
    "empty file": (lambda data: b"", False),
    "header-only file": (lambda data: data.split(b"\n")[0] + b"\n", False),
}


class TestHiddenDumpMatchesOracle:
    """A mutated ``target_hidden.csv``, beside the mirror written for the unmutated file as
    ``pacf gen`` writes it, loads through ``load_dump`` as the cell-by-cell loader loads it:
    bitwise, or with the same exception type and message."""

    @staticmethod
    def hidden(tmp_path):
        """target_hidden.csv and its mirror, as ``pacf gen`` writes them."""
        path = tmp_path / "target_hidden.csv"
        save_mirrored(LabeledBatch(RELABEL_FEATURES, [2, 0, 1], [-1.0] * 3), path)
        return path

    def test_hidden_file_is_what_gen_writes(self, tmp_path):
        assert self.hidden(tmp_path).read_bytes() == RELABEL_HIDDEN

    @pytest.mark.parametrize("edit, mirrored", RELABEL_MUTATIONS.values(),
                             ids=RELABEL_MUTATIONS.keys())
    def test_mutation_table(self, tmp_path, edit, mirrored):
        path = self.hidden(tmp_path)
        path.write_bytes(edit(RELABEL_HIDDEN))
        assert_same_load(load_outcome(load_dump, path), load_outcome(oracle_load_dump, path))
        assert (synthbench._load_mirror(path) is not None) == mirrored

    def test_target_mirror_does_not_serve_hidden_file(self, tmp_path):
        # target.csv holds the hidden file's features; its mirror must not lend its -1 labels
        target = tmp_path / "target.csv"
        save_mirrored(LabeledBatch(RELABEL_FEATURES, [-1] * 3, [-1.0] * 3), target)
        path = tmp_path / "target_hidden.csv"
        path.write_bytes(RELABEL_HIDDEN)
        mirror_path(path).write_bytes(mirror_path(target).read_bytes())
        assert synthbench._load_mirror(path) is None
        got = load_dump(path)
        assert got.labels.tolist() == [2, 0, 1]
        assert_same_load(got, oracle_load_dump(path))

    def test_missing_file_fails_as_the_oracle_does(self, tmp_path):
        path = self.hidden(tmp_path)
        path.unlink()
        got = load_outcome(load_dump, path)
        assert isinstance(got, IoError)
        assert_same_load(got, load_outcome(oracle_load_dump, path))


class TestSaveRelabeled:
    """``save_relabeled`` over a ``save_dump``'d target file writes the bytes ``save_dump``
    writes for the batch with the new labels."""

    BLOCK = synthbench.CSV_BLOCK_ROWS

    @staticmethod
    def target(tmp_path, n, dim=3):
        """target.csv of ``n`` rows, a negative zero and a subnormal among its features, and
        the features."""
        features = np.random.default_rng(n).normal(size=(n, dim)) * 1e3
        features[0, 0] = -0.0
        features[-1, -1] = 5e-324
        path = tmp_path / "target.csv"
        save_dump(LabeledBatch(features, np.full(n, -1), np.full(n, -1.0)), path)
        return path, features

    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3000])
    def test_identical_to_save_dump(self, tmp_path, n):
        base_path, features = self.target(tmp_path, n)
        labels = np.arange(n) % 5 - 1  # -1, 0, ..., 3
        labels[n // 2] = np.iinfo(np.int64).max
        path = tmp_path / "target_hidden.csv"
        synthbench.save_relabeled(path, base_path, labels)
        save_dump(LabeledBatch(features, labels, np.full(n, -1.0)), tmp_path / "oracle.csv")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("labels", [2999, 3001])
    def test_row_count_mismatch_writes_nothing(self, tmp_path, labels):
        base_path, _ = self.target(tmp_path, 3000)
        path = tmp_path / "target_hidden.csv"
        synthbench.write_text(path, "old\n")
        with pytest.raises(DimensionMismatch, match="different number of data rows from the"):
            synthbench.save_relabeled(path, base_path, np.zeros(labels))
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv", "target_hidden.csv"]

    def test_line_without_label_cell_writes_nothing(self, tmp_path):
        base_path = tmp_path / "target.csv"
        base_path.write_text(RELABEL_HIDDEN.decode().replace("\n0,", "\n0\n") + "\n")
        with pytest.raises(ParseError, match="target.csv line 3: no label cell"):
            synthbench.save_relabeled(tmp_path / "target_hidden.csv", base_path, [0, 1, 2, 3])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv"]

    def test_missing_base_raises_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            synthbench.save_relabeled(tmp_path / "hidden.csv", tmp_path / "absent.csv", [0])
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory(self, tmp_path, traced_peak):
        batch = generate(small_spec(dim=32, samples_per_class=2200)).source  # 6,600 rows
        base_path = tmp_path / "target.csv"
        save_dump(batch, base_path)
        # one line and one block of label cells at a time: about 0.03x of the file's bytes
        peak = traced_peak(synthbench.save_relabeled, tmp_path / "hidden.csv", base_path,
                           batch.labels)
        assert peak < 0.1 * base_path.stat().st_size


def save_mirrored(batch, path):
    """``save_dump``, then ``save_mirror`` beside it, as ``pacf gen`` writes a dump."""
    save_dump(batch, path)
    synthbench.save_mirror(batch, path, mirror_path(path))


def mirror_path(path):
    return path.with_name(path.name + synthbench.MIRROR_SUFFIX)


def mirror_bytes(arrays, digest, allow_pickle=False) -> bytes:
    """A mirror of ``arrays`` in ``save_mirror``'s layout, with ``digest`` as its stored digest."""
    fh = io.BytesIO()
    fh.write(synthbench._MIRROR_MAGIC + digest + b"\n")
    for array in arrays:
        np.lib.format.write_array(fh, array, version=(1, 0), allow_pickle=allow_pickle)
    return fh.getvalue()


def mirror_batch():
    features = np.random.default_rng(43).normal(size=(6, 3)) * 1e3
    features[0, 0] = -0.0
    return LabeledBatch(features, [0, 1, -1, 2, 9, 3], [0.5, -1.0, 0.25, 1.0, 0.0, 2.5])


def bound(*edit):
    """A mirror of the batch's three arrays, each edited by ``edit``'s function at its place
    (None leaves one as it is), under the digest ``save_mirror`` computes for them: only the
    reader's checks of their shape, dtype and values can turn it away."""
    def mutate(data, path, batch):
        arrays = [array if fn is None else fn(array)
                  for fn, array in zip(edit, (batch.labels, batch.scores, batch.features))]
        return mirror_bytes(arrays, synthbench._mirror_digest(path, arrays))
    return mutate


def stale(*edit, allow_pickle=False):
    """Like :func:`bound`, under the digest of the unedited arrays."""
    def mutate(data, path, batch):
        arrays = (batch.labels, batch.scores, batch.features)
        digest = synthbench._mirror_digest(path, arrays)
        arrays = [array if fn is None else fn(array) for fn, array in zip(edit, arrays)]
        return mirror_bytes(arrays, digest, allow_pickle)
    return mutate


def npy_bytes(array) -> bytes:
    fh = io.BytesIO()
    np.save(fh, array)
    return fh.getvalue()


def flip(find, offset=0):
    """The mirror with the low bit flipped of the byte ``offset`` bytes past the first
    ``find``."""
    def mutate(data, path, batch):
        at = data.index(find) + offset
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    return mutate


def features_shape(shape, padding=0):
    """The mirror with ``shape`` in the header of its features, whose data follows, then
    ``padding`` zero bytes."""
    def mutate(data, path, batch):
        fh = io.BytesIO()
        np.lib.format.write_array(fh, batch.labels, version=(1, 0))
        np.lib.format.write_array(fh, batch.scores, version=(1, 0))
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
        digest = synthbench._mirror_digest(path, (batch.labels, batch.scores, batch.features))
        return (synthbench._MIRROR_MAGIC + digest + b"\n" + fh.getvalue()
                + batch.features.tobytes() + bytes(padding))
    return mutate


def repartitioned(data, path, batch):
    """The bytes of the three arrays cut into 3 labels, 3 scores and 3 rows of 8 features,
    all finite, under the digest of the arrays as written."""
    arrays = (batch.labels, batch.scores, batch.features)
    raw = b"".join(array.tobytes() for array in arrays)
    cut = [np.frombuffer(raw[:24], np.int64), np.frombuffer(raw[24:48], np.float64),
           np.frombuffer(raw[48:], np.float64).reshape(3, 8)]
    assert all(np.isfinite(array).all() for array in cut[1:])
    return mirror_bytes(cut, synthbench._mirror_digest(path, arrays))


def python2_header(data, path, batch):
    """The labels' header with ``6L``, a Python 2 long, as its row count; numpy reads it
    with a warning."""
    old, new = b"'shape': (6,), } ", b"'shape': (6L,), }"
    assert data.count(old) == 2  # the labels' header, then the scores'
    return data.replace(old, new, 1)


UNPICKLED = []


class Tripwire:
    """An object that records its unpickling."""

    def __reduce__(self):
        return UNPICKLED.append, ("unpickled",)


def other_dump(data, path, batch):
    other = path.with_name("other.csv")
    save_mirrored(LabeledBatch(batch.features + 1.0, batch.labels, batch.scores), other)
    return mirror_path(other).read_bytes()


# name -> edit (mirror bytes, dump path, batch) -> mirror bytes; every one must be turned away
MIRROR_MUTATIONS = {
    "empty": lambda data, path, batch: b"",
    "cut inside the magic line": lambda data, path, batch: data[:5],
    "cut inside the digest": lambda data, path, batch: data[:40],
    "cut by one byte": lambda data, path, batch: data[:-1],
    "cut in half": lambda data, path, batch: data[:len(data) // 2],
    "one byte appended": lambda data, path, batch: data + b"\0",
    "bit flip in the magic line": flip(b"mirror"),
    "bit flip in the digest": flip(b"\n", 10),
    "bit flip in a label's dtype": flip(b"<i8", 2),
    "bit flip in a shape": flip(b"'shape': (6", 10),
    "bit flip in a label": flip(b"\x00\x00\x00\x00\x00\x00\x00\x00\x01"),
    "bit flip in the last feature": lambda data, path, batch: data[:-1] + bytes([data[-1] ^ 1]),
    "features flattened": bound(None, None, np.ravel),
    "features of half the rows": bound(None, None, lambda f: f.reshape(3, 6)),
    "labels as a column": bound(lambda labels: labels[:, None], None, None),
    "one score short": bound(None, lambda scores: scores[:-1], None),
    "no rows": bound(lambda labels: labels[:0], lambda scores: scores[:0],
                     lambda features: features[:0]),
    "no columns": bound(None, None, lambda features: features[:, :0]),
    "fortran-order features": stale(None, None, np.asfortranarray),
    "int32 labels": bound(lambda labels: labels.astype(np.int32), None, None),
    "int64 scores": bound(None, lambda scores: scores.astype(np.int64), None),
    "float32 features": bound(None, None, lambda features: features.astype(np.float32)),
    "big-endian features": bound(None, None, lambda features: features.astype(">f8")),
    "object features": stale(None, None, lambda f: f.astype(object), allow_pickle=True),
    "a pickled object": stale(None, None, lambda f: np.array([Tripwire()] * 3),
                              allow_pickle=True),
    "a pickle in place of a stream": lambda data, path, batch: (
        mirror_bytes([batch.labels, batch.scores], b"0" * 64) + pickle.dumps(batch.features)),
    "an .npy file": lambda data, path, batch: npy_bytes(batch.features),
    "the dump itself": lambda data, path, batch: path.read_bytes(),
    "a shape past the file": features_shape((10 ** 12, 3)),
    "a negative shape": features_shape((-1, 3)),
    # each side within the file, 8 TiB in all: numpy would fail to allocate it
    "more elements than the file holds": features_shape((2 ** 20, 2 ** 20), 2 ** 20),
    "a zero-size shape past int64": features_shape((0, 10 ** 30)),
    "the same bytes in other shapes": repartitioned,
    "a Python 2 header": python2_header,
    "version 2.0 streams": lambda data, path, batch: data.replace(b"NUMPY\x01\x00",
                                                                  b"NUMPY\x02\x00"),
    "a nan score": bound(None, lambda scores: np.where(scores > 2, np.nan, scores), None),
    "an infinite feature": bound(None, None, lambda f: np.where(f > 900, np.inf, f)),
    "the mirror of another dump": other_dump,
}


class TestMirror:
    """A dump with its ``save_mirror`` mirror reads from the mirror while the two are bound;
    any other dump reads as if there were no mirror, with no warning."""

    @pytest.mark.filterwarnings("error")
    def test_mirror_read_equals_csv_read(self, tmp_path):
        rng = np.random.default_rng(44)
        path = tmp_path / "dump.csv"
        for _ in range(30):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            features = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-320, 300, size=(n, dim))
            features[rng.random((n, dim)) < 0.05] = -0.0
            labels = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=n,
                                  endpoint=True)
            save_mirrored(LabeledBatch(features, labels, rng.uniform(-1.0, 1.0, size=n)), path)
            mirrored = synthbench._load_mirror(path)
            assert mirrored is not None
            assert_same_load(mirrored, oracle_load_dump(path))

    @pytest.mark.parametrize("mutate", MIRROR_MUTATIONS.values(), ids=MIRROR_MUTATIONS.keys())
    def test_mutated_mirror_is_turned_away(self, tmp_path, mutate):
        path = tmp_path / "dump.csv"
        batch = mirror_batch()
        save_mirrored(batch, path)
        data = mutate(mirror_path(path).read_bytes(), path, batch)
        mirror_path(path).write_bytes(data)
        UNPICKLED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert synthbench._load_mirror(path) is None
            got = load_outcome(load_dump, path)
        assert [str(w.message) for w in caught] == []
        assert_same_load(got, load_outcome(oracle_load_dump, path))
        assert UNPICKLED == []

    @pytest.mark.filterwarnings("error")
    def test_same_length_cell_edit_reads_the_csv(self, tmp_path):
        rng = np.random.default_rng(45)
        path = tmp_path / "dump.csv"
        save_mirrored(mirror_batch(), path)
        clean = path.read_bytes()
        header = len(clean.split(b"\n")[0]) + 1
        cells = [at for at in range(header, len(clean)) if clean[at] not in b",\n"]
        for at in rng.choice(cells, size=60, replace=False).tolist():
            new = bytes([clean[at] ^ int(rng.integers(1, 8))])
            path.write_bytes(clean[:at] + new + clean[at + 1:])
            assert synthbench._load_mirror(path) is None
            assert_same_load(load_outcome(load_dump, path), load_outcome(oracle_load_dump, path))

    def test_deleted_dump_raises_io_error(self, tmp_path):
        path = tmp_path / "dump.csv"
        save_mirrored(mirror_batch(), path)
        path.unlink()
        got = load_outcome(load_dump, path)
        assert isinstance(got, IoError)
        assert_same_load(got, load_outcome(oracle_load_dump, path))

    def test_dump_without_mirror_is_not_hashed(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.csv"
        save_dump(mirror_batch(), path)

        def no_digest(*args):
            raise AssertionError("a dump without a mirror was hashed")

        monkeypatch.setattr(synthbench, "_mirror_digest", no_digest)
        assert_same_load(load_dump(path), synthbench._load_well_formed_dump(path))

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.csv"
        batch = mirror_batch()
        save_dump(batch, path)
        mirrors, archives = [], []
        for day in (0, 1):
            now = 1.7e9 + 86400.0 * day
            monkeypatch.setattr(time, "time", lambda: now)
            monkeypatch.setattr(time, "time_ns", lambda: int(now) * 10 ** 9)
            synthbench.save_mirror(batch, path, tmp_path / f"day{day}.mirror")
            mirrors.append((tmp_path / f"day{day}.mirror").read_bytes())
            archive = io.BytesIO()
            with zipfile.ZipFile(archive, "w") as zf:
                zf.writestr("features", batch.features.tobytes())
            archives.append(archive.getvalue())
        assert archives[0] != archives[1]  # the patched clock reaches a writer that stamps it
        assert mirrors[0] == mirrors[1]

    def test_failed_write_leaves_previous_mirror(self, tmp_path):
        path = tmp_path / "dump.csv"
        save_mirrored(mirror_batch(), path)
        before = mirror_path(path).read_bytes()
        with pytest.raises(IoError, match="cannot write .*dump.csv.mirror: .*absent.csv"):
            synthbench.save_mirror(mirror_batch(), tmp_path / "absent.csv", mirror_path(path))
        assert mirror_path(path).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.csv", "dump.csv.mirror"]


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


class TestFiniteCells:
    """``parse_finite`` is the one rule for a float cell, in every CSV pacf reads."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "-Infinity"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="^non-finite value$"):
            synthbench.parse_finite(cell)

    def test_slow_path_names_the_first_bad_line(self, tmp_path):
        # "nan" keeps the dump off the C reader; the parse stops at line 2, before line 3's
        # malformed cell
        path = tmp_path / "dump.csv"
        path.write_text("label,score,f0,f1\n0,0.5,nan,1.0\n1,0.5,x,1.0\n")
        with pytest.raises(ParseError, match=r"dump\.csv line 2: non-finite value$"):
            load_dump(path)


class TestCheckBatch:
    """``check_batch`` is the batch rule of both ``LabeledBatch`` and ``update_all``."""

    @pytest.mark.parametrize("features, labels, error, message", [
        ([1.0, 2.0], [0, 1], DimensionMismatch, "features must be 2-D, got shape (2,)"),
        ([[1.0], [2.0]], [0], DimensionMismatch, "labels must match the feature count"),
        ([[np.inf]], [0], ValueError, "features contain non-finite entries"),
    ])
    def test_labeled_batch_and_update_all_fail_alike(self, features, labels, error, message):
        with pytest.raises(error) as from_batch:
            LabeledBatch(features, labels, np.zeros(len(labels)))
        with pytest.raises(error) as from_update:
            update_all(PrototypeSet("source", 2, 1), features, labels)
        assert str(from_batch.value) == str(from_update.value) == message

    def test_score_count_checked(self):
        with pytest.raises(DimensionMismatch, match="^scores must match the feature count$"):
            LabeledBatch([[1.0], [2.0]], [0, 1], [0.5])
