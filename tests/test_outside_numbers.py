"""Every number pacf reads from a config, a checkpoint, a data directory or a run directory
ends, through ``python -m pacf``, either in a correct result or in one ``error:`` line.

One row per input: a command, the edit that makes its input, and the outcome. Each
row runs ``cli.main`` in-process with every warning turned into an error, and
asserts either exit 1 with exactly one ``error: <Type>: `` line naming what is
wrong, or exit 0 with empty stderr.
"""

import json
import math

import numpy as np
import pytest

from pacf import cli
from pacf.errors import numeric_array

BIG = 2 ** 1100  # a JSON integer past float64

CONFIG = {
    "benchmark": {"class_count": 4, "dim": 8, "samples_per_class": 50, "seed": 11},
    "trainer": {"warmup_steps": 40, "steps": 40, "batch_size": 16, "feature_dim": 12,
                "ema_rate": 0.95, "seed": 3},
}
CLASSES, FEATURE_DIM = 4, 12
# a benchmark small enough that one scaled feature cell overflows the student's first sum
SMALL = {
    "benchmark": {"class_count": 2, "dim": 4, "samples_per_class": 30, "seed": 1},
    "trainer": {"warmup_steps": 5, "steps": 5, "batch_size": 8, "feature_dim": 4, "seed": 0},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A data directory and a trained run directory made from ``CONFIG``."""
    root = tmp_path_factory.mktemp("trained")
    config, data, run_dir = root / "config.json", root / "data", root / "run"
    config.write_text(json.dumps(CONFIG))
    data.mkdir()
    run_dir.mkdir()
    assert cli.main(["gen", "--config", str(config), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run_dir)]) == 0
    return data, run_dir


def config_with(section, key, value):
    """A ``gen`` (benchmark) or ``train`` (trainer) run of ``CONFIG`` with one field set."""
    def argv(data, run_dir, tmp_path):
        doc = json.loads(json.dumps(CONFIG))
        doc[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        command = ["gen"] if section == "benchmark" else ["train", "--data", str(data)]
        return [*command, "--config", str(path)]
    return argv


def checkpoint_with(edit):
    """``eval`` of the trained checkpoint after ``edit(doc)``."""
    def argv(data, run_dir, tmp_path):
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        edit(doc)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        return ["eval", "--checkpoint", str(path), "--data", str(data)]
    return argv


def artifact_with(name, edit):
    """``report`` of a copy of the trained run whose artifact ``name`` is ``edit(text)``."""
    def argv(data, run_dir, tmp_path):
        copy = tmp_path / "run"
        copy.mkdir()
        for path in run_dir.iterdir():
            text = path.read_text()
            (copy / path.name).write_text(edit(text) if path.name == name else text)
        return ["report", str(copy)]
    return argv


def set_key(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def teacher_weight(doc):
    doc["teacher"]["extractor_w"][0][0] = 1e308


def fewer_teacher_classes(doc):
    teacher = doc["teacher"]
    teacher["classifier_w"] = [row[:-1] for row in teacher["classifier_w"]]
    teacher["classifier_b"] = teacher["classifier_b"][:-1]


def wider_prototypes(doc):
    protos = doc["tgt_prototypes"]
    protos["dim"] += 1
    protos["prototypes"] = {k: [*v, 0.0] for k, v in protos["prototypes"].items()}


def set_param(model, key, edit):
    """An edit of parameter ``key`` of ``model`` (``student`` or ``teacher``) to ``edit(value)``."""
    def edit_doc(doc):
        doc[model][key] = edit(doc[model][key])
    return edit_doc


def strings(values):
    return [str(v) for v in values]


def first_entry_true(values):
    return [True, *values[1:]]


def first_entry_big(rows):
    return [[BIG, *rows[0][1:]], *rows[1:]]


def big_first_entry_array(rows, columns):
    return first_entry_big([[0.0] * columns for _ in range(rows)])


def string_prototype(doc):
    protos = doc["src_prototypes"]["prototypes"]
    protos["0"] = strings(protos["0"])


def prototype_key(spelling):
    """Target prototype 1 also under ``spelling``, negated, as a second spelling of class 1."""
    def edit(doc):
        protos = doc["tgt_prototypes"]["prototypes"]
        protos[spelling] = [-v for v in protos["1"]]
    return edit


def table_key(table, spelling):
    """``metrics.json``'s class-1 entry of ``table`` also under ``spelling``, doubled."""
    def edit(text):
        doc = json.loads(text)
        doc[table][spelling] = 2.0 * doc[table]["1"]
        return json.dumps(doc)
    return edit


def metrics_with(key, value):
    def edit(text):
        return json.dumps({**json.loads(text), key: value})
    return edit


def dumps_with(edits, **trainer):
    """``train`` of ``SMALL`` (with ``trainer`` fields set) on its own ``gen`` output, after
    each dump ``name`` of ``edits`` is rewritten to ``edit(text)``."""
    def argv(data, run_dir, tmp_path):
        doc = json.loads(json.dumps(SMALL))
        doc["trainer"].update(trainer)
        config, own = tmp_path / "small.json", tmp_path / "data"
        config.write_text(json.dumps(doc))
        own.mkdir()
        assert cli.main(["gen", "--config", str(config), "--out", str(own)]) == 0
        for name, edit in edits.items():
            (own / name).write_text(edit((own / name).read_text()))
        return ["train", "--config", str(config), "--data", str(own)]
    return argv


def feature_cells(edit):
    """A dump edit that replaces the feature cells of data row i by ``edit(i, cells)``."""
    def edit_text(text):
        header, *lines = text.splitlines()
        rows = [line.split(",") for line in lines]
        return "\n".join([header, *(",".join([*row[:2], *edit(i, row[2:])])
                                    for i, row in enumerate(rows))]) + "\n"
    return edit_text


# finite cells whose products with the student's weights overflow float64
times_1_5e307 = feature_cells(lambda i, cells: [repr(float(c) * 1.5e307) for c in cells])
first_row_zero = feature_cells(lambda i, cells: ["0.0"] * len(cells) if i == 0 else cells)


def infinite_x_on_line_3(text):
    lines = text.splitlines()
    lines[2] = ",".join(["inf", *lines[2].split(",")[1:]])
    return "\n".join(lines) + "\n"


ROWS = {
    "gen source_std 2^1100":
        (config_with("benchmark", "source_std", BIG), "InvalidSpec", "source_std"),
    "gen target_std_multiplier 2^1100":
        (config_with("benchmark", "target_std_multiplier", BIG), "InvalidSpec",
         "target_std_multiplier"),
    "gen target_mean_shift entry 2^1100":
        (config_with("benchmark", "target_mean_shift", big_first_entry_array(4, 8)),
         "InvalidSpec", "target_mean_shift must have finite entries"),
    "gen source_means entry 2^1100":
        (config_with("benchmark", "source_means", big_first_entry_array(4, 8)), "InvalidSpec",
         "source_means must have finite entries"),
    "train learning_rate 2^1100":
        (config_with("trainer", "learning_rate", BIG), "ConfigError", "learning_rate"),
    "train augment_noise 2^1100":
        (config_with("trainer", "augment_noise", BIG), "ConfigError", "augment_noise"),
    "train pseudo_threshold 2^1100":
        (config_with("trainer", "pseudo_threshold", BIG), "ConfigError", "pseudo_threshold"),
    "eval prototype class_count Infinity":
        (checkpoint_with(set_key("src_prototypes", "class_count", math.inf)), "ParseError",
         "'src_prototypes'"),
    "eval prototype class_count 4.7":
        (checkpoint_with(set_key("src_prototypes", "class_count", CLASSES + 0.7)),
         "ParseError", "'src_prototypes'"),
    "eval prototype class_count '4'":
        (checkpoint_with(set_key("tgt_prototypes", "class_count", str(CLASSES))),
         "ParseError", "'tgt_prototypes'"),
    "eval teacher extractor_w 1e308":
        (checkpoint_with(teacher_weight), "Diverged", "teacher"),
    "eval teacher with one class fewer":
        (checkpoint_with(fewer_teacher_classes), "ParseError", "'teacher'"),
    "eval prototype set of another class count":
        (checkpoint_with(set_key("src_prototypes", "class_count", CLASSES + 1)), "ParseError",
         "'src_prototypes'"),
    "eval prototype set of another dim":
        (checkpoint_with(wider_prototypes), "ParseError", "'tgt_prototypes'"),
    "eval pseudo_threshold 2^70 disables pseudo labels":
        (checkpoint_with(set_key("trainer_config", "pseudo_threshold", 2 ** 70)), None, None),
    "eval student extractor_b of strings":
        (checkpoint_with(set_param("student", "extractor_b", strings)), "ParseError",
         "extractor_b"),
    "eval teacher classifier_b entry true":
        (checkpoint_with(set_param("teacher", "classifier_b", first_entry_true)), "ParseError",
         "classifier_b"),
    "eval student extractor_w entry 2^1100":
        (checkpoint_with(set_param("student", "extractor_w", first_entry_big)), "ParseError",
         "extractor_w"),
    "eval prototype of strings":
        (checkpoint_with(string_prototype), "ParseError", "prototype 0"),
    "eval src_prototypes false":
        (checkpoint_with(lambda doc: doc.update(src_prototypes=False)), "ParseError",
         "'src_prototypes'"),
    "eval src_prototypes 0":
        (checkpoint_with(lambda doc: doc.update(src_prototypes=0)), "ParseError",
         "'src_prototypes'"),
    "eval step true":
        (checkpoint_with(lambda doc: doc.update(step=True)), "ParseError", "'step'"),
    "eval prototype class_count true":
        (checkpoint_with(set_key("src_prototypes", "class_count", True)), "ParseError",
         "class_count must be an integer"),
    "eval prototype dim true":
        (checkpoint_with(set_key("tgt_prototypes", "dim", True)), "ParseError",
         "dim must be an integer"),
    "report pseudo_count true":
        (artifact_with("metrics.json", metrics_with("pseudo_count", True)), "ParseError",
         "'pseudo_count'"),
    "report pseudo_count false":
        (artifact_with("metrics.json", metrics_with("pseudo_count", False)), "ParseError",
         "'pseudo_count'"),
    "report pseudo_count Infinity":
        (artifact_with("metrics.json", metrics_with("pseudo_count", math.inf)), "ParseError",
         "'pseudo_count'"),
    "report proxy_a_distance '0.5'":
        (artifact_with("metrics.json", metrics_with("proxy_a_distance", "0.5")), "ParseError",
         "'proxy_a_distance'"),
    "eval prototype key '01'":
        (checkpoint_with(prototype_key("01")), "ParseError", "'tgt_prototypes'"),
    "eval prototype key ' 1'":
        (checkpoint_with(prototype_key(" 1")), "ParseError", "'tgt_prototypes'"),
    "eval prototype key '0_1'":
        (checkpoint_with(prototype_key("0_1")), "ParseError", "'tgt_prototypes'"),
    "report mean_shift key '01'":
        (artifact_with("metrics.json", table_key("mean_shift", "01")), "ParseError",
         "'mean_shift'"),
    "report source_variance key '+1'":
        (artifact_with("metrics.json", table_key("source_variance", "+1")), "ParseError",
         "'source_variance'"),
    "report infinite projection x":
        (artifact_with("projection.csv", infinite_x_on_line_3), "ParseError",
         "projection.csv line 3"),
    "train target dump times 1.5e307":
        (dumps_with({"target.csv": times_1_5e307, "target_hidden.csv": times_1_5e307}),
         "Diverged", "the student's target embedding of data row 1 is not finite"),
    "train source dump times 1.5e307 without warm-up":
        (dumps_with({"source.csv": times_1_5e307}, warmup_steps=0), "Diverged",
         "the student's source embedding of data row 1 is not finite"),
    "train source dump with a zero feature row without warm-up":
        (dumps_with({"source.csv": first_row_zero}, warmup_steps=0), None, None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make_argv, error, where", ROWS.values(), ids=ROWS.keys())
def test_one_error_line_or_a_clean_exit(trained, tmp_path, capsys, make_argv, error, where):
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([*make_argv(*trained, tmp_path), "--out", str(out)])
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {error}: ")
        assert where in err


def test_numeric_array_reads_an_integer_past_float64_as_infinity():
    # the rule as_float applies to a scalar, entry by entry
    assert numeric_array(BIG, "x").tolist() == math.inf
    array = numeric_array([[BIG, 1], [-BIG, 0.5]], "x")
    assert array.dtype == np.float64
    assert array.tolist() == [[math.inf, 1.0], [-math.inf, 0.5]]
