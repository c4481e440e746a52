"""Every number pacf reads from a config, a checkpoint or a run directory ends, through
``python -m pacf``, either in a correct result or in one ``error:`` line.

One row per input: a command, the edit that makes its input, and the outcome. Each
row runs ``cli.main`` in-process with every warning turned into an error, and
asserts either exit 1 with exactly one ``error: <Type>: `` line naming what is
wrong, or exit 0 with empty stderr.
"""

import json
import math

import pytest

from pacf import cli

BIG = 2 ** 1100  # a JSON integer past float64

CONFIG = {
    "benchmark": {"class_count": 4, "dim": 8, "samples_per_class": 50, "seed": 11},
    "trainer": {"warmup_steps": 40, "steps": 40, "batch_size": 16, "feature_dim": 12,
                "ema_rate": 0.95, "seed": 3},
}
CLASSES, FEATURE_DIM = 4, 12


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


def metrics_with(key, value):
    def edit(text):
        return json.dumps({**json.loads(text), key: value})
    return edit


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
    "report pseudo_count Infinity":
        (artifact_with("metrics.json", metrics_with("pseudo_count", math.inf)), "ParseError",
         "'pseudo_count'"),
    "report proxy_a_distance '0.5'":
        (artifact_with("metrics.json", metrics_with("proxy_a_distance", "0.5")), "ParseError",
         "'proxy_a_distance'"),
    "report infinite projection x":
        (artifact_with("projection.csv", infinite_x_on_line_3), "ParseError",
         "projection.csv line 3"),
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
