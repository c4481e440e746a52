import functools
import json
import math
import os
import shutil
from dataclasses import fields
from xml.etree import ElementTree

import numpy as np
import pytest

from pacf import cli, experiment, synthbench
from pacf.adapt import TrainerConfig
from pacf.errors import ConfigError, IoError, MissingArtifact, ParseError
from pacf.synthbench import DomainShiftSpec, read_csv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DUMPS = (cli.SOURCE_FILE, cli.TARGET_FILE, cli.HIDDEN_FILE)  # the order train and eval read


SMALL_CONFIG = {
    "benchmark": {"class_count": 4, "dim": 8, "samples_per_class": 50,
                  "source_std": 1.0, "target_mean_shift": 1.5,
                  "target_std_multiplier": 1.8, "mean_scale": 1.0, "seed": 11},
    "trainer": {"warmup_steps": 40, "steps": 40, "batch_size": 16,
                "feature_dim": 12, "augment_noise": 1.0, "ema_rate": 0.95,
                "learning_rate": 0.05, "lambda_unsup": 1.0, "lambda_dis": 0.1,
                "lambda_pce": 1.0, "lambda_mut": 1.0, "seed": 3},
    "ablation": {"enable_pce": True, "regularizer": "jsd",
                 "enable_adversarial": True},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG, indent=2))
    return str(path)


def run(argv):
    return cli.main(argv)


def read_bytes_map(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGen:
    def test_writes_expected_files(self, tmp_path, config_path):
        out = tmp_path / "data"
        out.mkdir()
        assert run(["gen", "--config", config_path, "--out", str(out)]) == 0
        for name in ("source.csv", "source.csv.mirror", "target.csv", "target.csv.mirror",
                     "target_hidden.csv", "target_hidden.csv.mirror", "manifest.json"):
            assert (out / name).exists()
        source_lines = (out / "source.csv").read_text().splitlines()
        assert len(source_lines) == 1 + 4 * 50
        assert source_lines[0].startswith("label,score,f0")
        target_lines = (out / "target.csv").read_text().splitlines()
        assert all(line.split(",")[0] == "-1" for line in target_lines[1:])

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        run(["gen", "--config", config_path, "--out", str(out1)])
        run(["gen", "--config", config_path, "--out", str(out2)])
        assert read_bytes_map(out1) == read_bytes_map(out2)

    def test_missing_out_dir_fails(self, tmp_path, config_path, capsys):
        code = run(["gen", "--config", config_path, "--out", str(tmp_path / "nope")])
        assert code == 1
        err = capsys.readouterr().err
        assert "IoError" in err and "nope" in err

    def test_seed_override_changes_data(self, tmp_path, config_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        run(["gen", "--config", config_path, "--out", str(out1)])
        run(["gen", "--config", config_path, "--out", str(out2), "--seed", "99"])
        assert (out1 / "source.csv").read_bytes() != (out2 / "source.csv").read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["trainer"]["bogus_knob"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gen", "--config", str(path), "--out", str(out)]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_top_level_out_dir_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "out_dir": "nowhere"}))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gen", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: ConfigError: {path}: unknown keys "
                                           "['out_dir']\n")
        assert os.listdir(out) == []

    def test_malformed_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gen", "--config", str(path), "--out", str(out)]) == 1
        assert "ParseError" in capsys.readouterr().err


def unlabel_row_3(lines):
    lines[3] = ",".join(["-1"] + lines[3].split(",")[1:])
    return lines


def assert_one_unknown_source_label_line(err):
    assert err.count("\n") == 1
    assert err.startswith("error: ParseError: ")
    assert "source.csv" in err and "-1" in err


def drop_last_two_rows(lines):
    return lines[:-2]


def assert_one_hidden_row_count_line(err):
    assert err.count("\n") == 1
    assert err.startswith("error: ParseError: ")
    # the generated target has 4 x 50 rows
    assert "target_hidden.csv has 198 data rows" in err and "has 200" in err


def relabel_row_5(label):
    def edit(lines):
        lines[5] = ",".join([label] + lines[5].split(",")[1:])
        return lines
    return edit


def assert_one_hidden_label_line(err, label):
    assert err.count("\n") == 1
    assert err.startswith("error: ParseError: ")
    # the generated source has classes 0 to 3
    assert f"target_hidden.csv: data row 5 has label {label}; " in err
    assert "-1 (unknown) or a source class from 0 to 3" in err


def with_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


@pytest.fixture()
def trained_run(tmp_path, config_path):
    data = tmp_path / "data"
    data.mkdir()
    run(["gen", "--config", config_path, "--out", str(data)])
    out = tmp_path / "run"
    out.mkdir()
    assert run(["train", "--config", config_path, "--data", str(data),
                "--out", str(out)]) == 0
    return data, out


class TestTrain:
    def test_artifacts_present(self, trained_run):
        _, out = trained_run
        for name in ("checkpoint.json", "losses.csv", "metrics.json", "config.json",
                     "metrics_variance.csv", "metrics_mean_shift.csv",
                     "metrics_tp_ratio.csv", "rank_scatter.csv", "projection.csv",
                     "manifest.json"):
            assert (out / name).exists(), name

    def test_loss_csv_layout(self, trained_run):
        _, out = trained_run
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "step,loss_sup,loss_unsup,loss_dis,loss_pce,loss_mut,total,pseudo_count"
        assert len(lines) == 1 + 40 + 40  # warmup + adaptation steps
        first = lines[1].split(",")
        assert first[0] == "1"

    def test_checkpoint_config_hash_matches(self, trained_run, tmp_path):
        _, out = trained_run
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        metrics_doc = json.loads((out / "metrics.json").read_text())
        assert checkpoint["config_hash"] == metrics_doc["config_hash"]
        assert checkpoint["step"] == 80

    def test_byte_identical_reruns(self, tmp_path, config_path, trained_run):
        data, out1 = trained_run
        out2 = tmp_path / "run2"
        out2.mkdir()
        run(["train", "--config", config_path, "--data", str(data), "--out", str(out2)])
        assert read_bytes_map(out1) == read_bytes_map(out2)

    def test_ablation_flags_disable_terms(self, tmp_path, config_path):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["ablation"] = {"enable_pce": False, "regularizer": "none",
                           "enable_adversarial": False}
        path = tmp_path / "ablation.json"
        path.write_text(json.dumps(doc))
        data = tmp_path / "data"
        data.mkdir()
        run(["gen", "--config", config_path, "--out", str(data)])
        out = tmp_path / "run"
        out.mkdir()
        assert run(["train", "--config", str(path), "--data", str(data),
                    "--out", str(out)]) == 0
        lines = (out / "losses.csv").read_text().splitlines()
        header = lines[0].split(",")
        pce_col = header.index("loss_pce")
        mut_col = header.index("loss_mut")
        dis_col = header.index("loss_dis")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[pce_col]) == 0.0
            assert float(cells[mut_col]) == 0.0
            assert float(cells[dis_col]) == 0.0
        config_doc = json.loads((out / "config.json").read_text())
        assert config_doc["ablation"]["enable_pce"] is False

    def test_corrupt_data_file_fails_with_line(self, tmp_path, config_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        run(["gen", "--config", config_path, "--out", str(data)])
        source = data / "source.csv"
        lines = source.read_text().splitlines()
        lines[3] = "0,0.5,not_a_number"
        source.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["train", "--config", config_path, "--data", str(data),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 4" in err

    def test_non_finite_cell_fails_with_line(self, tmp_path, config_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        run(["gen", "--config", config_path, "--out", str(data)])
        target = data / "target.csv"
        lines = target.read_text().splitlines()
        cells = lines[5].split(",")
        cells[4] = "nan"
        lines[5] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["train", "--config", config_path, "--data", str(data),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert "target.csv line 6" in err

    def train_on_edited_data(self, tmp_path, config_path, name, edit):
        data = tmp_path / "data"
        data.mkdir()
        run(["gen", "--config", config_path, "--out", str(data)])
        path = data / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        return run(["train", "--config", config_path, "--data", str(data), "--out", str(out)])

    def test_unknown_source_label_fails_with_one_line(self, tmp_path, config_path, capsys):
        code = self.train_on_edited_data(tmp_path, config_path, "source.csv", unlabel_row_3)
        assert code == 1
        assert_one_unknown_source_label_line(capsys.readouterr().err)

    @pytest.mark.parametrize("label", ["100000", "100000000000000000"])
    def test_source_label_past_class_count_fails_with_one_line(self, tmp_path, config_path,
                                                               capsys, label):
        def relabel_row_1(lines):
            lines[1] = ",".join([label] + lines[1].split(",")[1:])
            return lines

        code = self.train_on_edited_data(tmp_path, config_path, "source.csv", relabel_row_1)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert f"source.csv: data row 1 has label {label}; " in err
        assert "class_count's range [1, 1e5]" in err
        assert os.listdir(tmp_path / "out") == []

    def test_short_hidden_labels_fail_with_one_line(self, tmp_path, config_path, capsys):
        code = self.train_on_edited_data(tmp_path, config_path, "target_hidden.csv",
                                         drop_last_two_rows)
        assert code == 1
        assert_one_hidden_row_count_line(capsys.readouterr().err)

    @pytest.mark.parametrize("label", ["-7", "4", "57"])
    def test_hidden_label_outside_source_classes_fails_with_one_line(self, tmp_path,
                                                                    config_path, capsys, label):
        code = self.train_on_edited_data(tmp_path, config_path, "target_hidden.csv",
                                         relabel_row_5(label))
        assert code == 1
        assert_one_hidden_label_line(capsys.readouterr().err, label)
        assert os.listdir(tmp_path / "out") == []

    def test_narrower_target_fails_with_one_line(self, tmp_path, config_path, capsys):
        def drop_last_column(lines):
            return [line.rsplit(",", 1)[0] for line in lines]

        code = self.train_on_edited_data(tmp_path, config_path, "target.csv", drop_last_column)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: DimensionMismatch: ")
        assert "target" in err  # checked before warm-up, not by the first target forward

    @pytest.mark.filterwarnings("error")  # no numpy "input contained no data" warning
    def test_header_only_target_fails_with_one_line(self, tmp_path, config_path, capsys):
        code = self.train_on_edited_data(tmp_path, config_path, "target.csv",
                                         lambda lines: lines[:1])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: EmptyBatch: ") and "target.csv" in err

    @pytest.mark.filterwarnings("error")  # nothing but the one error line
    def test_diverging_run_fails_with_step(self, tmp_path, config_path, capsys):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["trainer"].update({"learning_rate": 1e6, "warmup_steps": 50, "steps": 50})
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        data = tmp_path / "data"
        data.mkdir()
        run(["gen", "--config", config_path, "--out", str(data)])
        out = tmp_path / "out"
        out.mkdir()
        assert run(["train", "--config", str(path), "--data", str(data),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: Diverged: ")
        assert "step " in err


class TestEval:
    def test_eval_after_train_matches_report(self, trained_run, tmp_path):
        data, run_dir = trained_run
        out = tmp_path / "eval"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 0
        train_metrics = (run_dir / "metrics.json").read_bytes()
        eval_metrics = (out / "metrics.json").read_bytes()
        assert train_metrics == eval_metrics
        assert (run_dir / "rank_scatter.csv").read_bytes() == \
            (out / "rank_scatter.csv").read_bytes()

    def test_swapped_domains_symmetric_mean_shift(self, trained_run, tmp_path):
        data, run_dir = trained_run
        swapped = tmp_path / "swapped"
        swapped.mkdir()
        # swap roles: labeled target becomes the source, source features the target
        (swapped / "source.csv").write_bytes((data / "target_hidden.csv").read_bytes())
        source_text = (data / "source.csv").read_text().splitlines()
        header = source_text[0]
        unlabeled, hidden = [header], [header]
        for line in source_text[1:]:
            cells = line.split(",")
            unlabeled.append(",".join(["-1", "-1.0"] + cells[2:]))
            hidden.append(",".join([cells[0], "-1.0"] + cells[2:]))
        (swapped / "target.csv").write_text("\n".join(unlabeled) + "\n")
        (swapped / "target_hidden.csv").write_text("\n".join(hidden) + "\n")

        out = tmp_path / "eval_swapped"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(swapped), "--out", str(out)]) == 0
        forward = json.loads((run_dir / "metrics.json").read_text())
        backward = json.loads((out / "metrics.json").read_text())
        assert forward["mean_shift"] == backward["mean_shift"]
        assert forward["source_variance"] == backward["target_variance"]
        assert forward["target_variance"] == backward["source_variance"]

    def test_unknown_source_label_fails_with_one_line(self, trained_run, tmp_path, capsys):
        data, run_dir = trained_run
        source = data / "source.csv"
        source.write_text("\n".join(unlabel_row_3(source.read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert_one_unknown_source_label_line(capsys.readouterr().err)

    def test_short_hidden_labels_fail_with_one_line(self, trained_run, tmp_path, capsys):
        data, run_dir = trained_run
        hidden = data / "target_hidden.csv"
        hidden.write_text("\n".join(drop_last_two_rows(hidden.read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert_one_hidden_row_count_line(capsys.readouterr().err)

    @pytest.mark.parametrize("label", ["-7", "57"])
    def test_hidden_label_outside_source_classes_fails_with_one_line(self, trained_run,
                                                                    tmp_path, capsys, label):
        data, run_dir = trained_run
        hidden = data / "target_hidden.csv"
        hidden.write_text("\n".join(relabel_row_5(label)(hidden.read_text().splitlines()))
                          + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert_one_hidden_label_line(capsys.readouterr().err, label)
        assert os.listdir(out) == []

    def test_non_utf8_source_fails_with_one_line(self, trained_run, tmp_path, capsys):
        data, run_dir = trained_run
        source = data / "source.csv"
        text = source.read_bytes()
        source.write_bytes(text[:100] + b"\xe9" + text[100:])
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert str(source) in err and "UTF-8" in err

    def test_non_utf8_checkpoint_fails_with_one_line(self, trained_run, tmp_path, capsys):
        data, _ = trained_run
        path = tmp_path / "checkpoint.json"
        path.write_bytes(b'{"format": "\xe9"}')
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(path), "--data", str(data),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert str(path) in err and "UTF-8" in err

    def test_missing_checkpoint(self, trained_run, tmp_path, capsys):
        data, _ = trained_run
        out = tmp_path / "out"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert "IoError" in capsys.readouterr().err

    def eval_checkpoint(self, data, tmp_path, doc):
        path = tmp_path / "bad_checkpoint.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        code = run(["eval", "--checkpoint", str(path), "--data", str(data), "--out", str(out)])
        return code, str(path)

    def test_checkpoint_missing_key_fails_with_one_line(self, trained_run, tmp_path, capsys):
        data, _ = trained_run
        code, path = self.eval_checkpoint(data, tmp_path, {"format": "x"})
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert path in err and "'trainer_config'" in err

    @pytest.mark.parametrize("key, corrupt", [
        ("student", lambda doc: doc["student"].update(extractor_w="oops")),
        ("teacher", lambda doc: doc["teacher"].pop("classifier_b")),
        ("src_prototypes",
         lambda doc: doc["src_prototypes"]["prototypes"]["0"].__setitem__(0, 3.0)),
        ("tgt_prototypes", lambda doc: doc["tgt_prototypes"].update(prototypes=[])),
        ("trainer_config", lambda doc: doc["trainer_config"].update(tau=-1.0)),
        ("step", lambda doc: doc.update(step=80.5)),
    ])
    def test_malformed_checkpoint_entry_fails_with_one_line(self, trained_run, tmp_path,
                                                            capsys, key, corrupt):
        data, run_dir = trained_run
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        corrupt(doc)
        code, path = self.eval_checkpoint(data, tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert path in err and repr(key) in err

    @pytest.mark.filterwarnings("error")  # nothing but the one error line
    @pytest.mark.parametrize("weight, error, message", [
        (0.0, "ZeroVector", "source row to a zero embedding"),
        (1e300, "Diverged", "source embedding of data row 1 is not finite"),
    ])
    def test_degenerate_student_fails_with_one_line(self, trained_run, tmp_path, capsys,
                                                    weight, error, message):
        data, run_dir = trained_run
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        student = doc["student"]
        student["extractor_w"] = [[weight] * len(row) for row in student["extractor_w"]]
        student["extractor_b"] = [0.0] * len(student["extractor_b"])
        doc["src_prototypes"] = doc["tgt_prototypes"] = None
        code, _ = self.eval_checkpoint(data, tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {error}: ") and message in err
        assert os.listdir(tmp_path / "out") == []


class TestDumpParses:
    """``train`` and ``eval`` parse no dump in full in a data directory ``gen`` wrote: all
    three dumps are read from their mirrors. Without the mirrors, as for external dumps,
    they parse all three."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        """The dumps read so far: ``reads["parsed"]`` in full, by numpy's reader or by
        ``read_csv``, and ``reads["mirrored"]`` from their mirrors."""
        reads = {"parsed": [], "mirrored": []}

        def counted(name, kind):
            original = getattr(synthbench, name)

            def read(path, *args):
                result = original(path, *args)
                if result is not None:
                    reads[kind].append(os.path.basename(path))
                return result
            monkeypatch.setattr(synthbench, name, read)

        counted("_load_well_formed_dump", "parsed")
        counted("read_csv", "parsed")
        counted("_load_mirror", "mirrored")
        return reads

    @staticmethod
    def without_mirrors(data, tmp_path):
        """A copy of the data directory ``data`` with the mirrors deleted."""
        copy = tmp_path / "external"
        shutil.copytree(data, copy)
        for mirror in copy.glob(f"*{synthbench.MIRROR_SUFFIX}"):
            mirror.unlink()
        return copy

    def test_train_parses_three_dumps(self, trained_run, tmp_path, config_path, reads):
        data, _ = trained_run
        data = self.without_mirrors(data, tmp_path)
        out = tmp_path / "again"
        out.mkdir()
        assert run(["train", "--config", config_path, "--data", str(data),
                    "--out", str(out)]) == 0
        assert reads == {"parsed": list(DUMPS), "mirrored": []}

    def test_eval_parses_three_dumps(self, trained_run, tmp_path, reads):
        data, run_dir = trained_run
        data = self.without_mirrors(data, tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 0
        assert reads == {"parsed": list(DUMPS), "mirrored": []}
        assert (out / "metrics.json").read_bytes() == (run_dir / "metrics.json").read_bytes()

    def test_gen_made_directory_parses_none(self, trained_run, tmp_path, config_path, reads):
        data, run_dir = trained_run
        again, evaluated = tmp_path / "again", tmp_path / "eval"
        again.mkdir()
        evaluated.mkdir()
        assert run(["train", "--config", config_path, "--data", str(data),
                    "--out", str(again)]) == 0
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(evaluated)]) == 0
        assert reads == {"parsed": [], "mirrored": list(DUMPS) * 2}  # train's, then eval's
        assert read_bytes_map(again) == read_bytes_map(run_dir)
        assert (evaluated / "metrics.json").read_bytes() == (run_dir / "metrics.json").read_bytes()


class TestDumpMirrors:
    """``gen`` writes a mirror beside each of its three dumps; reading one gives the batch
    the CSV parse gives, bit for bit."""

    @pytest.mark.parametrize("overrides", [
        {"class_count": 1},
        {"dim": 2},
        {"source_std": 1e-300, "mean_scale": 1e-300, "target_mean_shift": 1e-300},
        {"source_std": 1e300, "mean_scale": 1e300, "target_mean_shift": 1e300,
         "target_std_multiplier": 1.0},
        # every mean is a signed zero and every draw rounds to a signed subnormal or zero
        {"source_std": 5e-324, "mean_scale": 0.0, "target_mean_shift": 0.0},
    ], ids=["one class", "dim 2", "1e-300", "1e300", "negative zeros"])
    def test_mirror_reads_equal_csv_reads(self, tmp_path, overrides):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["benchmark"].update(overrides)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "data"
        out.mkdir()
        assert run(["gen", "--config", str(config), "--out", str(out)]) == 0
        for name in DUMPS:
            mirrored = synthbench._load_mirror(out / name)
            parsed = synthbench._load_well_formed_dump(out / name)
            assert mirrored is not None and parsed is not None
            for field in ("features", "labels", "scores"):
                a, b = getattr(mirrored, field), getattr(parsed, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.flags["C_CONTIGUOUS"] and b.flags["C_CONTIGUOUS"]
                assert a.tobytes() == b.tobytes(), field
            if overrides.get("mean_scale") == 0.0:
                assert (np.signbit(parsed.features) & (parsed.features == 0)).any()

    @pytest.mark.parametrize("name", ["source.csv", "target.csv"])
    def test_deleted_dump_with_mirror_fails_with_io_error(self, trained_run, tmp_path, capsys,
                                                          name):
        data, run_dir = trained_run
        path = data / name
        path.unlink()
        out = tmp_path / "eval"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: IoError: cannot read {path}: [Errno 2] "
                                           f"No such file or directory: '{path}'\n")
        assert os.listdir(out) == []

    def test_hidden_mirror_alone_supplies_no_labels(self, trained_run, tmp_path):
        data, run_dir = trained_run
        artifacts = []
        hidden_mirror = cli.HIDDEN_FILE + synthbench.MIRROR_SUFFIX
        for name, removed in (("mirror_left", [cli.HIDDEN_FILE]),
                              ("neither", [cli.HIDDEN_FILE, hidden_mirror])):
            copy, out = tmp_path / name, tmp_path / f"{name}_eval"
            shutil.copytree(data, copy)
            for removed_name in removed:
                (copy / removed_name).unlink()
            out.mkdir()
            assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                        "--data", str(copy), "--out", str(out)]) == 0
            artifacts.append(read_bytes_map(out))
        assert artifacts[0] == artifacts[1]
        # the run itself read the hidden labels, so its metrics differ
        assert artifacts[0]["metrics.json"] != (run_dir / "metrics.json").read_bytes()


class TestGenFormatsEachFloatOnce:
    """``gen`` formats the float cells of ``source.csv`` and ``target.csv`` once each:
    ``target_hidden.csv`` copies ``target.csv``'s text after each label."""

    def test_float_cells_formatted(self, tmp_path, config_path, monkeypatch):
        float_cells = []
        original = synthbench.format_column

        def counted(column):
            cells = original(column)
            if np.asarray(column).dtype.kind == "f":
                float_cells.append(len(cells))
            return cells
        monkeypatch.setattr(synthbench, "format_column", counted)
        assert run(["gen", "--config", config_path, "--out", str(tmp_path)]) == 0
        bench = SMALL_CONFIG["benchmark"]
        n_source = n_target = bench["class_count"] * bench["samples_per_class"]
        # a row's float cells are its score and its features
        assert sum(float_cells) == (n_source + n_target) * (1 + bench["dim"])


class TestReport:
    def test_report_artifacts(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), str(run_dir), "--out", str(out)]) == 0
        for name in ("variance_source_comparison.csv", "variance_target_comparison.csv",
                     "mean_shift_comparison.csv", "tp_ratio_comparison.csv",
                     "summary_comparison.csv", "rank_correlation.svg",
                     "projection.svg", "manifest.json"):
            assert (out / name).exists(), name

    def test_delta_column_is_difference_of_runs(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = tmp_path / "report"
        out.mkdir()
        run(["report", str(run_dir), str(run_dir), "--out", str(out)])
        lines = (out / "mean_shift_comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1].startswith("delta_")
        for line in lines[1:]:
            cells = line.split(",")
            # identical runs: delta must be exactly zero
            assert float(cells[-1]) == 0.0

    def test_repeated_run_names_get_distinct_columns(self, trained_run, tmp_path):
        _, run_dir = trained_run
        same_name = tmp_path / "x" / run_dir.name
        shutil.copytree(run_dir, same_name)
        taken_suffix = tmp_path / f"{run_dir.name}_1"
        shutil.copytree(run_dir, taken_suffix)
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), str(same_name), str(taken_suffix),
                    "--out", str(out)]) == 0
        summary = (out / "summary_comparison.csv").read_text().splitlines()[0].split(",")
        assert summary == ["metric", "run", "run_1", "run_1_1"]
        for name in ("variance_source_comparison.csv", "variance_target_comparison.csv",
                     "mean_shift_comparison.csv", "tp_ratio_comparison.csv"):
            header = (out / name).read_text().splitlines()[0].split(",")
            assert len(set(header)) == len(header), (name, header)

    def test_run_names_keep_csv_cells_intact(self, trained_run, tmp_path):
        _, run_dir = trained_run
        for odd in ("a,b", "c\nd\re"):
            shutil.copytree(run_dir, tmp_path / odd)
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), str(tmp_path / "a,b"), str(tmp_path / "c\nd\re"),
                    "--out", str(out)]) == 0
        for name in ("variance_source_comparison.csv", "variance_target_comparison.csv",
                     "mean_shift_comparison.csv", "tp_ratio_comparison.csv",
                     "summary_comparison.csv"):
            read_csv(out / name, lambda header: True, list)
        header = (out / "variance_source_comparison.csv").read_text().splitlines()[0]
        assert header.split(",")[1:4] == ["variance_run", "variance_a_b", "variance_c_d_e"]

    def test_svg_text_is_escaped(self, trained_run, tmp_path):
        _, run_dir = trained_run
        odd = run_dir.rename(tmp_path / "a&b<c>")
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(odd), "--out", str(out)]) == 0
        for name in ("rank_correlation.svg", "projection.svg"):
            root = ElementTree.parse(out / name).getroot()
            texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
            assert "a&b<c>" in texts, name

    def test_svg_annotations_match_metrics(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = tmp_path / "report"
        out.mkdir()
        run(["report", str(run_dir), "--out", str(out)])
        doc = json.loads((run_dir / "metrics.json").read_text())
        svg = (out / "rank_correlation.svg").read_text()
        assert f"rho={doc['spearman_rho']!r}" in svg
        assert f"tau={doc['kendall_tau']!r}" in svg

    def test_run_without_manifest_fails_with_one_line(self, trained_run, tmp_path, capsys):
        _, run_dir = trained_run
        os.remove(run_dir / "manifest.json")
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: MissingArtifact: {run_dir / 'manifest.json'}\n"
        assert os.listdir(out) == []

    def test_missing_artifact_named(self, trained_run, tmp_path, capsys):
        _, run_dir = trained_run
        os.remove(run_dir / "rank_scatter.csv")
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MissingArtifact" in err and "rank_scatter.csv" in err

    @pytest.mark.parametrize("name, corrupt, where", [
        ("rank_scatter.csv", lambda text: with_line(text, 1, "abc,0.5"), "line 2"),
        ("projection.csv", lambda text: with_line(text, 1, "0.5,0.5"), "line 2"),
        ("projection.csv", lambda text: with_line(text, 1, "0.5,0.5,1.5"), "line 2"),
        ("projection.csv",
         lambda text: with_line(text, 1, "0.5,0.5,99999999999999999999"), "line 2"),
        ("metrics.json",
         lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "target_variance"}), "'target_variance'"),
        ("metrics.json", lambda text: json.dumps([json.loads(text)]), "JSON object"),
    ])
    def test_malformed_artifact_fails_with_one_line(self, trained_run, tmp_path, capsys,
                                                    name, corrupt, where):
        _, run_dir = trained_run
        path = run_dir / name
        path.write_text(corrupt(path.read_text()))
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError: ")
        assert str(path) in err and where in err

    def test_report_byte_identical(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        out1.mkdir()
        out2.mkdir()
        run(["report", str(run_dir), "--out", str(out1)])
        run(["report", str(run_dir), "--out", str(out2)])
        assert read_bytes_map(out1) == read_bytes_map(out2)


SUMMARY_METRICS = ["proxy_a_distance", "spearman_rho", "kendall_tau", "source_variance_avg",
                   "target_variance_avg", "mean_shift_avg", "tp_ratio_avg", "pseudo_count"]
METRICS_KEYS = {"config_hash", "source_variance", "target_variance", "mean_shift",
                "proxy_a_distance", "spearman_rho", "kendall_tau", "tp_ratio", "pseudo_count"}


class TestSummaryContents:
    """``metrics.json``'s key set, and ``summary_comparison.csv`` cell by cell against it."""

    def assert_summary(self, out, run_dirs):
        rows = (out / "summary_comparison.csv").read_text().splitlines()
        assert rows[0].split(",") == ["metric", *(os.path.basename(d) for d in run_dirs)]
        cells = [row.split(",") for row in rows[1:]]
        assert [row[0] for row in cells] == SUMMARY_METRICS
        for column, run_dir in enumerate(run_dirs, start=1):
            doc = json.loads((run_dir / "metrics.json").read_text())
            for row in cells:
                name = row[0]
                value = doc[name[:-len("_avg")]]["avg"] if name.endswith("_avg") else doc[name]
                assert row[column] == ("" if value is None else repr(float(value))), name

    def test_one_run(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), "--out", str(out)]) == 0
        self.assert_summary(out, [run_dir])

    def test_two_runs(self, trained_run, tmp_path):
        data, run_dir = trained_run
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["ablation"] = {"enable_pce": False, "regularizer": "none",
                           "enable_adversarial": False}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        assert run(["train", "--config", str(path), "--data", str(data),
                    "--out", str(baseline)]) == 0
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(baseline), str(run_dir), "--out", str(out)]) == 0
        self.assert_summary(out, [baseline, run_dir])

    def test_metrics_json_keys(self, trained_run, tmp_path):
        data, run_dir = trained_run
        out = tmp_path / "eval"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--out", str(out)]) == 0
        for directory in (run_dir, out):
            doc = json.loads((directory / "metrics.json").read_text())
            assert set(doc) == METRICS_KEYS
            for table in ("source_variance", "target_variance", "mean_shift", "tp_ratio"):
                assert "avg" in doc[table]


class TestManifest:
    """``manifest.json`` lists exactly the files beside it and the hash the command used."""

    def assert_manifest(self, out, command, cfg_hash):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == sorted(set(os.listdir(out)) - {"manifest.json"})
        assert manifest["command"] == command
        assert manifest["config_hash"] == cfg_hash

    def test_gen(self, tmp_path, config_path):
        out = tmp_path / "data"
        out.mkdir()
        assert run(["gen", "--config", config_path, "--out", str(out), "--seed", "5"]) == 0
        doc = cli.effective_config_doc(SMALL_CONFIG, 5, "gen")
        self.assert_manifest(out, "gen", cli.config_hash(doc))

    def test_train(self, trained_run):
        _, out = trained_run
        cfg_hash = cli.config_hash(cli.effective_config_doc(SMALL_CONFIG, None, "train"))
        assert json.loads((out / "checkpoint.json").read_text())["config_hash"] == cfg_hash
        self.assert_manifest(out, "train", cfg_hash)

    def test_eval(self, trained_run, tmp_path):
        data, run_dir = trained_run
        checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
        checkpoint["config_hash"] = "hash-of-another-config"
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(checkpoint))
        out = tmp_path / "eval"
        out.mkdir()
        assert run(["eval", "--checkpoint", str(path), "--data", str(data),
                    "--out", str(out)]) == 0
        self.assert_manifest(out, "eval", "hash-of-another-config")

    def test_report(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = tmp_path / "report"
        out.mkdir()
        assert run(["report", str(run_dir), "--out", str(out)]) == 0
        self.assert_manifest(out, "report", "")


class TestConfigHash:
    def test_hash_is_canonical(self):
        a = {"trainer": {"seed": 1}, "benchmark": {}}
        b = {"benchmark": {}, "trainer": {"seed": 1}}
        assert cli.config_hash(a) == cli.config_hash(b)

    def test_seed_override_changes_hash(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        base = cli.config_hash(cli.effective_config_doc(doc, None, "train"))
        overridden = cli.config_hash(cli.effective_config_doc(doc, 42, "train"))
        assert base != overridden



class TestConfigParsing:
    """Config documents resolve through the dataclasses, defaults and errors included."""

    @pytest.mark.parametrize("command, section, key, value", [
        ("gen", "benchmark", "class_count", "8"),
        ("gen", "benchmark", "samples_per_class", 2.5),
        ("gen", "benchmark", "seed", "x"),
        ("train", "trainer", "steps", 2.5),
        ("train", "trainer", "batch_size", 3.5),
        ("train", "trainer", "seed", "x"),
        ("train", "ablation", "enable_pce", "false"),
        ("train", "ablation", "enable_adversarial", "no"),
        ("train", "trainer", "steps", True),
        ("train", "trainer", "tau", True),
        ("train", "trainer", "lambda_dis", True),
        ("train", "trainer", "lambda_unsup", "1"),
        ("gen", "benchmark", "source_std", True),
        ("train", "trainer", "tau", "0.05"),
        ("gen", "benchmark", "source_std", "1.0"),
        ("gen", "benchmark", "target_mean_shift", "1.5"),
        ("gen", "benchmark", "target_mean_shift", None),
        ("gen", "benchmark", "target_mean_shift", [[1.5] * 8] * 3 + [[1.5] * 7 + ["x"]]),
        ("gen", "benchmark", "source_means", [[0.0] * 8] * 3 + [[0.0] * 7 + ["x"]]),
        ("gen", "benchmark", "source_means", [[0.0] * 8] * 3 + [[0.0] * 7 + [True]]),
        ("gen", "benchmark", "source_means", [[0.0] * 8] * 3 + [[0.0] * 7]),
        ("gen", "benchmark", "source_means", functools.reduce(lambda v, _: [v], range(100), 0.0)),
    ])
    def test_wrong_value_type_fails_with_one_line(self, tmp_path, capsys,
                                                  command, section, key, value):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "train":
            argv += ["--data", str(tmp_path / "unused")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ")
        assert err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("overrides, key", [
        ({"class_count": 2, "dim": 2, "source_means": [[math.nan, 0.0], [0.0, 0.0]]},
         "source_means"),
        ({"class_count": 2, "dim": 2, "target_mean_shift": [[math.inf, 0.0], [0.0, 0.0]]},
         "target_mean_shift"),
        ({"source_std": 1e308}, "source_std"),
        ({"target_std_multiplier": 1e308}, "target_std_multiplier"),
    ])
    def test_invalid_spec_fails_with_one_line_and_no_output(self, tmp_path, capsys,
                                                            overrides, key):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["benchmark"].update(overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gen", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidSpec: ") and key in err
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command, section, key, error", [
        ("gen", "benchmark", "samples_per_class", "InvalidSpec"),
        ("train", "trainer", "feature_dim", "ConfigError"),
        ("train", "trainer", "batch_size", "ConfigError"),
    ])
    def test_count_past_its_bound_fails_with_one_line(self, tmp_path, capsys,
                                                      command, section, key, error):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc[section][key] = 10 ** 20
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "train":
            argv += ["--data", str(tmp_path / "unused")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and key in err and "must lie in [1, 1e" in err
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    def test_memory_error_fails_with_one_line(self, tmp_path, config_path, capsys,
                                              monkeypatch):
        class _ArrayMemoryError(MemoryError):  # the name of numpy's subclass
            pass

        def generate(spec):
            raise _ArrayMemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli, "generate", generate)
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gen", "--config", config_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 8.00 TiB for an array\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_missing_out_dir_is_reported_before_a_bad_config(self, tmp_path, capsys,
                                                             command):
        path = tmp_path / "bad.json"
        path.write_text("{")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "nope")]
        if command == "train":
            argv += ["--data", str(tmp_path / "unused")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IoError: output directory does not exist: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [("gen", "--config"), ("eval", "--checkpoint")])
    def test_deeply_nested_json_fails_with_one_line(self, tmp_path, capsys, command, flag):
        path = tmp_path / "deep.json"
        path.write_text('{"benchmark": {"source_means": ' + "[" * 1000 + "1" + "]" * 1000 + "}}")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, flag, str(path), "--out", str(out)]
        if command == "eval":
            argv += ["--data", str(tmp_path / "unused")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, error", [("gen", "InvalidSpec"), ("train", "ConfigError")])
    def test_negative_seed_fails_with_one_line(self, tmp_path, config_path, capsys,
                                               command, error):
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", config_path, "--out", str(out), "--seed", "-1"]
        if command == "train":
            argv += ["--data", str(tmp_path / "unused")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "seed" in err
        assert err.count("\n") == 1

    def load(self, name):
        return cli.load_config(os.path.join(CONFIG_DIR, name))

    def test_default_config_is_trainer_defaults(self):
        assert cli.trainer_from_config(self.load("default.json")) == TrainerConfig()

    def test_baseline_config_is_baseline_of_defaults(self):
        assert (cli.trainer_from_config(self.load("baseline.json"))
                == experiment.baseline_config(TrainerConfig()))

    def test_default_config_is_spec_defaults(self):
        spec = cli.spec_from_config(self.load("default.json"))
        for f in fields(DomainShiftSpec):
            assert getattr(spec, f.name) == getattr(DomainShiftSpec(), f.name), f.name


class TestTrainSizeChecks:
    """``train`` checks the sizes its evaluation needs before it trains."""

    CASES = {
        "2 classes x 5 samples": ("benchmark", {"class_count": 2, "samples_per_class": 5},
                                  "InsufficientSamples: need >= 20 samples per domain, "
                                  "got 10 and 10"),
        "feature_dim 1": ("trainer", {"feature_dim": 1},
                          "InsufficientSamples: need 2-D data with dim >= 2, got shape (200, 1)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_and_no_training(self, tmp_path, monkeypatch, capsys, case):
        section, overrides, message = self.CASES[case]
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc[section].update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        data, out = tmp_path / "data", tmp_path / "run"
        data.mkdir()
        out.mkdir()
        assert run(["gen", "--config", str(path), "--out", str(data)]) == 0

        def no_training(*args):
            raise AssertionError("train ran a schedule its evaluation cannot use")

        monkeypatch.setattr(cli.adapt, "run_experiment", no_training)
        capsys.readouterr()
        assert run(["train", "--config", str(path), "--data", str(data),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(out) == []
