"""Command-line entry point.

    pacf gen    --config cfg.json --out DIR [--seed N]
    pacf train  --config cfg.json --data DIR --out DIR [--seed N]
    pacf eval   --checkpoint FILE --data DIR --out DIR
    pacf report RUNDIR [RUNDIR ...] --out DIR

Commands are idempotent: identical inputs produce byte-identical outputs
(sorted JSON keys, full-precision floats, no timestamps). Every error exits
with code 1 after printing one machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import fields

import numpy as np

from . import adapt, metrics
from .errors import ConfigError, IoError, MissingArtifact, PacfError, ParseError
from .experiment import EvalResult, evaluate_state
from .losses import LossWeights
from .svg import Panel, scatter_svg
from .synthbench import (MIRROR_SUFFIX, DomainShiftSpec, LabeledBatch, format_column, generate,
                         load_dump, load_relabeled, parse_finite, parse_int64, read_csv,
                         save_dump, save_mirror, save_relabeled, write_csv, write_text)

SOURCE_FILE = "source.csv"
TARGET_FILE = "target.csv"
HIDDEN_FILE = "target_hidden.csv"
_SCATTER_HEADER = ["linear_score", "prototype_cosine"]
_PROJECTION_HEADER = ["x", "y", "label"]
# <stem>_comparison.csv: the MetricsReport per-class table it compares, its column prefix
_COMPARISONS = {"variance_source": ("source_variance", "variance"),
                "variance_target": ("target_variance", "variance"),
                "mean_shift": ("mean_shift", "shift"), "tp_ratio": ("tp_ratio", "tp")}

_ABLATION_KEYS = {"enable_pce", "regularizer", "enable_adversarial"}
_BENCH_KEYS = {f.name for f in fields(DomainShiftSpec)}
_TRAINER_KEYS = ({f.name for f in fields(adapt.TrainerConfig)} - {"weights"} - _ABLATION_KEYS
                 | {f.name for f in fields(LossWeights)})
_TOP_KEYS = {"benchmark", "trainer", "ablation"}
# a source label k asks for k + 1 classes, which DomainShiftSpec's class_count rule bounds
_CLASS_COUNT = next(f.metadata for f in fields(DomainShiftSpec) if f.name == "class_count")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from exc


def load_config(path: str) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, path)
    _reject_unknown(doc.get("benchmark", {}), _BENCH_KEYS, f"{path} benchmark")
    _reject_unknown(doc.get("trainer", {}), _TRAINER_KEYS, f"{path} trainer")
    _reject_unknown(doc.get("ablation", {}), _ABLATION_KEYS, f"{path} ablation")
    return doc


def _reject_unknown(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    """Content hash of the canonicalized (effective) config document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def spec_from_config(doc: dict) -> DomainShiftSpec:
    try:
        return DomainShiftSpec(**doc.get("benchmark", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad benchmark config: {exc}") from exc


def trainer_from_config(doc: dict) -> adapt.TrainerConfig:
    try:
        return adapt.TrainerConfig.from_json_dict({**doc.get("trainer", {}),
                                                   **doc.get("ablation", {})})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad trainer config: {exc}") from exc


def effective_config_doc(doc: dict, seed: int | None, command: str) -> dict:
    """The config as actually used (the ``--seed`` override applied); input for the hash."""
    effective = json.loads(canonical_json(doc))  # deep copy with plain types
    if seed is not None:
        if command == "gen":
            effective.setdefault("benchmark", {})["seed"] = seed
        else:
            effective.setdefault("trainer", {})["seed"] = seed
    return effective


class OutDir:
    """An existing output directory. ``out(name)`` is the path of artifact ``name``, and
    records the name for the manifest that :func:`main` writes last."""

    def __init__(self, path: str):
        if not os.path.isdir(path):
            raise IoError(f"output directory does not exist: {path}")
        self.path, self.files = path, set()

    def __call__(self, name: str) -> str:
        self.files.add(name)
        return os.path.join(self.path, name)


def _write_json(path: str, doc) -> None:
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# --- commands: each writes its artifacts through ``out`` and returns its config hash ---

def cmd_gen(args, out: OutDir) -> str:
    doc = load_config(args.config)
    effective = effective_config_doc(doc, args.seed, "gen")
    spec = spec_from_config(effective)
    pair = generate(spec)
    n_t = len(pair.target_features)
    target = LabeledBatch(pair.target_features, np.full(n_t, -1, dtype=np.int64),
                          np.full(n_t, -1.0))
    for name, batch in ((SOURCE_FILE, pair.source), (TARGET_FILE, target)):
        save_dump(batch, out(name))
        save_mirror(batch, out(name), out(name + MIRROR_SUFFIX))
    save_relabeled(out(HIDDEN_FILE), out(TARGET_FILE), pair.target_hidden_labels)
    return config_hash(effective)


def _load_data_dir(data_dir: str) -> tuple[LabeledBatch, np.ndarray, np.ndarray | None]:
    source_path = os.path.join(data_dir, SOURCE_FILE)
    source = load_dump(source_path)
    bad = np.flatnonzero(~_CLASS_COUNT["contains"](source.labels + 1.0))
    if len(bad):
        raise ParseError(f"{source_path}: data row {bad[0] + 1} has label {source.labels[bad[0]]}"
                         f"; every source row needs a known class k, with k + 1 in "
                         f"class_count's range {_CLASS_COUNT['interval']}")
    target_path = os.path.join(data_dir, TARGET_FILE)
    target = load_dump(target_path)
    hidden_path = os.path.join(data_dir, HIDDEN_FILE)
    hidden = None
    if os.path.exists(hidden_path):
        hidden = load_relabeled(hidden_path, target_path, target).labels
        if len(hidden) != len(target.labels):
            raise ParseError(f"{hidden_path} has {len(hidden)} data rows, but {target_path} "
                             f"has {len(target.labels)}")
        top = source.labels.max()
        bad = np.flatnonzero((hidden < -1) | (hidden > top))
        if len(bad):
            raise ParseError(f"{hidden_path}: data row {bad[0] + 1} has label {hidden[bad[0]]}"
                             f"; a hidden label is -1 (unknown) or a source class from 0 "
                             f"to {top}")
    return source, target.features, hidden


def _class_columns(tables: list[dict[int, float]]) -> list[list]:
    """A class column ending in ``avg.``, then each table's values and class average."""
    classes = sorted(set().union(*tables))
    return [[*classes, "avg."]] + [[table.get(k, math.nan) for k in classes]
                                   + [metrics.class_average(table)] for table in tables]


def _write_eval_artifacts(out: OutDir, evaluation: EvalResult, cfg_hash: str) -> None:
    report = evaluation.report
    doc = report.to_json_dict()
    doc["config_hash"] = cfg_hash
    _write_json(out("metrics.json"), doc)
    write_csv(out("metrics_variance.csv"), ["class", "source", "target"],
              _class_columns([report.source_variance, report.target_variance]))
    write_csv(out("metrics_mean_shift.csv"), ["class", "mean_shift"],
              _class_columns([report.mean_shift]))
    write_csv(out("metrics_tp_ratio.csv"), ["class", "tp_ratio"],
              _class_columns([report.tp_ratio]))
    write_csv(out("rank_scatter.csv"), _SCATTER_HEADER,
              [evaluation.linear_scores, evaluation.prototype_cosines])
    write_csv(out("projection.csv"), _PROJECTION_HEADER,
              [*evaluation.projection.T, evaluation.projection_labels])


def cmd_train(args, out: OutDir) -> str:
    doc = load_config(args.config)
    effective = effective_config_doc(doc, args.seed, "train")
    config = trainer_from_config(effective)
    cfg_hash = config_hash(effective)
    source, target, hidden = _load_data_dir(args.data)
    metrics.check_evaluable(len(source), len(target), config.feature_dim)  # before training
    # a diverging run ends in one Diverged line; numpy's overflow warnings on
    # the way there would only add lines before it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = adapt.run_experiment(source, target, config)
    evaluation = evaluate_state(result.state, config, source, target, hidden)

    _write_json(out("checkpoint.json"),
                adapt.checkpoint_to_json_dict(result.state, config, cfg_hash))
    records = result.warmup_records + result.records
    names = [f.name for f in fields(adapt.StepRecord)]
    write_csv(out("losses.csv"), names,
              [[getattr(record, name) for record in records] for name in names])
    _write_json(out("config.json"), effective)
    _write_eval_artifacts(out, evaluation, cfg_hash)
    return cfg_hash


def cmd_eval(args, out: OutDir) -> str:
    state, config, cfg_hash = adapt.state_from_checkpoint(_read_json(args.checkpoint),
                                                          args.checkpoint)
    source, target, hidden = _load_data_dir(args.data)
    _write_eval_artifacts(out, evaluate_state(state, config, source, target, hidden), cfg_hash)
    return cfg_hash


def _require_artifact(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise MissingArtifact(path)
    return path


def _read_scatter_row(cells: list[str]) -> list[float]:
    # an empty cell is a non-finite score; its row is not plotted
    return [float(cell) if cell else math.nan for cell in cells]


def _read_projection_row(cells: list[str]) -> tuple[tuple[float, float], int]:
    return (parse_finite(cells[0]), parse_finite(cells[1])), parse_int64(cells[2])


def cmd_report(args, out: OutDir) -> str:
    names, reports, scatters, projections = [], [], [], []
    for run_dir in args.run_dirs:
        # no comma or line break in a CSV cell; a repeated name takes the first free suffix
        base = name = re.sub(r"[,\n\r]", "_", os.path.basename(os.path.normpath(run_dir)))
        suffix = 0
        while name in names:
            suffix += 1
            name = f"{base}_{suffix}"
        names.append(name)
        _require_artifact(run_dir, "manifest.json")  # written last: without it a run is partial
        path = _require_artifact(run_dir, "metrics.json")
        reports.append(metrics.MetricsReport.from_json_dict(_read_json(path), path))
        scatter = np.array(read_csv(_require_artifact(run_dir, "rank_scatter.csv"),
                                    lambda header: header == _SCATTER_HEADER, _read_scatter_row))
        scatters.append(scatter[np.isfinite(scatter).all(axis=1)])
        rows = read_csv(_require_artifact(run_dir, "projection.csv"),
                        lambda header: header == _PROJECTION_HEADER, _read_projection_row)
        points, labels = zip(*rows)
        projections.append((np.array(points), np.array(labels, dtype=np.int64)))

    for stem, (attr, prefix) in _COMPARISONS.items():
        columns = _class_columns([getattr(r, attr) for r in reports])
        values = np.array(columns[1:], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite delta is an empty cell
            deltas = values[1:] - values[0]
        header = ["class", *(f"{prefix}_{n}" for n in names), *(f"delta_{n}" for n in names[1:])]
        write_csv(out(f"{stem}_comparison.csv"), header, [*columns, *deltas])
    summaries = [report.summary() for report in reports]
    write_csv(out("summary_comparison.csv"), ["metric", *names],
              [list(summaries[0]), *(list(summary.values()) for summary in summaries)])

    rank_panels = []
    for name, scatter, report in zip(names, scatters, reports):
        rho, tau = format_column([report.spearman, report.kendall])
        rank_panels.append(Panel(title=name, points=scatter,
                                 annotations=(f"rho={rho}", f"tau={tau}"),
                                 x_label="linear score", y_label="prototype cosine"))
    write_text(out("rank_correlation.svg"), scatter_svg(rank_panels))

    proj_panels = [
        Panel(title=name, points=pts, classes=labels,
              x_label="pc1", y_label="pc2")
        for name, (pts, labels) in zip(names, projections)
    ]
    write_text(out("projection.svg"), scatter_svg(proj_panels))
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pacf",
                                     description="prototype-augmented feature adaptation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset pair")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="warm up, adapt, and write run artifacts")
    train.add_argument("--config", required=True)
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="recompute the metrics report for a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    report = sub.add_parser("report", help="comparison tables and SVG plots across runs")
    report.add_argument("run_dirs", nargs="+")
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = OutDir(args.out)
        cfg_hash = args.func(args, out)
        _write_json(os.path.join(out.path, "manifest.json"), {
            "command": args.command, "config_hash": cfg_hash, "files": sorted(out.files)})
        return 0
    except (PacfError, MemoryError) as exc:
        # numpy's allocation failure is a MemoryError subclass with a private name
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        message = str(exc).replace("\n", " ")
        print(f"error: {kind}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
