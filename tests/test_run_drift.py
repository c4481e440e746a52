"""``tools/run_drift.py`` on small fabricated output trees.

The tool is a script, not a module of the package, so it is loaded by path. Nothing
here trains a model or starts a process.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("run_drift", ROOT / "tools" / "run_drift.py")
run_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_drift)

METRICS = {"config_hash": "abc", "kendall_tau": 0.5, "mean_shift": {"0": 0.25, "avg": None},
           "pseudo_count": 1468}
SCATTER = "linear_score,prototype_cosine\n0.9,0.75\n0.5,\n"
SVG = "<svg>1.00</svg>\n"


def tree(root: Path, metrics=None, scatter=SCATTER, svg=SVG, **extra) -> Path:
    """A run directory with a metrics.json, a rank_scatter.csv, a plot and ``extra`` files."""
    root.mkdir()
    (root / "metrics.json").write_text(json.dumps(metrics or METRICS, sort_keys=True))
    (root / "rank_scatter.csv").write_text(scatter)
    (root / "plots").mkdir()
    (root / "plots" / "rank_correlation.svg").write_text(svg)
    for name, text in extra.items():
        (root / name).write_text(text)
    return root


def run(tmp_path, capsys, **b_edits) -> tuple[int, list[str]]:
    """The tool's exit code and output lines for the default tree against an edited one."""
    code = run_drift.main([str(tree(tmp_path / "a")), str(tree(tmp_path / "b", **b_edits))])
    return code, capsys.readouterr().out.splitlines()


def test_rel_tol_is_perfbench_s():
    # read from the source: perfbench/bench.py imports its neighbours as top-level modules
    bench = (ROOT / "perfbench" / "bench.py").read_text()
    assert float(re.search(r"^REL_TOL = (.*)$", bench, re.M).group(1)) == run_drift.REL_TOL


def test_identical_trees(tmp_path, capsys):
    code, lines = run(tmp_path, capsys)
    assert code == 0
    assert lines[:-1] == ["identical  metrics.json", "identical  plots/rank_correlation.svg",
                          "identical  rank_scatter.csv"]
    assert lines[-1].startswith("ok: 3 files")


def test_float_drift_within_rel_tol_is_reported_with_its_place(tmp_path, capsys):
    metrics = {**METRICS, "mean_shift": {"0": 0.25 * (1 + 4e-16), "avg": None}}
    code, lines = run(tmp_path, capsys, metrics=metrics,
                      scatter=SCATTER.replace("0.75", repr(0.75 * (1 + 3e-12))),
                      svg="<svg>1.01</svg>\n")
    assert code == 0
    assert lines[0].startswith("drift 4") and lines[0].endswith("metrics.json at mean_shift.0")
    assert lines[1] == "differs  plots/rank_correlation.svg"
    assert lines[2] == "drift 3e-12  rank_scatter.csv at line 2[1]"


@pytest.mark.parametrize("edits", [
    {"metrics": {**METRICS, "kendall_tau": 0.5 * (1 + 2e-6)}},
    {"scatter": SCATTER.replace("0.9", "0.91")},
    {"scatter": SCATTER.replace("0.5,", "0.5,0.1")},
], ids=["json float", "csv float", "empty cell against a number"])
def test_float_past_rel_tol_fails(tmp_path, capsys, edits):
    code, lines = run(tmp_path, capsys, **edits)
    assert code == 1
    assert any(line.startswith("DRIFT ") for line in lines)
    assert lines[-1].startswith("FAILED")


@pytest.mark.parametrize("edits, where", [
    ({"metrics": {**METRICS, "pseudo_count": 1469}}, "pseudo_count: 1468 against 1469"),
    ({"metrics": {**METRICS, "pseudo_count": 1468.0}}, "pseudo_count: 1468 against 1468.0"),
    ({"metrics": {**METRICS, "config_hash": "abd"}}, "config_hash: 'abc' against 'abd'"),
    ({"metrics": {**METRICS, "extra": 1.0}}, "document: keys ['extra'] are in one only"),
    ({"scatter": SCATTER.replace("linear_score", "score")}, "line 1[0]"),
    ({"scatter": SCATTER + "0.1,0.2\n"}, "keys ['line 4'] are in one only"),
    ({"scatter": SCATTER.replace("0.75", "0.75,1")}, "line 2: 2 entries against 3"),
    ({"extra.csv": "x\n1\n"}, "extra.csv: only in"),
    ({"metrics": None, "scatter": "\xff"}, None),
], ids=["integer", "integer against float", "text", "json key", "csv header", "csv row",
        "csv cell count", "file in one tree", "csv not UTF-8"])
def test_structure_text_or_integer_differences_fail(tmp_path, capsys, edits, where):
    b = tree(tmp_path / "b", **{k: v for k, v in edits.items() if v is not None})
    if edits.get("scatter") == "\xff":
        (b / "rank_scatter.csv").write_bytes(b"\xff\n")
    code = run_drift.main([str(tree(tmp_path / "a")), str(b)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    mismatches = [line for line in lines if line.startswith("MISMATCH  ")]
    assert len(mismatches) == 1
    assert where is None or where in mismatches[0]


def test_nan_matches_nan(tmp_path, capsys):
    # the files differ in one float each, so the nans beside it are compared too
    a = tree(tmp_path / "a", scatter="x,y\n,1.0\n")
    b = tree(tmp_path / "b", scatter="x,y\n,1.0000000000000002\n")
    (a / "metrics.json").write_text('{"kendall_tau": NaN, "avg": null, "rho": 0.5}')
    (b / "metrics.json").write_text('{"kendall_tau": NaN, "avg": null, "rho": 0.5000000000000001}')
    assert run_drift.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "drift 2.2e-16  metrics.json at rho"
    assert lines[2] == "drift 2.2e-16  rank_scatter.csv at line 2[1]"


def test_relative_difference():
    assert run_drift.relative_difference(2.0, 2.0) == 0.0
    assert run_drift.relative_difference(math.nan, math.nan) == 0.0
    assert run_drift.relative_difference(math.inf, math.inf) == 0.0
    assert run_drift.relative_difference(math.nan, 1.0) == math.inf
    assert run_drift.relative_difference(math.inf, -math.inf) == math.inf
    assert run_drift.relative_difference(1.0, 0.5) == 0.5
    assert run_drift.relative_difference(1e308, -1e308) == math.inf


def test_csv_cell():
    assert [run_drift.csv_cell(c) for c in ["3", "-4", "0.5", "1e308", "avg.", "run_1"]] \
        == [3, -4, 0.5, 1e308, "avg.", "run_1"]
    assert math.isnan(run_drift.csv_cell(""))


def test_a_missing_directory_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_drift.main([str(tree(tmp_path / "a")), str(tmp_path / "missing")])
    assert exc.value.code == 2
