"""``tools/bench_pairs.py``'s pure functions: seed lists, quartiles, the pair summary and
the progress line.

The tool is a script, not a module of the package, so it is loaded by path. Nothing
here runs perfbench or starts a process.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# each end-to-end metric's better direction, as the tool reads it
BETTER = {metric["name"]: metric["better"]
          for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def pair(parent: dict, change: dict) -> dict:
    return {"parent": parent, "change": change}


def test_seed_list():
    assert bench_pairs.seed_list("16-18,40") == [16, 17, 18, 40]


def test_seed_list_single_seeds_and_empty_parts():
    assert bench_pairs.seed_list("3,,5") == [3, 5]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0,
                                                                 "q3": 4.0}


class TestSummarize:
    PAIRS = [
        pair({"adapt_steps_per_s": 100.0, "eval_s": 1.0, "operations": 7},
             {"adapt_steps_per_s": 110.0, "eval_s": 0.9, "operations": 9}),
        pair({"adapt_steps_per_s": 120.0, "eval_s": 1.2, "operations": 7},
             {"adapt_steps_per_s": 115.0, "eval_s": 1.3, "operations": 9}),
        pair({"adapt_steps_per_s": 110.0, "eval_s": 1.1, "operations": 7},
             {"adapt_steps_per_s": 130.0, "eval_s": 1.0, "operations": 9}),
    ]

    def test_directions_come_from_the_benchmark(self):
        assert BETTER["adapt_steps_per_s"] == "higher" and BETTER["eval_s"] == "lower"

    def test_wins_counted_in_each_metrics_direction(self):
        summary = bench_pairs.summarize(self.PAIRS, BETTER)
        # more steps/s wins in pairs 1 and 3; less eval time wins in pairs 1 and 3
        assert summary["adapt_steps_per_s"]["change_better_in"] == "2 of 3 pairs"
        assert summary["eval_s"]["change_better_in"] == "2 of 3 pairs"

    def test_operations_skipped(self):
        assert "operations" not in bench_pairs.summarize(self.PAIRS, BETTER)

    def test_medians_and_their_shift(self):
        entry = bench_pairs.summarize(self.PAIRS, BETTER)["adapt_steps_per_s"]
        assert entry["parent"] == {"q1": 105.0, "median": 110.0, "q3": 115.0}
        assert entry["change"]["median"] == 115.0
        assert entry["median_change_pct"] == pytest.approx(100.0 * 5.0 / 110.0)
        assert entry["median_diff_over_parent_iqr"] == pytest.approx(0.5)

    def test_zero_parent_spread_gives_no_ratio(self):
        pairs = [pair({"eval_s": 1.0}, {"eval_s": 0.5}), pair({"eval_s": 1.0}, {"eval_s": 0.6})]
        entry = bench_pairs.summarize(pairs, BETTER)["eval_s"]
        assert entry["median_diff_over_parent_iqr"] is None
        assert entry["change_better_in"] == "2 of 2 pairs"

    def test_unlisted_metric_counts_lower_as_better(self):
        pairs = [pair({"op_error_rate": 0.1}, {"op_error_rate": 0.0})]
        assert bench_pairs.summarize(pairs, {})["op_error_rate"]["change_better_in"] == \
            "1 of 1 pairs"


class TestRunLength:
    """``--seconds`` defaults to the change's ``run_seconds``; no perfbench run starts."""

    @pytest.fixture()
    def runs(self, tmp_path, monkeypatch):
        declared = {"run_seconds": 7, "end_to_end": [{"name": "adapt_steps_per_s", "unit": "1/s",
                                                      "better": "higher"}]}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
        calls = []

        def run_once(root, workload, seed, seconds):
            calls.append(seconds)
            return {"adapt_steps_per_s": 100.0}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)

        def main(*extra):
            out = tmp_path / "pairs.json"
            assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                                     "--workload", "w", "--seeds", "1", "--out", str(out),
                                     *extra]) == 0
            return calls, json.loads(out.read_text())["command"]
        return main

    def test_default_is_run_seconds(self, runs):
        calls, command = runs()
        assert calls == [7.0, 7.0]
        assert "--seconds 7 " in command

    def test_flag_overrides(self, runs):
        calls, command = runs("--seconds", "20")
        assert calls == [20.0, 20.0]
        assert "--seconds 20 " in command


class TestProgressLine:
    """Each pair prints both sides' declared end-to-end metrics; no perfbench run starts."""

    @pytest.fixture()
    def printed(self, tmp_path, monkeypatch, capsys):
        parent, change = tmp_path / "parent", tmp_path / "change"
        for root in (parent, change):
            root.mkdir()
        (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())

        def run_once(root, workload, seed, seconds):
            # the parent reports 1, 2, ... and the change 10, 20, ... in declared order
            scale = 10.0 if root == change.resolve() else 1.0
            return {**{name: scale * (i + 1) for i, name in enumerate(BETTER)},
                    "op_error_rate": 0.0, "operations": 3}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--workload", "eval_large", "--seeds", "4-5",
                                 "--seconds", "1", "--out", str(tmp_path / "pairs.json")]) == 0
        return capsys.readouterr().out.splitlines()

    def test_one_line_per_pair(self, printed):
        assert [line.split(":")[0] for line in printed] == ["eval_large seed 4",
                                                           "eval_large seed 5"]

    def test_every_declared_metric_in_declared_order(self, printed):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        expected = ", ".join(f"{metric['name']} {i + 1:g} -> {10 * (i + 1):g} {metric['unit']}"
                             for i, metric in enumerate(declared))
        assert printed[0] == f"eval_large seed 4: {expected}"

    def test_parent_first_whichever_side_ran_first(self, printed):
        assert printed[1].split(": ", 1)[1] == printed[0].split(": ", 1)[1]


class TestWorkloadList:
    """``--workload A,B`` runs A's pairs, then B's, into one ``--out``; no perfbench run
    starts."""

    @pytest.fixture()
    def result(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        runs = []

        def run_once(root, workload, seed, seconds):
            runs.append((workload, seed))
            return {"adapt_steps_per_s": 100.0 + seed, "op_error_rate": 0.0}, {"threads": 1}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "pairs.json"
        assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                                 "--workload", "adapt_default,eval_large", "--seeds", "1-2",
                                 "--held-out", "9", "--seconds", "1", "--out", str(out)]) == 0
        return runs, json.loads(out.read_text()), capsys.readouterr().out.splitlines()

    def test_each_workload_in_turn_pairs_then_held_out(self, result):
        runs, _, printed = result
        expected = [(workload, seed) for workload in ("adapt_default", "eval_large")
                    for seed in (1, 2, 9)]
        assert runs[::2] == runs[1::2] == expected
        assert [line.split(":")[0] for line in printed] == [f"{w} seed {s}" for w, s in expected]

    def test_one_file_holds_every_workload(self, result):
        _, doc, _ = result
        for workload in ("adapt_default", "eval_large"):
            assert [pair["seed"] for pair in doc["pairs"][workload]] == [1, 2]
            assert [pair["seed"] for pair in doc["held_out_pairs"][workload]] == [9]
            assert doc["pairs_summary"][workload]["adapt_steps_per_s"]["change_better_in"] == \
                "0 of 2 pairs"

    def test_a_rerun_adds_only_the_missing_workload(self, tmp_path, result, monkeypatch):
        runs, _, _ = result
        runs.clear()
        assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                                 "--workload", "eval_large,adapt_baseline", "--seeds", "1-2",
                                 "--seconds", "1", "--out", str(tmp_path / "pairs.json")]) == 0
        assert runs == [("adapt_baseline", 1)] * 2 + [("adapt_baseline", 2)] * 2
        doc = json.loads((tmp_path / "pairs.json").read_text())
        assert sorted(doc["pairs"]) == ["adapt_baseline", "adapt_default", "eval_large"]
