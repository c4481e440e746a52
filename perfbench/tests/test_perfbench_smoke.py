"""Smoke test of the benchmark itself, at tiny size (``--scale smoke``).

Runs every workload for about a second in both modes and checks the result
line: every metric BENCHMARK.json names is printed with its unit, outputs
pass their check, and a corrupted reference makes the check fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


_RUNS: dict = {}


def smoke_run(workload: str, trace: int) -> tuple[list[str], dict]:
    """One run per workload and mode, shared by the tests that read it."""
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = run_bench(workload, trace)
    return _RUNS[workload, trace]


def test_workloads_match_the_benchmark_spec():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    lines, result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} = {metric['value']!r} {metric['unit']}" in "\n".join(lines)
    assert lines[0].startswith("env ")
    assert any(line.startswith("op_error_rate = 0.0 ratio") for line in lines)


@pytest.mark.parametrize("workload", ["adapt_default", "adapt_baseline"])
def test_traced_step_splits_into_layers(workload):
    _, result = smoke_run(workload, 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    parts = sum(values[name] for name in tracing.STEP_LAYERS)
    assert parts == pytest.approx(values["adapt.step_ms"], rel=1e-9)
    assert values["prototypes.update_all_calls_per_step"] > 0
    prototype_terms = values["adapt.pce_calls_per_step"], values["adapt.mut_calls_per_step"]
    if workload == "adapt_baseline":
        assert prototype_terms == (0, 0)
    else:
        assert min(prototype_terms) > 0


@pytest.mark.parametrize("workload", ["adapt_default", "eval_large"])
def test_corrupted_reference_fails_the_output_check(workload, tmp_path, monkeypatch):
    references = json.loads(bench.REFERENCES.read_text())
    references["smoke"][workload]["0"]["proxy_a_distance"] += 1e-3
    path = tmp_path / "references.json"
    path.write_text(json.dumps(references))
    monkeypatch.setattr(bench, "REFERENCES", path)
    workdir = tmp_path / "work"
    workdir.mkdir()
    args = bench.parse_args(["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--scale", "smoke"])
    result = bench.run_workload(args, workdir)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_step_loop_matches_run_experiment(tmp_path):
    inputs = bench.set_up(bench.config_doc("adapt_default", "smoke", 0), tmp_path)
    assert bench.same_final_state(inputs)
