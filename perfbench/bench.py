"""Workloads, output checks and metrics of the pacf benchmark (entry point: run.py).

Every workload runs in its own process, single-threaded, as a closed loop:
each operation starts when the previous one ends. The run is cut into
rounds; each round sets up afresh and then runs operations for its share of
``--seconds``. A workload's config is one of the repository's ``configs/``,
with the sample count and step count set here. The seed picks one of
``REF_SLOTS`` input slots; a slot fixes the synthetic data seed and the
trainer seed, and the program receives only the generated dumps. Each
operation's output is compared with the reference stored for its slot in
``references.json``.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced operations and reports the per-layer
metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pacf import adapt, cli, experiment, synthbench

import tracing

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR.parent / "configs"
WORK_ROOT = BENCH_DIR.parent / ".perfbench_work"
REFERENCES = BENCH_DIR / "references.json"
REF_SLOTS = 32
# Reordering the float sums of a training run moved its final report by
# ~1e-15 relative; these tolerances leave room for that and catch real changes.
REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    config: str  # file name under the repository's configs/
    samples_per_class: int
    setup_reps: int
    evaluates_checkpoint: bool  # the operation is `pacf eval` of a checkpoint trained in set-up


WORKLOADS = {
    "adapt_default": Workload("default.json", 200, 7, False),
    "adapt_baseline": Workload("baseline.json", 200, 7, False),
    "eval_large": Workload("default.json", 800, 6, True),
}

# Adaptation steps of one training, in place of the configs' 4,000: enough
# for a 99th percentile with ten steps beyond it, few enough that a run holds
# a dozen trainings. The per-step cost does not depend on the schedule.
STEPS = 1000

# `--scale smoke` shrinks every workload to milliseconds per operation.
SMOKE_SAMPLES_PER_CLASS = 40
SMOKE_SETUP_REPS = 2
SMOKE_TRAINER = {"warmup_steps": 40, "steps": 100, "feature_dim": 16}


def config_doc(workload: str, scale: str, slot: int) -> dict:
    """The config document of one workload, scale and input slot."""
    spec = WORKLOADS[workload]
    doc = json.loads((CONFIG_DIR / spec.config).read_text())
    doc["benchmark"]["samples_per_class"] = spec.samples_per_class
    doc["trainer"]["steps"] = STEPS
    if scale == "smoke":
        doc["benchmark"]["samples_per_class"] = SMOKE_SAMPLES_PER_CLASS
        doc["trainer"].update(SMOKE_TRAINER)
    doc["benchmark"]["seed"] = 100 + slot
    doc["trainer"]["seed"] = slot
    return doc


def setup_reps(workload: str, scale: str) -> int:
    return SMOKE_SETUP_REPS if scale == "smoke" else WORKLOADS[workload].setup_reps


@dataclass
class Inputs:
    source: synthbench.LabeledBatch
    target: np.ndarray
    hidden: np.ndarray  # evaluation only; training never sees it
    config: adapt.TrainerConfig
    config_hash: str
    data_dir: Path


@dataclass
class TrainTiming:
    run_s: float          # init_state through the last train_step
    step_s: list[float]   # each adaptation step


@dataclass
class OpResult:
    seconds: float
    eval_s: float
    train: TrainTiming | None
    output: dict


def set_up(doc: dict, workdir: Path) -> Inputs:
    """`pacf gen` the dumps of ``doc``, then load them back as the program's inputs."""
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    data_dir = workdir / "data"
    data_dir.mkdir(exist_ok=True)
    if cli.main(["gen", "--config", str(config_path), "--out", str(data_dir)]) != 0:
        raise RuntimeError("pacf gen failed")
    source = synthbench.load_dump(data_dir / cli.SOURCE_FILE)
    target = synthbench.load_dump(data_dir / cli.TARGET_FILE).features
    hidden = synthbench.load_dump(data_dir / cli.HIDDEN_FILE).labels
    return Inputs(source, target, hidden, cli.trainer_from_config(doc), cli.config_hash(doc),
                  data_dir)


def dump_bytes(inputs: Inputs) -> int:
    return sum(path.stat().st_size for path in inputs.data_dir.glob("*.csv"))


def train(inputs: Inputs) -> tuple[adapt.AdaptationState, TrainTiming]:
    """init_state -> warmup_run -> initialize_from_warmup -> train_step x steps."""
    config, source, target = inputs.config, inputs.source, inputs.target
    step_s = []
    start = time.perf_counter()
    state = adapt.init_state(config, source.dim, int(source.labels.max()) + 1)
    state, _ = adapt.warmup_run(state, source, target, config)
    state = adapt.initialize_from_warmup(state, source, target, config)
    for _ in range(config.steps):
        t = time.perf_counter()
        state, _ = adapt.train_step(state, source, target, config)
        step_s.append(time.perf_counter() - t)
    end = time.perf_counter()
    return state, TrainTiming(end - start, step_s)


def write_checkpoint(state: adapt.AdaptationState, inputs: Inputs, workdir: Path) -> Path:
    path = workdir / "checkpoint.json"
    doc = adapt.checkpoint_to_json_dict(state, inputs.config, inputs.config_hash)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def adapt_op(inputs: Inputs) -> OpResult:
    """One complete train, then the diagnostic evaluation of its result."""
    start = time.perf_counter()
    state, timing = train(inputs)
    eval_start = time.perf_counter()
    evaluation = experiment.evaluate_state(state, inputs.config, inputs.source, inputs.target,
                                           inputs.hidden)
    end = time.perf_counter()
    return OpResult(end - start, end - eval_start, timing, evaluation.report.to_json_dict())


def eval_op(inputs: Inputs, checkpoint: Path, out_dir: Path) -> OpResult:
    """`pacf eval` of the set-up checkpoint against the dumps; output is its metrics.json."""
    start = time.perf_counter()
    code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(inputs.data_dir),
                     "--out", str(out_dir)])
    end = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"pacf eval exited with {code}")
    output = json.loads((out_dir / "metrics.json").read_text())
    return OpResult(end - start, end - start, None, output)


def mismatches(output, reference, path: str = "") -> list[str]:
    """Where ``output`` differs from ``reference``; floats match within REL_TOL/ABS_TOL."""
    if isinstance(reference, dict):
        if not isinstance(output, dict) or set(output) != set(reference):
            return [f"{path or '/'}: keys differ"]
        return [m for key in sorted(reference)
                for m in mismatches(output[key], reference[key], f"{path}/{key}")]
    numbers = (int, float)
    if (isinstance(reference, float) and isinstance(output, numbers)
            and not isinstance(output, bool)):
        if math.isclose(output, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(output) is type(reference) and output == reference:
        return []
    return [f"{path}: {output!r} != {reference!r}"]


def same_final_state(inputs: Inputs) -> bool:
    """Whether :func:`train` ends in the state ``adapt.run_experiment`` reaches, bitwise."""
    ours, _ = train(inputs)
    theirs = adapt.run_experiment(inputs.source, inputs.target, inputs.config).state

    def arrays(state):
        yield from state.student.as_dict().values()
        yield from state.teacher.as_dict().values()
        for pset in (state.src_protos, state.tgt_protos):
            yield np.asarray(pset.initialized_classes())
            yield from (pset.get(k) for k in pset.initialized_classes())

    return ours.step == theirs.step and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(arrays(ours), arrays(theirs)))


def environment(thread_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }


def run_workload(args, workdir: Path) -> dict:
    spec = WORKLOADS[args.workload]
    slot = args.seed % REF_SLOTS
    doc = config_doc(args.workload, args.scale, slot)
    reference = json.loads(REFERENCES.read_text())[args.scale][args.workload][str(slot)]
    tracer = tracing.Tracer() if args.trace else None
    print(f"workload {args.workload} seed {args.seed} slot {slot} scale {args.scale} "
          f"trace {args.trace}")

    # The run is cut into rounds, one per set-up, so that the set-ups (and on
    # eval_large the set-up trainings) are spread over the run's spells of
    # host speed instead of all falling at its start.
    rounds = setup_reps(args.workload, args.scale)
    setup_s, setup_train, setup_bytes = [], [], []
    results: list[tuple[bool, OpResult]] = []
    attempted = failed = 0
    out_dir = workdir / "eval"
    out_dir.mkdir()
    op_s = 0.0  # time spent in operations so far
    for round_no in range(1, rounds + 1):
        with tracer or nullcontext():
            start = time.perf_counter()
            inputs = set_up(doc, workdir)
            if spec.evaluates_checkpoint:
                state, timing = train(inputs)
                checkpoint = write_checkpoint(state, inputs, workdir)
                setup_train.append(timing)
            setup_s.append(time.perf_counter() - start)
        setup_bytes.append(dump_bytes(inputs))

        round_ops = 0
        while round_ops < 1 or op_s < args.seconds * round_no / rounds:
            # Traced and untraced operations alternate, and each kind opens
            # every other round: the first operation after a traced set-up
            # can run slower, so that place must not always go to one kind.
            traced = bool(args.trace) and (round_ops + round_no) % 2 == 1
            attempted += 1
            round_ops += 1
            start = time.perf_counter()
            try:
                with tracer if traced else nullcontext():
                    if spec.evaluates_checkpoint:
                        result = eval_op(inputs, checkpoint, out_dir)
                    else:
                        result = adapt_op(inputs)
            except Exception:  # an operation that raises counts as failed; keep measuring
                traceback.print_exc()
                failed += 1
                continue
            finally:
                op_s += time.perf_counter() - start
            wrong = mismatches(result.output, reference)
            if wrong:
                failed += 1
                print(f"output check failed: {'; '.join(wrong[:5])}", file=sys.stderr)
            results.append((traced, result))
    if not results:
        raise RuntimeError("no operation completed")

    untraced = [r for traced, r in results if not traced]
    notes = {}
    if args.trace:
        traced_ops = [r for traced, r in results if traced]
        untraced_s = min(r.seconds for r in untraced)
        traced_s = min(r.seconds for r in traced_ops)
        metrics = tracing.layer_metrics(tracer)
        metrics["synthbench.dump_bytes"] = (statistics.median(setup_bytes), "B")
        metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
        notes["trace.overhead_pct"] = (f"fastest operation {traced_s:.4f} s of {len(traced_ops)} "
                                       f"traced, {untraced_s:.4f} s of {len(untraced)} untraced")
        parts = sum(metrics[m][0] for m in tracing.STEP_LAYERS)
        print(f"step check: layer self times sum to {parts!r} ms, traced step "
              f"{metrics['adapt.step_ms'][0]!r} ms")
        print("traced samples " + json.dumps(tracing.sample_counts(tracer)))
    else:
        if spec.evaluates_checkpoint:  # the only training is the set-up's
            timings, runs, train_from = setup_train, [t.run_s for t in setup_train], "set-ups"
        else:
            timings = [r.train for r in untraced]
            runs, train_from = [r.seconds for r in untraced], "operations"
        # The host's speed flips between a fast and a slow mode, about 1.6x
        # apart, for seconds to minutes at a time. Interference only adds
        # time, so the best operation tracks the undisturbed cost, while a
        # median over operations flips with the share of the run spent in the
        # slow mode. Each step statistic is taken over one whole training.
        step_ms = [np.asarray(t.step_s) * 1e3 for t in timings]
        evaluations = [r.eval_s for r in untraced]
        metrics = {
            "setup_s": (min(setup_s), "s"),
            "train_run_s": (min(runs), "s"),
            "adapt_steps_per_s": (max(len(ms) / ms.sum() * 1e3 for ms in step_ms), "1/s"),
            "adapt_step_ms_p50": (min(np.percentile(ms, 50) for ms in step_ms), "ms"),
            "adapt_step_ms_p99": (min(np.percentile(ms, 99) for ms in step_ms), "ms"),
            "eval_s": (min(evaluations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {name: (float(value), unit) for name, (value, unit) in metrics.items()}
        steps = (f"the best of {len(step_ms)} {train_from}, each over its "
                 f"{len(step_ms[0])} adaptation steps")
        notes = {
            "setup_s": (f"fastest of {len(setup_s)} set-ups; "
                        f"median {statistics.median(setup_s):.4f} s"),
            "train_run_s": f"fastest of {len(runs)} {train_from}; median {statistics.median(runs):.4f} s",
            "adapt_steps_per_s": steps,
            "adapt_step_ms_p50": steps,
            "adapt_step_ms_p99": steps,
            "eval_s": (f"fastest of {len(evaluations)} evaluations; "
                       f"median {statistics.median(evaluations):.4f} s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"op_error_rate = {failed / attempted!r} ratio  "
          f"({failed} of {attempted} operations failed or gave wrong output)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv, thread_vars) -> int:
    args = parse_args(argv)
    print("env " + json.dumps(environment(thread_vars), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT))
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0
