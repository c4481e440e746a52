"""Regenerate the benchmark's reference outputs.

    python3 perfbench/make_references.py

For every scale, workload and input slot it runs the workload's operation
once and stores the output in ``perfbench/references.json``. For the adapt
workloads it first checks that the benchmark's step-driven training loop ends
in the same state as ``adapt.run_experiment``, bitwise, and stops if not.
Rerun it only when a change to pacf is meant to change results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    if not run.prepare():
        print(f"make_references: no pacf sources under {run.SRC_DIR}", file=sys.stderr)
        return 2
    import bench

    references: dict = {}
    bench.WORK_ROOT.mkdir(exist_ok=True)
    for scale in ("smoke", "full"):
        for workload, spec in bench.WORKLOADS.items():
            table = references.setdefault(scale, {}).setdefault(workload, {})
            for slot in range(bench.REF_SLOTS):
                workdir = Path(tempfile.mkdtemp(prefix="references-", dir=bench.WORK_ROOT))
                try:
                    inputs = bench.set_up(bench.config_doc(workload, scale, slot), workdir)
                    if spec.evaluates_checkpoint:
                        state, _ = bench.train(inputs)
                        checkpoint = bench.write_checkpoint(state, inputs, workdir)
                        out_dir = workdir / "eval"
                        out_dir.mkdir()
                        result = bench.eval_op(inputs, checkpoint, out_dir)
                    else:
                        if not bench.same_final_state(inputs):
                            print(f"{scale} {workload} slot {slot}: the step loop differs "
                                  "from adapt.run_experiment", file=sys.stderr)
                            return 1
                        result = bench.adapt_op(inputs)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                table[str(slot)] = result.output
                print(f"{scale} {workload} slot {slot}: {result.seconds:.3f} s", flush=True)
    bench.REFERENCES.write_text(json.dumps(references, sort_keys=True, indent=1) + "\n")
    try:
        bench.WORK_ROOT.rmdir()
    except OSError:  # a benchmark run still uses it
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
