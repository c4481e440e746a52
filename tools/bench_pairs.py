"""Run perfbench on two checkouts in alternating pairs and summarize the pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 16-25 [--held-out 26,27] [--seconds T] --out BENCH_N.json

Each pair runs ``python3 perfbench/run.py --workload NAME --seed S --seconds
T --trace 0`` once from the root of each checkout, one run at a time. The
side that runs first alternates from one pair to the next, starting with the
parent. T defaults to ``run_seconds`` of the change's ``BENCHMARK.json``. The
seeds of ``--seeds`` fill ``pairs[NAME]`` and those of ``--held-out`` fill
``held_out_pairs[NAME]``, run after them. After each pair one line shows
both sides' end-to-end metrics, those ``BENCHMARK.json`` declares, in its order.

``--out`` is read first if it exists, and only the blocks of NAME change:
the pair lists, ``pairs_summary[NAME]`` and ``env``. The file is written
again after every pair, and a seed already listed is not run again, so a cut
run continues where it stopped. A metric's summary holds each side's
quartiles and median over the pairs, in how many pairs the change was better
(in the direction ``BENCHMARK.json`` gives), the change of the medians in
percent, and that difference over the parent's quartile spread.

Standard library only, so that it runs wherever perfbench runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """``"16-25,40"`` -> [16, ..., 25, 40]."""
    seeds = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run from ``root``: (its metrics, the environment it reported)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {root} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["op_error_rate"] = result["failed"] / result["attempted"]
    metrics["operations"] = result["attempted"]
    return metrics, env


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the shift of the medians."""
    summary = {}
    for name in pairs[0]["parent"]:
        if name == "operations":
            continue
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        entry = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry["change_better_in"] = f"{wins} of {len(pairs)} pairs"
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["median_change_pct"] = (change / parent - 1.0) * 100.0 if parent else None
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["median_diff_over_parent_iqr"] = abs(change - parent) / spread if spread else None
        summary[name] = entry
    return summary


def pair_line(workload: str, pair: dict, end_to_end: list[dict]) -> str:
    """The progress line of ``pair``: each declared end-to-end metric the runs reported, as
    ``name parent -> change unit``."""
    return f"{workload} seed {pair['seed']}: " + ", ".join(
        f"{metric['name']} {pair['parent'][metric['name']]:.4g} -> "
        f"{pair['change'][metric['name']]:.4g} {metric['unit']}"
        for metric in end_to_end if metric["name"] in pair["parent"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--held-out", type=seed_list, default=[])
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    better["op_error_rate"] = "lower"
    seconds = float(declared["run_seconds"]) if args.seconds is None else args.seconds
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", f"python3 perfbench/run.py --workload W --seed S "
                              f"--seconds {seconds:g} --trace 0")

    for block, seeds in (("pairs", args.seeds), ("held_out_pairs", args.held_out)):
        pairs = doc.setdefault(block, {}).setdefault(args.workload, [])
        done = {pair["seed"] for pair in pairs}
        for seed in seeds:
            if seed in done:
                continue
            order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            threads = {}
            for side in order:
                pair[side], env = run_once(roots[side], args.workload, seed, seconds)
                threads[side] = env.get("threads")
                doc.setdefault("env", env)
            pair["threads"] = threads
            pairs.append(pair)
            if block == "pairs":
                doc.setdefault("pairs_summary", {})[args.workload] = summarize(pairs, better)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(pair_line(args.workload, pair, declared["end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
