"""Compare two pacf output trees under the float-sum-order contract.

    python3 tools/run_drift.py DIR_A DIR_B

Two runs of pacf on the same inputs may differ only by the order of float
sums. This tool checks that for every file under DIR_A and DIR_B, matched by
relative path. It prints one line per file:

* ``identical``  the bytes are the same;
* ``drift R``    a ``.csv`` or ``.json`` file whose structure, text cells and
  integers match, and whose floats differ by at most R relative, at the named
  cell (``DRIFT`` when R is past ``REL_TOL``);
* ``MISMATCH``   structure, a text cell or an integer differs, a file is
  only in one tree, or a dump's ``.mirror`` differs beside its identical CSV
  (a mirror holds the CSV's numbers, so it may drift only where they do);
* ``differs``    any other file whose bytes differ: the SVG plots, and a
  ``.mirror`` beside a CSV that differs too.

A float's relative difference is |a - b| / max(|a|, |b|). A nan matches a
nan, and an empty CSV cell is pacf's non-finite float, so it matches another
empty cell. The exit code is 1 after a ``MISMATCH`` or a ``DRIFT`` line, and
0 otherwise. There are no flags.

Standard library only, so that it runs wherever pacf's output lands.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

REL_TOL = 1e-6  # perfbench/bench.py's REL_TOL, the bound its reference checks allow
_INTEGER = re.compile(r"[+-]?\d+")


class Mismatch(Exception):
    """Two documents differ in structure, a text cell or an integer."""


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values and for two nans, inf for one nan or
    for infinities that differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_cell(text: str):
    """A CSV cell as pacf writes it: an int, a float (empty for a non-finite one) or text."""
    if _INTEGER.fullmatch(text):
        return int(text)
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return text


def parse(path: Path, data: bytes):
    """A ``.csv`` file as a dict of its lines' cell lists, or a ``.json`` document."""
    text = data.decode("utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return {f"line {n}": [csv_cell(cell) for cell in line.split(",")]
            for n, line in enumerate(text.splitlines(), 1)}


def compare(a, b, where: str = "") -> tuple[float, str]:
    """The largest relative float difference between two parsed documents and where it is;
    :class:`Mismatch` where they differ in anything but float values."""
    if isinstance(a, float) and isinstance(b, float):
        return relative_difference(a, b), where
    if type(a) is not type(b):
        raise Mismatch(f"{where or 'document'}: {a!r} against {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where or 'document'}: keys {sorted(a.keys() ^ b.keys())} "
                           "are in one only")
        parts = [compare(a[k], b[k], f"{where}.{k}" if where else k) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where or 'document'}: {len(a)} entries against {len(b)}")
        parts = [compare(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif a != b:
        raise Mismatch(f"{where or 'document'}: {a!r} against {b!r}")
    else:
        parts = []
    return max(parts, key=lambda part: part[0], default=(0.0, where))


def _files(root: Path) -> set[Path]:
    return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}


def compare_trees(root_a: Path, root_b: Path) -> tuple[list[str], bool]:
    """One report line per file of either tree, and whether the trees keep the contract."""
    files_a, files_b = _files(root_a), _files(root_b)
    lines, ok, same = [], True, set()
    for rel in sorted(files_a | files_b):  # sorted: a dump's CSV comes before its mirror
        if rel not in files_a or rel not in files_b:
            side = root_a if rel in files_a else root_b
            lines.append(f"MISMATCH  {rel}: only in {side}")
            ok = False
            continue
        data_a, data_b = (root_a / rel).read_bytes(), (root_b / rel).read_bytes()
        if data_a == data_b:
            same.add(rel)
            lines.append(f"identical  {rel}")
        elif rel.suffix == ".mirror" and rel.with_suffix("") in same:
            lines.append(f"MISMATCH  {rel}: differs beside an identical {rel.with_suffix('')}")
            ok = False
        elif rel.suffix not in (".csv", ".json"):
            lines.append(f"differs  {rel}")
        else:
            try:
                drift, where = compare(parse(rel, data_a), parse(rel, data_b))
            except (Mismatch, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
                lines.append(f"MISMATCH  {rel}: {exc}")
                ok = False
                continue
            kept = drift <= REL_TOL
            lines.append(f"{'drift' if kept else 'DRIFT'} {drift:.2g}  {rel}"
                         + (f" at {where}" if drift else ""))
            ok = ok and kept
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two pacf output trees: bytes, structure and float drift")
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    lines, ok = compare_trees(args.dir_a, args.dir_b)
    print("\n".join(lines))
    print(f"ok: {len(lines)} files, every float within {REL_TOL:g} relative" if ok
          else f"FAILED: {len(lines)} files, see the MISMATCH and DRIFT lines")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
