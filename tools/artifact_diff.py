"""Value changes of every CLI artifact between two checkouts.

Runs the cases of ``tools/artifact_digests.py`` (imported, through its
``run_cases``) on both checkouts, each in a fresh interpreter with its
artifacts kept in a temporary directory, and prints:

* every case whose exit code differs;
* every change of a ``status``, ``newton_iters``, ``verdict``, ``witness``
  or ``check_set_size`` value, in JSON fields and CSV columns alike;
* for each file whose bytes moved, the largest absolute and relative change
  of each numeric JSON field, CSV column and ``.npy`` row that moved.  List
  entries of a JSON field are one field (``reports[].margins.eps_floor``);
  each row along the leading axis of a ``.npy`` array is one field, named
  ``[0]``, ``[1]``, ... (for ``field.npy`` these are ``u`` and the
  transforms of the JSON's ``field.columns``).  The relative change is the
  absolute one over the field's, column's or row's largest absolute value
  in ``PARENT``, so a field near zero does not read as a large move.  Text
  that moved elsewhere (a message, a demo's standard output) is reported by
  field or by the number of lines that differ.

Usage::

    python tools/artifact_diff.py PARENT [CHANGE]

``CHANGE`` defaults to the checkout holding this script.  The exit code is
0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import artifact_digests

TOOLS = Path(__file__).resolve().parent
WATCHED = ("status", "newton_iters", "verdict", "witness", "check_set_size")


def _run(root: Path, work: Path) -> dict:
    """The report of ``artifact_digests.run_cases`` on ``root``, in a new
    interpreter, since each checkout imports its own ``concavelab``."""
    work.mkdir(parents=True)
    report = work / "report.json"
    probe = ("import json, sys; from pathlib import Path; "
             f"sys.path.insert(0, {str(TOOLS)!r}); import artifact_digests; "
             f"report = artifact_digests.run_cases(Path({str(root)!r}), Path({str(work)!r})); "
             f"Path({str(report)!r}).write_text(json.dumps(report))")
    subprocess.run([sys.executable, "-c", probe], check=True)
    return json.loads(report.read_text())


def _flatten(value, path: str = "") -> list[tuple[str, object]]:
    """The leaves of a JSON value as ``(path, leaf)``, list indices written ``[]``."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in _flatten(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _flatten(item, f"{path}[]")]
    return [(path, value)]


def _fields(path: Path) -> dict[str, list] | None:
    """Named fields of a JSON, CSV or ``.npy`` artifact, each a list of values
    in file order (an array row in C order); ``None`` for any other file."""
    if path.suffix == ".npy":
        rows = np.load(path, allow_pickle=False)
        return {f"[{k}]": row.ravel().tolist() for k, row in enumerate(rows)}
    if path.suffix == ".json":
        fields: dict[str, list] = {}
        for name, leaf in _flatten(json.loads(path.read_text())):
            fields.setdefault(name.lstrip("."), []).append(leaf)
        return fields
    if path.suffix == ".csv":
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        rows = list(csv.reader(lines))
        header, body = rows[0], rows[1:]
        return {name: [_number(row[k]) for row in body] for k, name in enumerate(header)}
    return None


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    return a == b or (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b))


def _compare(name: str, old: list, new: list) -> tuple[str, str] | None:
    """``("watched" | "numeric" | "text", line)`` for a field that moved."""
    if len(old) == len(new) and all(_same(a, b) for a, b in zip(old, new)):
        return None
    key = name.rpartition(".")[2].removesuffix("[]")
    if key in WATCHED:
        changed = [(a, b) for a, b in zip(old, new) if not _same(a, b)]
        shown = changed[0] if changed else (old, new)
        return "watched", f"{name}: {shown[0]!r} -> {shown[1]!r} ({len(changed)} changed)"
    pairs = list(zip(old, new))
    if len(old) == len(new) and all(_is_number(a) and _is_number(b) for a, b in pairs):
        # a value that turned nan or infinite moved by an infinite amount
        moves = [0.0 if _same(a, b) else abs(a - b) for a, b in pairs]
        largest = max(m if m == m else math.inf for m in moves)
        sup = max((abs(a) for a in old if math.isfinite(a)), default=0.0)
        relative = largest / sup if sup > 0.0 else math.inf
        return "numeric", f"{name}: abs {largest:.3e} rel {relative:.3e}"
    return "text", f"{name}: {len(old)} -> {len(new)} values, " \
                   f"{sum(not _same(a, b) for a, b in pairs)} differ"


def _text_lines(old: Path, new: Path) -> str:
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{differ} of {max(len(a), len(b))} lines differ"


def diff(parent: dict, change: dict, parent_work: Path, change_work: Path) -> list[str]:
    """The report lines for two ``run_cases`` reports and their directories."""
    exits, watched, moved = [], [], []
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        if old is None or new is None:
            exits.append(f"{key}: only in {'CHANGE' if old is None else 'PARENT'}")
            continue
        if old["exit"] != new["exit"]:
            exits.append(f"{key}: exit {old['exit']} -> {new['exit']}")
        for name in sorted(old["files"].keys() | new["files"].keys()):
            if old["files"].get(name) == new["files"].get(name):
                continue
            where = f"{key}/{name}"
            if name not in old["files"] or name not in new["files"]:
                moved.append(f"{where}: only in {'PARENT' if name in old['files'] else 'CHANGE'}")
                continue
            a, b = (artifact_digests.case_dir(work, key) / name
                    for work in (parent_work, change_work))
            fields_a, fields_b = _fields(a), _fields(b)
            if fields_a is None or fields_b is None:
                moved.append(f"{where}: {_text_lines(a, b)}")
                continue
            lines = [f"{where}:"]
            for field in sorted(fields_a.keys() | fields_b.keys()):
                found = _compare(field, fields_a.get(field, []), fields_b.get(field, []))
                if found is not None and found[0] == "watched":
                    watched.append(f"{where}: {found[1]}")
                elif found is not None:
                    lines.append(f"  {found[0]} {found[1]}")
            moved.extend(lines)
    return (["# exit codes", *exits, "# status, newton_iters, verdict, witness, check_set_size",
             *watched, "# moved files", *moved])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", nargs="?", type=Path, default=TOOLS.parent,
                        help="checkout to compare (default: the one holding this script)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        works = Path(tmp) / "parent", Path(tmp) / "change"
        reports = [_run(root.resolve(), work) for root, work in zip((args.parent, args.change),
                                                                     works)]
        lines = diff(*reports, *works)
    print("\n".join(lines))
    return 0 if len(lines) == 3 else 1


if __name__ == "__main__":
    sys.exit(main())
