"""Compare two outputs of one run, old against new, before a re-baseline.

    python tests/rebaseline.py OLD NEW

OLD and NEW are two ``verify`` JSON reports or two CSV outputs of a golden
run (``field``, ``expect``, ``expand``, whose leading ``#`` lines are text).  The comparison fails, and the
command exits 1, when they differ in anything but numbers:

- a report's metadata, its row names or their order, or a row's keys,
  ``pass`` or ``inconclusive``;
- a CSV's header or its number of rows;
- the text of any cell outside its numbers.  A note such as
  "convergence estimate 1.2e-10; ..." is text with numbers in it: the text
  must match, and each number is compared as a number.

Every changed number is listed with its relative change,
(new - old) / |old|, and the largest one closes the summary.  Equal
outputs, and outputs whose numbers alone moved, exit 0.  The exit code and
verdict counts of a ``verify`` run are carried in its metadata, so a
changed exit code shows as a metadata difference.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

# a decimal number as the reports print it: sign, digits, point, exponent, or inf/nan
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _split(text):
    """(the text with every number replaced by '#', the numbers as floats)."""
    return _NUMBER.sub("#", text), [float(n) for n in _NUMBER.findall(text)]


def _moved(old, new):
    """Whether two numbers differ: in value, in the sign of a zero, or as NaN against a number."""
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) != math.isnan(new)
    return old != new or math.copysign(1.0, old) != math.copysign(1.0, new)


def _relative(old, new):
    """(new - old) / |old|: inf where a zero became nonzero, 0 for a zero's sign."""
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else math.inf


class Comparison:
    """The structural differences and the changed numbers of two outputs."""

    def __init__(self):
        self.rows = 0
        self.differences = []  # one line per structural difference
        self.changes = []  # (row, field, old, new)

    def cell(self, row, field, old, new):
        """Compare one value of `row`: numbers as numbers, the text of a string
        outside its numbers exactly, anything else exactly."""
        where = f"{row} [{field}]"
        if isinstance(old, bool) or isinstance(new, bool) or old is None or new is None:
            if old != new:
                self.differences.append(f"{where}: {old!r} -> {new!r}")
            return
        if isinstance(old, (int, float)) and isinstance(new, (int, float)):
            old_text, old_numbers, new_text, new_numbers = "#", [float(old)], "#", [float(new)]
        elif isinstance(old, str) and isinstance(new, str):
            (old_text, old_numbers), (new_text, new_numbers) = _split(old), _split(new)
        else:
            self.differences.append(f"{where}: {old!r} -> {new!r}")
            return
        if old_text != new_text:
            self.differences.append(f"{where}: text {old!r} -> {new!r}")
            return
        for i, (a, b) in enumerate(zip(old_numbers, new_numbers)):
            if _moved(a, b):
                self.changes.append((row, field if len(old_numbers) == 1 else f"{field} #{i + 1}", a, b))

    def summary(self, old_name, new_name):
        lines = [f"{old_name} -> {new_name}: {self.rows} rows, "
                 f"{len({row for row, *_ in self.changes})} with changed numbers, "
                 f"{len(self.changes)} numbers changed, {len(self.differences)} structural differences"]
        lines += [f"  DIFFERS {line}" for line in self.differences]
        for row, field, a, b in self.changes:
            lines.append(f"  {row} [{field}]: {a!r} -> {b!r} (relative {_relative(a, b):+.3g})")
        if self.changes:
            worst = max(abs(_relative(a, b)) for *_, a, b in self.changes)
            lines.append(f"  largest relative change: {worst:.3g}")
        return "\n".join(lines)


def compare_reports(old, new):
    """Comparison of two parsed ``verify`` JSON reports."""
    out = Comparison()
    if old.get("metadata") != new.get("metadata"):
        out.differences.append(f"metadata: {old.get('metadata')!r} -> {new.get('metadata')!r}")
    if set(old) != set(new):
        out.differences.append(f"top-level keys: {sorted(old)} -> {sorted(new)}")
    old_rows, new_rows = old.get("results", []), new.get("results", [])
    out.rows = len(old_rows)
    old_names, new_names = [r.get("name") for r in old_rows], [r.get("name") for r in new_rows]
    if old_names != new_names:
        out.differences.append(f"row names or order: {sorted(set(old_names) ^ set(new_names)) or 'order'}")
        return out
    for a, b in zip(old_rows, new_rows):
        if set(a) != set(b):
            out.differences.append(f"{a['name']}: keys {sorted(a)} -> {sorted(b)}")
            continue
        for key in a:
            if key != "name":
                out.cell(a["name"], key, a[key], b[key])
    return out


def compare_csv(old_lines, new_lines):
    """Comparison of two CSV outputs, given as lists of lines.  Leading "#"
    comment lines, as ``expand`` writes them, are compared as text with numbers."""
    out = Comparison()
    n_old, n_new = (next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
                    for lines in (old_lines, new_lines))
    if n_old != n_new:
        out.differences.append(f"comment lines: {n_old} -> {n_new}")
        return out
    for i, (a, b) in enumerate(zip(old_lines[:n_old], new_lines[:n_old]), start=1):
        out.cell(f"comment {i}", "text", a, b)
    old_lines, new_lines = old_lines[n_old:], new_lines[n_old:]
    old_rows, new_rows = list(csv.reader(old_lines)), list(csv.reader(new_lines))
    if old_rows[:1] != new_rows[:1]:
        out.differences.append(f"header: {old_rows[:1]} -> {new_rows[:1]}")
        return out
    out.rows = len(old_rows) - 1
    if len(old_rows) != len(new_rows):
        out.differences.append(f"rows: {len(old_rows) - 1} -> {len(new_rows) - 1}")
        return out
    header = old_rows[0] if old_rows else []
    for i, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if len(a) != len(header) or len(b) != len(header):
            out.differences.append(f"row {i}: {len(a)} cells -> {len(b)}, header {len(header)}")
            continue
        for column, x, y in zip(header, a, b):
            out.cell(f"row {i}", column, x, y)
    return out


def compare_files(old_path, new_path):
    """Comparison of two files: JSON reports when both parse as JSON, else CSV."""
    old_text = Path(old_path).read_text(encoding="utf-8")
    new_text = Path(new_path).read_text(encoding="utf-8")
    try:
        return compare_reports(json.loads(old_text), json.loads(new_text))
    except json.JSONDecodeError:
        return compare_csv(old_text.splitlines(), new_text.splitlines())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/rebaseline.py OLD NEW", file=sys.stderr)
        return 2
    result = compare_files(*argv)
    print(result.summary(*argv))
    return 1 if result.differences else 0


if __name__ == "__main__":
    sys.exit(main())
