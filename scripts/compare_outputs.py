"""Compare two directories of emitted files, number by number.

Lists the files that are byte-identical.  For each file that differs, the
text is split into numbers and the text between them: the largest absolute
difference between paired numbers is printed, and any change in the text
between them (a verdict, a key, a column, a different count of numbers) is
flagged.  Files present in only one directory are flagged too.

Usage: python scripts/compare_outputs.py DIR_A DIR_B

Exit code 0 when every difference is numeric and at most 1e-12, else 1.
"""
from __future__ import annotations

import math
import re
import sys
from pathlib import Path

TOLERANCE = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|(?<![A-Za-z])[-+]?(?:inf|Infinity|nan|NaN)(?![A-Za-z]))")


def _split(text: str) -> tuple[list[str], list[float]]:
    """(text between numbers, numbers) of a file's contents."""
    parts = NUMBER.split(text)
    return parts[0::2], [float(p) for p in parts[1::2]]


def _delta(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return math.inf if math.isnan(a) or math.isnan(b) else abs(a - b)


def compare_file(a: Path, b: Path) -> tuple[float, str | None]:
    """(largest numeric delta, first non-numeric change or None)."""
    text_a, num_a = _split(a.read_text(encoding="utf-8"))
    text_b, num_b = _split(b.read_text(encoding="utf-8"))
    if len(num_a) != len(num_b):
        return math.inf, f"{len(num_a)} numbers against {len(num_b)}"
    for k, (ta, tb) in enumerate(zip(text_a, text_b)):
        if ta != tb:
            return math.inf, f"text {ta!r} -> {tb!r} after number {k}"
    return max((_delta(x, y) for x, y in zip(num_a, num_b)), default=0.0), None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    failed = False
    identical = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: only in {dir_a if name in names_a else dir_b}")
            failed = True
            continue
        a, b = dir_a / name, dir_b / name
        if a.read_bytes() == b.read_bytes():
            identical.append(str(name))
            continue
        delta, change = compare_file(a, b)
        if change is not None:
            print(f"{name}: non-numeric change: {change}")
        else:
            print(f"{name}: largest numeric delta {delta:.3e}")
        failed = failed or change is not None or delta > TOLERANCE
    print(f"byte-identical ({len(identical)}): {', '.join(identical) or '-'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
