"""Print the line counts of the ``mant`` package, module by module.

    python3 tools/loc.py [SRC]

SRC is a ``src`` directory holding a ``mant`` package (default: the one
beside this script).  Each module gets one line: its ``wc -l`` count, then
that count split into docstring, comment, blank and code lines; the last
line holds the totals.  A docstring is the string that opens a module,
class or function (``ast.get_docstring``'s string), all its lines; a
comment line holds nothing but a comment; a blank line holds only
whitespace; every other line, a code line with a trailing comment among
them, is code.  The four parts add up to the ``wc -l`` count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("lines", "docstring", "comment", "blank", "code")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(path: Path) -> dict[str, int]:
    """``wc -l`` of ``path`` and its split into the parts of :data:`COLUMNS`."""
    data = path.read_bytes()
    lines = data.decode().split("\n")
    if lines and lines[-1] == "":
        lines.pop()   # the text after the last newline, which wc -l does not count
    docs = docstring_lines(ast.parse(data))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = data.count(b"\n")
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    modules = sorted((src / "mant").glob("*.py"))
    if not modules:
        print(f"error: no mant modules under {src}", file=sys.stderr)
        return 2
    totals = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in modules:
        counts = split(path)
        for c in COLUMNS:
            totals[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{totals[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
