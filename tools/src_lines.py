"""Line counts of the ``specden`` modules: ``wc -l`` lines and ``ast`` code lines.

    python3 tools/src_lines.py [DIR]

Prints one row per ``*.py`` module of DIR (default ``src/specden``) and
their totals.  Lines are what ``wc -l`` counts, the newline characters.
Code lines are the lines that are not blank, not comment-only and not
inside a module, class or function docstring (found with :mod:`ast`).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    return source.count("\n"), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    directory = Path(args[0]) if args else ROOT / "src" / "specden"
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(directory.glob("*.py")):
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
