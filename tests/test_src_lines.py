"""The line measure of ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment
import math


class Point:
    """A class docstring."""

    x: float = 0.0  # a trailing comment keeps its line


def norm(p):
    """A function docstring,

    three lines long.
    """
    text = """a string that is
    not a docstring"""
    return math.hypot(p.x, 0.0)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # code: the import, the class line, x, the def line, the two lines of
    # `text` and the return
    assert src_lines.count_lines(FIXTURE) == (21, 7)


def test_the_table_totals_its_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "21", "7"], ["b.py", "2", "1"],
                    ["total", "23", "8"]]
