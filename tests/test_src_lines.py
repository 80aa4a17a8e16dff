"""The net source line counter behind the LOC figure of each change."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''\
"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a multi-line
string value"""
        return (x +
                math.pi)
'''


def test_counts_code_lines_outside_comments_and_docstrings():
    # import, class, def, the string's two lines, the return's two lines
    assert src_lines.code_lines(SAMPLE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [["a.py", "2"], ["b.py", "1"],
                                                        ["total", "3"]]
