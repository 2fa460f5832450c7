"""The code-line count of scripts/code_lines.py, on a synthetic module."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# a comment line


class Box:
    """A class docstring."""

    size = (
        1
        + 2
    )

    def area(self):
        """A function docstring
        over two lines."""
        text = """a string
        that is not a docstring"""
        return math.pi * self.size ** 2, text
'''


def test_counts_lines_holding_code_outside_docstrings():
    """import, class, the four lines of ``size``, def, the two lines of the
    string that is no docstring, and return: 10 lines."""
    assert code_lines.code_lines(_MODULE) == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_MODULE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert code_lines.main(tmp_path) == 0
    assert capsys.readouterr().out.split("\n") == ["    1 a.py", "   10 b.py", "   11 total", ""]
