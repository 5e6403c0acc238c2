"""tools/code_lines.py, the code-line count that CHANGES.md and ROADMAP.md
quote, on a fixture whose every kind of line is counted by hand."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''\
"""Module docstring,
over two lines."""

import math  # a comment after code counts as code

# a comment line does not count


@staticmethod
def f(x,
      y):
    """A docstring."""
    text = """a string that is
    not a docstring"""
    return math.hypot(x, y), text


class C:
    """Class docstring."""

    def g(self):
        # comment
        return 1
'''

# counted: import (4); @staticmethod, def f over two lines, text over two
# lines, return (9-15); class, def g, return (18-23)
CODE_LINES = {4, 9, 10, 11, 13, 14, 15, 18, 21, 23}


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert code_lines.code_lines(FIXTURE) == CODE_LINES
    assert code_lines.count(FIXTURE) == (10, [("f", 6), ("C", 3)])


def test_main_prints_modules_parts_and_total(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["10", os.path.relpath(path)], ["6", "f"], ["3", "C"],
        ["10", "total"]]


def test_a_missing_path_prints_the_usage_and_exits_2(tmp_path, capsys):
    # "--help" is a path too: the script takes no options
    missing = tmp_path / "missing.py"
    for arg in (str(missing), "--help"):
        assert code_lines.main([str(tmp_path), arg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            code_lines.USAGE,
            f"code_lines.py: no such file or directory: {arg}"]
