"""Count the code lines of the barwaves package.

A code line is a line that holds a token other than a comment and that is
not part of a docstring (the first statement of a module, class or function
when it is a string).  Blank lines do not count, and a string or bracket
that spans several lines counts each line it spans that holds a token.

Usage:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
src/barwaves beside this script.  For each module the script prints its
count, then the count of each of its top-level functions and classes, and
last the total over all modules.  A PATH that does not exist prints the
usage line and that path on stderr, and the script exits with status 2.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python3 tools/code_lines.py [PATH ...]"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(ast.parse(source))


def count(source: str) -> tuple[int, list[tuple[str, int]]]:
    """The module's code-line count, and (name, count) of each top-level
    function and class, decorators included, in source order."""
    lines = code_lines(source)
    parts = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            parts.append((node.name, sum(start <= i <= node.end_lineno
                                         for i in lines)))
    return len(lines), parts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent
                                        / "src" / "barwaves"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(USAGE, file=sys.stderr)
        for p in missing:
            print(f"code_lines.py: no such file or directory: {p}",
                  file=sys.stderr)
        return 2
    files = sorted(f for p in paths
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n, parts = count(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {os.path.relpath(f)}")
        for name, k in parts:
            print(f"{k:6d}    {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
