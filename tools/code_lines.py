"""Count the code lines of Python files: lines that hold a token, without
blank lines, comments or docstrings.

    python tools/code_lines.py src/vulnaug [more files or directories]

Prints each file's count, then the total. A directory counts its ``*.py``
files, recursively. A docstring is the string statement that opens a
module, class or function body (:mod:`ast`); a line counts when
:mod:`tokenize` finds a token on it outside those docstrings, so each line
of a multi-line string or expression counts.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(args: list[str]) -> None:
    files = []
    for arg in args:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
