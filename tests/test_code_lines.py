"""The rules of tools/code_lines.py, the code-line counter the docs quote,
pinned on small files."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


@pytest.mark.parametrize("source,count", [
    ('''
     """Module docstring,
     over two lines."""


     class Thing:
         """Class docstring."""

         def method(self):
             """Function
             docstring."""
             return 1


     async def fetch():
         """Coroutine docstring."""
     ''', 4),
    ('''
     # a comment

     x = 1  # a trailing comment
         # an indented comment


     ''', 1),
    ('''
     text = """one
     two
     three"""
     ''', 3),
    ('''
     total = sum(
         [1, 2],
         start=3,
     )
     ''', 4),
], ids=["docstrings", "comments-and-blanks", "multi-line-string", "multi-line-call"])
def test_counts_lines_that_hold_code(code_lines, tmp_path, source, count):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    assert code_lines(path) == count
