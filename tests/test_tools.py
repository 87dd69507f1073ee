"""The repository's tools, loaded from their files."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


class Box:
    """A class docstring."""

    size = 2


def area(width,
         height):
    """A function docstring
    over two lines."""
    # a comment on its own line

    "a string expression that is no docstring"
    text = """a string
    over two lines"""
    return os.fspath(text), max(width,
                                height)
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # counted: the import, the class line, size, the two lines of the def,
    # the string expression, the two lines of text and the two of return
    assert _load("code_lines").code_lines(SNIPPET) == 10
