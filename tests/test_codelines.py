"""``tools/codelines.py``, the counter behind every "code lines" figure, on a fixture counted by hand."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

# Code lines: `import os`, the two lines of TEXT, `def f(x):`, the two
# lines of the continued return, `class C:` and `y = 1`.
FIXTURE = '''"""A module docstring,
over two lines."""

# A comment line.
import os  # a comment after code

TEXT = """a string that spans lines
and is not a docstring"""


def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 1
'''


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(codelines):
    assert codelines.code_lines(FIXTURE) == 8
    assert codelines.code_lines("") == 0


def test_a_directory_prints_each_module_and_the_total(codelines, tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n")
    assert codelines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8 {tmp_path / 'pkg' / 'a.py'}",
        f"1 {tmp_path / 'pkg' / 'sub' / 'b.py'}",
        "9 total",
    ]
