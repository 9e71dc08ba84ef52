"""Count the code lines of Python modules, the figure behind every "code lines" count in the docs.

A code line is a line that holds a token other than a comment, and that
is not part of a module, class or function docstring. A string that spans
lines, and is not a docstring, holds every line it spans. Blank lines,
comment lines and docstrings do not count. Only the standard library's
``ast`` and ``tokenize`` are used.

Usage::

    python tools/codelines.py [PATH ...]

Each PATH is a module or a directory, searched recursively for ``*.py``
(default: ``src/bilevel``, relative to the working directory). Prints
``<count> <module>`` per module, then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that mark no code: layout and comments.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count(paths: list[Path]) -> dict[Path, int]:
    """Code lines per module under ``paths``, in sorted order within each path."""
    modules = [m for path in paths for m in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    return {module: code_lines(module.read_text(encoding="utf-8")) for module in modules}


def main(argv: list[str] | None = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)] or [Path("src/bilevel")]
    counts = count(paths)
    for module, lines in counts.items():
        print(f"{lines} {module}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
