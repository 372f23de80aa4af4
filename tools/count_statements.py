"""Count the logical statements of Python source files.

A logical statement is one NEWLINE token of the ``tokenize`` module, so a
statement split over several physical lines counts once and blank or
comment-only lines count zero. Docstrings (a string literal that opens a
module, class or function body) are not counted.

Usage: python tools/count_statements.py [PATH ...]   (default: src/momentcpt)

Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path


def _docstrings(tree: ast.AST) -> int:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, nodes) and ast.get_docstring(node, clean=False) is not None
    )


def count(path: Path) -> int:
    """Logical statements of one file, docstrings excluded."""
    with tokenize.open(path) as handle:
        source = handle.read()
    with open(path, "rb") as handle:
        newlines = sum(
            tok.type == tokenize.NEWLINE for tok in tokenize.tokenize(handle.readline)
        )
    return newlines - _docstrings(ast.parse(source))


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/momentcpt")]
    files = sorted(
        f for root in roots for f in (root.rglob("*.py") if root.is_dir() else [root])
    )
    total = 0
    for path in files:
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
