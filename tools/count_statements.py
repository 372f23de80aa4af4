"""Count the logical statements of Python source files.

A logical statement is one NEWLINE token of the ``tokenize`` module, so a
statement split over several physical lines counts once and blank or
comment-only lines count zero. Docstrings (a string literal that opens a
module, class or function body) are not counted.

Usage: python tools/count_statements.py [--functions] [PATH ...]
(default PATH: src/momentcpt)

Prints one line per file and the total. With ``--functions``, each file's
line is followed by one line per top-level function and class (its
decorators, header and body) and one for the statements outside them.
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


def _parse(path: Path) -> tuple[ast.Module, list[int]]:
    """The syntax tree of one file and the line of each of its NEWLINE tokens."""
    with tokenize.open(path) as handle:
        source = handle.read()
    with open(path, "rb") as handle:
        lines = [
            tok.start[0]
            for tok in tokenize.tokenize(handle.readline)
            if tok.type == tokenize.NEWLINE
        ]
    return ast.parse(source), lines


def count(path: Path) -> int:
    """Logical statements of one file, docstrings excluded."""
    tree, lines = _parse(path)
    return len(lines) - _docstrings(tree)


def functions(path: Path) -> list[tuple[str, int]]:
    """Logical statements of each top-level function and class of one file.

    Returns ``(name, count)`` in source order, then ``("(module level)",
    count)`` for the statements outside them; docstrings are excluded
    throughout, so the counts sum to :func:`count`.
    """
    tree, lines = _parse(path)
    rows, inside = [], set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = {line for line in lines if first <= line <= node.end_lineno}
            inside |= own
            rows.append((node.name, len(own) - _docstrings(node)))
    module = sum(line not in inside for line in lines)
    rows.append(("(module level)", module - (ast.get_docstring(tree) is not None)))
    return rows


def main(argv: list[str]) -> int:
    per_function = "--functions" in argv
    roots = [Path(arg) for arg in argv if arg != "--functions"] or [Path("src/momentcpt")]
    files = sorted(
        f for root in roots for f in (root.rglob("*.py") if root.is_dir() else [root])
    )
    total = 0
    for path in files:
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
        if per_function:
            for name, k in functions(path):
                print(f"{k:10d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
