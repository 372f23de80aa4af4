"""The statement counter behind the size figures of the source tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_COUNTER = Path(__file__).resolve().parents[1] / "tools" / "count_statements.py"


def _count_statements():
    spec = importlib.util.spec_from_file_location("count_statements", _COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_statement_counts_once_and_docstrings_and_comments_not_at_all(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring."""\n'
        "\n"
        "# a comment-only line\n"
        "total = (\n"
        "    1\n"
        ")\n"
    )
    assert _count_statements().count(source) == 1
