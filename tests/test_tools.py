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


def test_the_statements_of_each_function_and_the_module_level_sum_to_the_file():
    counter = _count_statements()
    path = _COUNTER.parents[1] / "src" / "momentcpt" / "montecarlo.py"
    rows = counter.functions(path)
    names = [name for name, _ in rows]
    assert names[-1] == "(module level)"
    assert {"ExperimentConfig", "_gathered", "run_experiment", "sup_zn_gap"} <= set(names)
    assert all(k > 0 for _, k in rows)
    assert sum(k for _, k in rows) == counter.count(path)


def test_a_decorated_function_counts_its_decorator_and_not_its_docstring(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring."""\n'
        "import functools\n"
        "\n"
        "@functools.lru_cache\n"
        "def f(\n"
        "    x,\n"
        "):\n"
        '    """A docstring."""\n'
        "    y = x + 1\n"
        "    return y\n"
        "\n"
        "z = f(1)\n"
    )
    counter = _count_statements()
    assert counter.functions(source) == [("f", 4), ("(module level)", 2)]
    assert counter.count(source) == 6
