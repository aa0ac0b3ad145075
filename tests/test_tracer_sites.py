"""Every call site the benchmark's tracer wraps exists in the package.

``bench/tracing.py`` wraps ``getattr(gallai.<module>, <attribute>)`` for
each entry of its ``SITES`` table.  The table is read as a literal, so no
benchmark code is imported; a refactor that drops or renames a pinned
name fails here, not only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def pinned_sites():
    tree = ast.parse(TRACING.read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SITES"]
    ]
    sites = ast.literal_eval(table)
    return [(module, attribute) for module, attributes in sites.items() for attribute in attributes]


def test_the_table_is_read():
    assert ("cli", "find_rainbow_triangle") in pinned_sites()


@pytest.mark.parametrize("module, attribute", pinned_sites())
def test_site_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"gallai.{module}"), attribute))
