"""The package declares ``requires-python >= 3.10``; its source and tests
must parse with the 3.10 grammar even when the suite runs on a later one.
It also declares no dependencies: the package imports only the standard
library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "gallai").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_later_syntax():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="only supported in Python 3.11 and greater"):
        ast.parse(text, feature_version=(3, 10))


def test_the_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "gallai").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"__future__"}
            ]
    assert outside == []
