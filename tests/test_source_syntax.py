"""The package declares ``requires-python >= 3.10``; its source and tests
must parse with the 3.10 grammar even when the suite runs on a later one."""

import ast
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
