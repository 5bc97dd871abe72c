"""Every source, test, demo and benchmark file parses as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for top in ("src", "tests", "demos", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
