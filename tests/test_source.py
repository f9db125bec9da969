import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kgschema").rglob("*.py"))


def _python_floor() -> tuple[int, int]:
    """The oldest Python that pyproject.toml's ``requires-python`` admits."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_as_the_oldest_supported_python(path):
    """The suite runs on a newer Python than the floor, so a syntax feature
    the floor lacks would pass it; ``feature_version`` rejects such syntax."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_python_floor())
