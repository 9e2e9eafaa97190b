"""Fail on unused imports in the package modules and the tests.

An imported name counts as used when some ``Name`` node of its module reads
it, attribute bases included (``np`` in ``np.zeros``). The package's
``__init__.py`` is not scanned: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "driftstream").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_package_and_test_modules():
    names = {p.name for p in FILES}
    assert {"adaptation.py", "cli.py", "test_adaptation.py", "test_unused_imports.py"} <= names
    assert "__init__.py" not in names


def test_the_scan_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom typing import Optional\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 1)", "Optional (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
