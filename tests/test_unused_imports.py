"""Fail on unused imports in the package modules and the tests, and on
private definitions the package never reads.

An imported name counts as used when some ``Name`` node of its module reads
it, attribute bases included (``np`` in ``np.zeros``). The package's
``__init__.py`` is not scanned: its imports are re-exports. A ``_name``
function, class or method counts as used when some ``Name`` or
``Attribute`` node of any package module reads that name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "driftstream").glob("*.py"))
FILES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")),
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


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The ``_name`` functions, classes and methods (dunders aside) that the
    modules ``sources`` (file name -> source) define and no ``Name`` or
    ``Attribute`` node of theirs reads, as ``file:line name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [
        f"{name}:{node.lineno} {node.name}" for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in read
    ]


def test_the_private_scan_finds_an_unread_definition():
    module = (
        "class _Used:\n"
        "    def _left(self): pass\n"
        "    def _called(self): pass\n"
        "    def __init__(self): self._called()\n"
        "def _helper(): pass\n"
        "def public(): return _Used()\n"
    )
    assert sorted(unused_private_definitions({"a.py": module})) == [
        "a.py:2 _left", "a.py:5 _helper",
    ]
    caller = "from a import _helper\n_helper()\n"
    assert unused_private_definitions({"a.py": module, "b.py": caller}) == ["a.py:2 _left"]


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unused_private_definitions(sources) == []
