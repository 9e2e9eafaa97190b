"""Fail on unused imports in the package modules and the tests, on
private definitions the package never reads, and on public definitions that
nothing reads.

An imported name counts as used when some ``Name`` node of its module reads
it, attribute bases included (``np`` in ``np.zeros``). The package's
``__init__.py`` is not scanned: its imports are re-exports. A ``_name``
function, class or method counts as used when some ``Name`` or
``Attribute`` node of any package module reads that name. A public
module-level function or class of the package, or a public method or
property of a module-level class, counts as used when some ``Name`` or
``Attribute`` node of the package, the tests or the benchmark scripts
(``perfbench/*.py``; the frozen ``perfbench/reference`` copy aside) reads
that name; a re-export in ``__init__.py`` is not a read. The public
definitions that only the tests read are pinned, each with why it stays
(``READ_ONLY_BY_TESTS``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "driftstream").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
FILES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + TESTS)
READERS = PACKAGE + TESTS + sorted((ROOT / "perfbench").glob("*.py"))


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(trees) -> set[str]:
    """The names that some ``Name`` or ``Attribute`` node of ``trees`` reads."""
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The ``_name`` functions, classes and methods (dunders aside) that the
    modules ``sources`` (file name -> source) define and no ``Name`` or
    ``Attribute`` node of theirs reads, as ``file:line name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    return [
        f"{name}:{node.lineno} {node.name}" for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name.startswith("_")
        and not node.name.endswith("__") and node.name not in read
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


def public_definitions(tree):
    """The public module-level functions and classes of ``tree``, and the
    public methods and properties of its module-level classes, as
    (qualified name, node) pairs."""
    for node in (n for n in tree.body if isinstance(n, DEFINITIONS)):
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, DEFINITIONS) and not m.name.startswith("_"))


def unread_public_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The public definitions (``public_definitions``) that the modules
    ``sources`` (file name -> source) make and no ``Name`` or ``Attribute``
    node of the modules ``readers`` reads, as ``file:line name``."""
    read = names_read(ast.parse(source) for source in readers)
    return [
        f"{name}:{node.lineno} {qualified}" for name, source in sources.items()
        for qualified, node in public_definitions(ast.parse(source)) if node.name not in read
    ]


def test_the_public_scan_finds_an_unread_definition():
    module = (
        "def used(): pass\n"
        "def unread():\n"
        "    def inner(): pass\n"
        "class Unread: pass\n"
        "class _Private: pass\n"
        "class Read: pass\n"
    )
    reader = "from a import used\nimport a\nused()\na.Read()\n"
    assert unread_public_definitions({"a.py": module}, [reader]) == [
        "a.py:2 unread", "a.py:4 Unread",
    ]


def test_the_public_scan_finds_an_unread_method_or_property():
    module = (
        "class Model:\n"
        "    def fit(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def unread_size(self): return 1\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "    class Inner: pass\n"
        "class _Hidden:\n"
        "    def unread_too(self): pass\n"
    )
    reader = "from a import Model\nm = Model()\nm.fit()\nprint(m.size, m.Inner)\n"
    assert unread_public_definitions({"a.py": module}, [reader]) == [
        "a.py:3 Model.unread", "a.py:7 Model.unread_size", "a.py:12 _Hidden.unread_too",
    ]


def test_the_public_scan_reads_the_tests_and_benchmark_scripts():
    names = {p.relative_to(ROOT).as_posix() for p in READERS}
    assert {"src/driftstream/cli.py", "tests/test_cli.py", "perfbench/tracer.py"} <= names
    assert not any(name.startswith("perfbench/reference/") for name in names)


def test_no_unread_public_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_public_definitions(sources, readers) == []


# The public definitions that only the tests read, each with why it stays.
READ_ONLY_BY_TESTS = {
    "PageHinkley.statistic": "a run trace is to write it at each alarm (ROADMAP item 4)",
    "NaiveBayesModel.cat_counts": "the reference fit and update in test_naive_bayes.py write"
                                  " through it",
    "inverse_boxcox": "acceptance criterion 7",
    "fit_target_bins": "acceptance criterion 7",
    "bin_target": "the per-value reference of BinBoundaries.classes",
    "exact_bayes_accuracy": "the generator's oracle",
}


def test_only_the_named_definitions_are_read_by_the_tests_alone():
    # a new definition that only tests read is deleted, given a consumer or named above
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS if p not in TESTS]
    unread = unread_public_definitions(sources, readers)
    assert sorted(entry.split(" ", 1)[1] for entry in unread) == sorted(READ_ONLY_BY_TESTS)
