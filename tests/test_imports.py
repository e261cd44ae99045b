"""The package imports numpy and a few standard modules, and nothing else.

Each module the package imports is paid for by every ``lincontrol`` process
at start-up.  The check reads the source, so it does not depend on what the
interpreter or numpy import on their own.  Every name a module imports is
also used there, so a deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import lincontrol

#: the top-level modules the package may import
ALLOWED = {"__future__", "argparse", "functools", "gc", "math", "numpy", "sys", "types", "typing"}

SOURCES = sorted(Path(lincontrol.__file__).parent.glob("*.py"))

#: the benchmark's span table, whose ``TARGETS`` bind names on package modules
SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def absolute_imports(path):
    """The top-level module of every absolute import in the file ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_every_module_is_read():
    names = {path.stem for path in SOURCES}
    assert names >= {"__init__", "__main__", "cli", "expsums", "model", "numerics", "oct", "sta"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_on_the_allow_list(path):
    assert absolute_imports(path) - ALLOWED == set()


def span_bindings():
    """``{module stem: names}`` that ``TARGETS`` in the span table binds on each package module, read from its source."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    bound = {}
    for where, attr, _ in ast.literal_eval(table):
        module, _, cls = where.partition(":")
        if not cls:
            bound.setdefault(module.rpartition(".")[2], set()).add(attr)
    return bound


def unused_imports(path):
    """The names the file ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # a name the benchmark binds on the module stays importable there
    assert unused_imports(path) - span_bindings().get(path.stem, set()) == set()


def test_span_bindings_are_the_only_exemption():
    # no solve calls eigendecompose; it stays on oct for the span table alone
    exempt = {(path.stem, name) for path in SOURCES if path.name != "__init__.py" for name in unused_imports(path)}
    assert exempt == {("oct", "eigendecompose")}
