"""The package imports numpy and a few standard modules, and nothing else.

Each module the package imports is paid for by every ``lincontrol`` process
at start-up.  The check reads the source, so it does not depend on what the
interpreter or numpy import on their own.
"""

import ast
from pathlib import Path

import pytest

import lincontrol

#: the top-level modules the package may import
ALLOWED = {"__future__", "argparse", "functools", "gc", "math", "numpy", "sys", "types", "typing"}

SOURCES = sorted(Path(lincontrol.__file__).parent.glob("*.py"))


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
