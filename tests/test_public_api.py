"""The declared public surface, ``lincontrol.__all__``, against the README, the CLI and the demos.

The README's "Public API" section lists the declared names; its examples
and the demos import only those, from ``lincontrol``, and every declared
error but the base ``NumericsError`` is the ``"error"`` of a command on
CI's exit-2 list.  That every declared function runs in some command is
checked by the census (``tests/test_census.py``).
"""

import ast
import json
import re
import types
import warnings
from pathlib import Path

import pytest

import lincontrol
from lincontrol.cli import main
from test_cli import ci_command_lists

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def public_api_section():
    """The names in backticks of the first list of the README's "Public API" section, in order."""
    section = README.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listing = section[section.index("\n- ") + 1 :].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", listing)


def imports(source):
    """``(module, name)`` of every name the source imports; ``name`` is None for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return found


def undeclared(found):
    """The imports of ``found`` other than ``from lincontrol import <a declared name>``."""
    return [(module, name) for module, name in found if module != "lincontrol" or name not in lincontrol.__all__]


def declared_errors():
    """The declared names that are exception classes."""
    return {
        name for name in lincontrol.__all__
        if isinstance(getattr(lincontrol, name), type) and issubclass(getattr(lincontrol, name), Exception)
    }


def test_all_has_no_duplicates_and_is_the_readme_list():
    assert len(set(lincontrol.__all__)) == len(lincontrol.__all__) == 30
    assert public_api_section() == lincontrol.__all__


def test_the_package_namespace_holds_only_declared_names_and_submodules():
    names = {
        name for name, value in vars(lincontrol).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert names == set(lincontrol.__all__) - {"__version__"}


def test_every_declared_error_but_the_base_is_printed_by_a_ci_exit_2_command(capsys):
    _, exit2 = ci_command_lists()
    printed = set()
    for argv in exit2:
        assert main(argv) == 2, argv
        printed.add(json.loads(capsys.readouterr().err)["error"])
    assert len(declared_errors()) == 9
    assert sorted(declared_errors() - {"NumericsError"} - printed) == []


BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_example_imports_declared_names_from_lincontrol_only(block):
    found = imports(block)
    assert found
    assert undeclared(found) == []


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_example_runs_with_warnings_as_errors(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_declared_names_from_lincontrol_only(path):
    # a submodule of the package, or a relative import, counts as the package
    package = [(module, name) for module, name in imports(path.read_text())
               if module.partition(".")[0] in ("", "lincontrol")]
    assert package
    assert undeclared(package) == []


def test_every_demo_is_scanned():
    assert len(DEMOS) == 4
