"""``tests/code_lines.py`` counts code lines on a small fixture as its docstring says."""

import subprocess
import sys
from pathlib import Path

import lincontrol

from code_lines import code_lines, counts, defs, table
from test_census import MODULES, defs as census_defs

TOOL = Path(__file__).resolve().parent / "code_lines.py"
SRC = Path(lincontrol.__file__).parent

#: 7 code lines: the import, the two lines of x, the def, its return, the class line and its attribute
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# a comment line
x = [1,
     2]


def f():
    """A function docstring."""
    return math.pi


class C:
    """A class docstring
    over two lines."""

    attribute = 1
'''

#: 4 code lines: a string that is not a docstring counts every line it spans
STRINGS = '''x = 1
"""a bare string after the first statement
is not a docstring"""
y = f"""{x}"""
'''


def test_fixture_counts():
    assert code_lines(FIXTURE) == 7
    assert code_lines(STRINGS) == 4
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


#: 5 defs: a function, the function nested in it, a method, an async function and a decorated one
DEFS = '''import functools


def outer():
    def inner():
        return 1
    return inner


class C:
    def method(self):
        return lambda: 2


async def waiting():
    return [x for x in range(3)]


@functools.lru_cache
def cached():
    return 3
'''


def test_defs_counts_every_def_as_the_census_does():
    assert defs(DEFS) == 5
    assert defs(FIXTURE) == 1
    assert defs(STRINGS) == 0
    assert defs("") == 0


def test_defs_of_the_package_match_the_census():
    for module in MODULES:
        path = SRC / f"{module}.py"
        assert defs(path.read_text()) == len(census_defs(module)), module


def test_table_has_a_column_per_directory_and_a_total(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "a.py").write_text(FIXTURE)
    (head / "a.py").write_text(FIXTURE)
    (head / "b.py").write_text(STRINGS)
    (head / "notes.txt").write_text("x = 1\n")
    assert counts(head) == {"a.py": 7, "b.py": 4}
    assert table([base, head]).splitlines() == [
        f"| module | {base} | {head} |",
        "| --- | ---: | ---: |",
        "| a.py | 7 | 7 |",
        "| b.py | 0 | 4 |",
        "| total | 7 | 11 |",
        "| defs | 1 | 1 |",
    ]


def test_command_line_prints_the_table(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout == table([tmp_path]) + "\n"
