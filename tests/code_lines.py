"""Count the code lines of the package's modules, per module and in total.

A code line is a non-blank line that holds code: blank lines, comments and
docstrings (the string that opens a module, class or function body) do not
count, and a statement or a string that spans lines counts every line it
spans.

    python tests/code_lines.py [DIR ...]

prints a Markdown table with one column per directory of ``*.py`` modules
(default: this checkout's ``src/lincontrol``), one row per module, a
``total`` row and a ``defs`` row, the number of ``def`` statements in the
directory's modules, nested ones and methods included, as
``tests/test_census.py`` counts them; a module missing from a directory
reads 0.  CI writes the table of a pull request's base and head to the job
summary, so a change shows the helpers it removes as well as its lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: the tokens that hold no code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of the Python text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def defs(source):
    """The number of ``def`` statements in the Python text ``source``, nested ones and methods included."""
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(ast.parse(source)))


def counts(directory):
    """``{module file name: code lines}`` of every ``*.py`` file in ``directory``, in name order."""
    return {path.name: code_lines(path.read_text()) for path in sorted(Path(directory).glob("*.py"))}


def table(directories):
    """The Markdown table of :func:`counts` of each of ``directories``, one column each, with a total
    row and a row of the :func:`defs` in each directory."""
    columns = [counts(directory) for directory in directories]
    lines = ["| module | " + " | ".join(map(str, directories)) + " |", "| --- |" + " ---: |" * len(columns)]
    for name in sorted(set().union(*columns)):
        lines.append(f"| {name} | " + " | ".join(str(column.get(name, 0)) for column in columns) + " |")
    lines.append("| total | " + " | ".join(str(sum(column.values())) for column in columns) + " |")
    totals = [sum(defs(path.read_text()) for path in Path(directory).glob("*.py")) for directory in directories]
    lines.append("| defs | " + " | ".join(map(str, totals)) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(sys.argv[1:] or [Path(__file__).resolve().parent.parent / "src" / "lincontrol"]))
