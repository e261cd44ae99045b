"""Every function the package's solver modules define runs in some command.

The census runs CI's two command lists (the heredocs ``<<'EXIT0'`` and
``<<'EXIT2'``), the default ``sweep-lambda`` and the ``cli-mix`` ops of
seeds 1 and 2 through ``cli.main``, in a fresh interpreter under
``sys.setprofile``, and compares the code objects they enter with every
``def`` in the modules of :data:`MODULES`.  Class bodies, lambdas and
comprehensions are not defs here.  The interpreter is fresh so that no
``lru_cache`` filled by another test stands in for a call, and the profile
is set before the package is imported, so a def that runs at import counts.
A def no command enters is either deleted or named in :data:`UNREACHED`
with the reason it stays, and no function of ``lincontrol.__all__`` may be
one of them.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lincontrol
from test_cli import SRC, ci_command_lists

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workloads import cli_mix  # noqa: E402

#: the modules whose defs the census counts
MODULES = ("cli", "model", "sta", "oct", "expsums", "numerics", "floattext")

_BENCHMARK = "bound by benchmarks/spans.py and run only by the benchmark's ops"

#: ``{module.qualified name: why no command enters it}``
UNREACHED = {
    "cli.run": "the console entry point: it runs only in a process of its own, and calls main",
    "model._Record.__setattr__": "a guard: it refuses an assignment, and no command makes one",
    "model._Record.__delattr__": "a guard: it refuses a deletion, and no command makes one",
    "model.ControlProblem._make": "a guard: the named tuple's _make would skip the checks; no command calls it",
    "model.cost_functional": f"the quadrature oracle of the oracle-check workload; {_BENCHMARK}",
    "model.cost_functional.<locals>.integrand": f"the quadrature oracle's integrand; {_BENCHMARK}",
    "numerics.integrate": f"the quadrature oracle's rule; {_BENCHMARK}",
    "numerics.eigendecompose": f"no solve calls it; {_BENCHMARK}",
    "model.Trajectory.sample": f"one time's rows as a dict; {_BENCHMARK}",
    "expsums.ExpSum.value": f"real_values of one sum; {_BENCHMARK}",
    "sta.assemble_gram": f"gram behind a conditioning check; {_BENCHMARK}",
    "sta.ExponentialAnsatz.gram": f"the exponential family's cost as a form; {_BENCHMARK}",
    "expsums.product_integral": "undeclared, and no command or op calls it: the packaging's squares take "
                                "square_integrals; benchmarks/spans.py binds it, so it goes with its span in "
                                "ROADMAP item 4a",
}

_CENSUS = (
    "import contextlib, io, json, os, sys\n"
    "entered = set()\n"
    "def hook(frame, event, arg):\n"
    "    if event == 'call':\n"
    "        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
    "sys.setprofile(hook)\n"
    "from lincontrol import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        try:\n"
    "            cli.main(argv)\n"
    "        except SystemExit:  # --version exits through argparse\n"
    "            pass\n"
    "sys.setprofile(None)\n"
    "package = os.path.dirname(cli.__file__)\n"
    "json.dump(sorted([os.path.basename(f)[:-3], line] for f, line in entered\n"
    "                 if os.path.dirname(f) == package), sys.stdout)\n"
)


def census_commands():
    """CI's ``EXIT0`` and ``EXIT2`` lists, the default sweep and cli-mix seeds 1 and 2: the argvs the census runs."""
    exit0, exit2 = ci_command_lists()
    return exit0 + exit2 + [["sweep-lambda"]] + [op["argv"] for seed in (1, 2) for op in cli_mix(seed)]


def defs(module):
    """``{first line: qualified name}`` of every def in the package module ``module``.

    A def's first line is that of its first decorator, as its code object's
    ``co_firstlineno`` is; a nested def is named ``outer.<locals>.inner``.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[min([child.lineno] + [d.lineno for d in child.decorator_list])] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    path = Path(lincontrol.__file__).parent / f"{module}.py"
    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


@pytest.fixture(scope="module")
def census():
    """``(every def, the defs some command enters)``, each a set of ``module.qualified name``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CENSUS, json.dumps(census_commands())],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
    )
    entered = {tuple(pair) for pair in json.loads(proc.stdout)}
    every = {module: defs(module) for module in MODULES}
    names = {f"{module}.{name}" for module, found in every.items() for name in found.values()}
    reached = {f"{module}.{every[module][line]}" for module, line in entered if line in every.get(module, {})}
    return names, reached


def test_every_def_is_entered_by_a_command_or_says_why_not(census):
    names, reached = census
    assert sorted(names - reached - set(UNREACHED)) == []


def test_no_def_on_the_allow_list_is_entered(census):
    _, reached = census
    assert sorted(reached & set(UNREACHED)) == []


def test_every_def_on_the_allow_list_exists(census):
    names, _ = census
    assert sorted(set(UNREACHED) - names) == []


def test_every_declared_function_is_entered(census):
    _, reached = census
    declared = [getattr(lincontrol, name) for name in lincontrol.__all__]
    functions = [f"{f.__module__.rpartition('.')[2]}.{f.__qualname__}" for f in declared if inspect.isfunction(f)]
    assert len(functions) == 14
    assert sorted(set(functions) - reached) == []
