"""Span recording around the package's public functions, from outside.

:class:`Recorder` wraps functions and methods of ``lincontrol`` where their
callers bind them: ``lincontrol.sta.solve_linear`` and
``lincontrol.oct.solve_linear`` are separate bindings of one function, and
each is patched.  A span holds its name, start, end, parent span, the op it
belongs to and whether the call raised.  Spans stay in memory in flat arrays;
the aggregate call tree is written once, when the traced run ends.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so the children of one span never overlap
and the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
from array import array
from time import perf_counter

#: (module or class, attribute, span name); every binding a caller uses
TARGETS = (
    ("lincontrol.sta", "build_polynomial", "sta.build"),
    ("lincontrol.sta", "build_trigonometric", "sta.build"),
    ("lincontrol.sta", "build_exponential", "sta.build"),
    ("lincontrol.cli", "build_polynomial", "sta.build"),
    ("lincontrol.cli", "build_trigonometric", "sta.build"),
    ("lincontrol.cli", "build_exponential", "sta.build"),
    ("lincontrol.sta:AnsatzFamily", "gram", "sta.gram"),
    ("lincontrol.sta:ExponentialAnsatz", "gram", "sta.gram"),
    ("lincontrol.sta", "assemble_gram", "sta.assemble_gram"),
    ("lincontrol.sta", "solve_sta", "sta.solve_sta"),
    ("lincontrol.cli", "solve_sta", "sta.solve_sta"),
    ("lincontrol.sta", "minimize_quadratic", "numerics.minimize_quadratic"),
    ("lincontrol.sta", "solve_linear", "numerics.solve_linear"),
    ("lincontrol.oct", "solve_linear", "numerics.solve_linear"),
    ("lincontrol.oct", "eigendecompose", "numerics.eigendecompose"),
    ("lincontrol.oct:PontryaginFlow", "spectrum", "oct.spectrum"),
    ("lincontrol.oct", "build_lq", "oct.build_lq"),
    ("lincontrol.cli", "build_lq", "oct.build_lq"),
    ("lincontrol.oct", "solve_regular", "oct.solve_regular"),
    ("lincontrol.cli", "solve_regular", "oct.solve_regular"),
    ("lincontrol.oct", "regular_order1_analytic", "oct.regular_order1_analytic"),
    ("lincontrol.cli", "regular_order1_analytic", "oct.regular_order1_analytic"),
    ("lincontrol.oct", "singular_solution", "oct.singular_solution"),
    ("lincontrol.cli", "singular_solution", "oct.singular_solution"),
    ("lincontrol.oct", "singular_consistency_check", "oct.singular_consistency_check"),
    ("lincontrol.cli", "singular_consistency_check", "oct.singular_consistency_check"),
    ("lincontrol.expsums", "product_integral", "expsums.product_integral"),
    ("lincontrol.expsums:ExpSum", "value", "expsums.value"),
    ("lincontrol.model:Trajectory", "sample", "model.sample"),
    ("lincontrol.model", "sample_table", "model.sample_table"),
    ("lincontrol.model", "csv_text", "model.csv_text"),
    ("lincontrol.model", "cost_functional", "model.cost_functional"),
    ("lincontrol.model", "integrate", "numerics.integrate"),
    ("lincontrol.model", "verify_boundaries", "model.verify_boundaries"),
    ("lincontrol.cli", "verify_boundaries", "model.verify_boundaries"),
    ("lincontrol.cli", "solution_summary", "cli.summary"),
    ("lincontrol.cli", "_json", "cli.json"),
    ("lincontrol.cli", "csv_text", "cli.csv"),
    ("lincontrol.cli", "_sweep_csv", "cli.csv"),
    ("lincontrol.cli", "table1_report", "cli.tables"),
    ("lincontrol.cli", "table2_report", "cli.tables"),
    ("lincontrol.cli", "run_validation", "cli.validation"),
    ("lincontrol.cli", "sweep_lambda", "cli.sweep"),
)


class Recorder:
    """In-memory span store; records only while :attr:`active` is true."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = []

    def __len__(self):
        return len(self.name_id)

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks an op's output."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, fn, nested=True):
        """Return ``fn`` wrapped in a span; ``nested=False`` folds direct recursion into one span."""
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if not self.active or (not nested and stack and self.name_id[stack[-1]] == sid):
                return fn(*args, **kwargs)
            i = len(self.name_id)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_index.append(self.op)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Patch every binding in :data:`TARGETS`; returns a callable that undoes it."""
        undo = []
        for where, attr, name in TARGETS:
            modname, _, clsname = where.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, nested=attr != "_json")
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        cli = importlib.import_module("lincontrol.cli")
        build_parser = cli._parser

        def traced_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        cli._parser = self.wrap("cli.parse", traced_parser)
        undo.append((cli, "_parser", build_parser))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def aggregate(self):
        """Per span name: calls, total_ms, self_ms, failed; plus the parent->child edges."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        per_name = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "failed": 0} for name in self.names}
        edges = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            row = per_name[name]
            row["calls"] += 1
            row["total_ms"] += dur[i] * 1e3
            row["self_ms"] += (dur[i] - covered[i]) * 1e3
            row["failed"] += self.failed[i]
            p = self.parent[i]
            key = f"{self.names[self.name_id[p]] if p >= 0 else '<op>'} > {name}"
            edge = edges.setdefault(key, {"calls": 0, "total_ms": 0.0})
            edge["calls"] += 1
            edge["total_ms"] += dur[i] * 1e3
        return per_name, edges

    def under(self, ancestor):
        """For every span, whether it is ``ancestor`` or lies inside one."""
        sid = self._ids.get(ancestor, -1)
        inside = array("b", bytes(len(self.name_id)))
        for i in range(len(self.name_id)):
            p = self.parent[i]
            inside[i] = self.name_id[i] == sid or (p >= 0 and inside[p])
        return inside

    def dump(self, path, extra):
        """Write the aggregate call tree once, at the end of the traced run."""
        per_name, edges = self.aggregate()
        with open(path, "w") as fh:
            json.dump({"spans": len(self), "per_name": per_name, "edges": edges, **extra}, fh, indent=1)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr):
    """Import breakdown from ``python -X importtime -c 'import lincontrol'``.

    ``total`` is the cumulative time of the ``lincontrol`` package; ``numpy``
    and ``scipy`` are the cumulative times of the imports of each that no
    numpy or scipy module triggered (numpy modules pulled in by scipy count
    as scipy); ``lincontrol_self`` sums the self time of the package's own
    modules.  All in milliseconds.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    out = {"total_ms": 0.0, "numpy_ms": 0.0, "scipy_ms": 0.0, "lincontrol_self_ms": 0.0}
    # importtime prints a module after everything it imported, one indent deeper per level;
    # read backwards, each module comes right after its ancestors
    ancestors = []
    for self_us, cum_us, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "lincontrol":
            out["lincontrol_self_ms"] += self_us / 1e3
            if name == "lincontrol":
                out["total_ms"] = cum_us / 1e3
        elif top in ("numpy", "scipy") and all(a[1] not in ("numpy", "scipy") for a in ancestors):
            out[f"{top}_ms"] += cum_us / 1e3
        ancestors.append((depth, top))
    return out
