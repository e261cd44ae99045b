"""The benchmark's span bindings, ``benchmarks/spans.py``, against the package.

Every span target names a function or method of ``lincontrol`` where a
caller binds it; a renamed or removed binding fails here, not only in the
traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import spans  # noqa: E402
from lincontrol import cli  # noqa: E402


def bindings():
    """``(owner, attribute, bound object)`` of every span target, as the package binds them now."""
    out = []
    for where, attr, _ in spans.TARGETS:
        modname, _, clsname = where.partition(":")
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_install_wraps_every_target_and_undo_restores_it():
    originals = bindings()
    assert len(originals) == 43
    parser = cli._parser
    undo = spans.Recorder().install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        assert cli._parser is not parser
    finally:
        undo()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert cli._parser is parser
