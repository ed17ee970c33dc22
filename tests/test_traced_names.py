"""The functions the benchmark's tracer wraps by name must stay in the package.

`perfbench/run.py --trace 1` looks each name of `layertrace.LAYERS` up with a
bare getattr, so a function deleted from the package breaks the traced run
while every other test still passes.
"""
import importlib
import os
import sys

from repherd import linalg

from tests.conftest import ROOT

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import layertrace  # noqa: E402


def test_every_traced_name_resolves():
    missing = []
    for layer, (modname, names) in layertrace.LAYERS.items():
        mod = importlib.import_module(modname)
        missing += ["%s.%s (%s)" % (modname, name, layer) for name in names if not callable(getattr(mod, name, None))]
    assert missing == []
    assert len(layertrace.Tracer().originals()) == sum(len(names) for _, names in layertrace.LAYERS.values())


def test_solve_linear_is_an_alias_of_solve():
    """The tracer wraps solve once and catches the alias by identity."""
    assert linalg.solve_linear is linalg.solve
