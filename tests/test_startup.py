"""Start-up: importing the command line generates no code, and the plain classes of the package
keep the equality, hashing, repr and defaults that their callers read."""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import repherd
from repherd.algebra import Path
from repherd.catalog import Budget
from repherd.checks import CheckReport
from repherd.cli import build_parser
from repherd.dims import DimValue

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repherd.__file__)))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh process that imports repherd.cli loads no code generator, nor tempfile, which
    pulls in shutil, bz2 and lzma; -S keeps site-packages' start-up hooks out of the count."""
    code = "import sys, repherd.cli; print(sorted({'dataclasses', 'inspect', 'tempfile'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_class_of_the_package_is_a_dataclass():
    for info in pkgutil.iter_modules(repherd.__path__):
        module = importlib.import_module("repherd." + info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert not hasattr(cls, "__dataclass_fields__"), "%s.%s" % (module.__name__, name)


def test_path_is_a_value():
    p = Path(0, (1, 2))
    assert p == Path(0, (1, 2)) and hash(p) == hash(Path(0, (1, 2)))
    assert p != Path(0, (1,)) and p != Path(1, (1, 2)) and p != (0, (1, 2))
    assert len({p, Path(0, (1, 2)), Path(0, ())}) == 2
    assert repr(p) == "Path(start=0, arrows=(1, 2))"
    assert repr(Path(3, ())) == "Path(start=3, arrows=())"


def test_dim_value_is_a_value_with_its_text():
    three, inf, two_up = DimValue.finite(3), DimValue.infinite(), DimValue.at_least(2)
    assert three == DimValue("finite", 3) and hash(three) == hash(DimValue("finite", 3))
    assert three != DimValue.at_least(3) and inf == DimValue("infinite", None) and two_up != 2
    assert len({three, inf, two_up, DimValue.finite(3)}) == 3
    assert repr(three) == "DimValue(kind='finite', value=3)"
    assert repr(inf) == "DimValue(kind='infinite', value=None)"
    assert repr(two_up) == "DimValue(kind='at_least', value=2)"
    assert [str(d) for d in (three, inf, two_up)] == ["3", "infinite", ">=2"]
    assert [d.to_json() for d in (three, inf, two_up)] == [{"finite": 3}, "infinite", {"at_least": 2}]


def test_check_reports_never_share_a_list():
    a, b = CheckReport("x", "Holds"), CheckReport("y", "Fails")
    a.witnesses.append("w")
    a.notes.append("n")
    assert (b.witnesses, b.notes) == ([], [])
    assert CheckReport("z", "Holds").to_json() == {"check": "z", "verdict": "Holds", "witnesses": [], "notes": []}


def test_budget_defaults_are_the_command_lines():
    budget = Budget()
    assert (budget.max_modules, budget.max_total_dim) == (64, 128)
    assert (Budget.max_modules, Budget.max_total_dim) == (64, 128)
    assert (Budget(7).max_modules, Budget(7).max_total_dim) == (7, 128)
    args = build_parser().parse_args(["check", "algebra.json"])
    assert (args.budget_modules, args.budget_dim) == (Budget.max_modules, Budget.max_total_dim)
