"""Each module imports on its own, and the CLI loads only the modules it
uses; the result records stay named tuples."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kacscope
from kacscope import affine, ellreg, reductions, thomae
from kacscope.affine import Bond, DiagramId

SRC = Path(__file__).resolve().parents[1] / "src"
_MODULES = ["affine", "cli", "dynkin", "ellreg", "kac", "reductions", "thomae"]


@pytest.mark.parametrize("module", _MODULES)
def test_each_module_imports_on_its_own(module):
    """A fresh process imports one module, so no import order that another
    module fixes can hide a cycle; the CLI loads no ``reductions``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = (f"import sys, kacscope.{module}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('kacscope')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    if module == "cli":
        used = [f"kacscope.{name}" for name in _MODULES if name != "reductions"]
        assert proc.stdout.split() == ["kacscope", *used]


_RECORDS = [affine.Bond, affine.DiagramId, ellreg.ClassRow, ellreg.Crosscheck,
            thomae.EqualityClass, thomae.DiagramScan, thomae.StepRow,
            reductions.SwitchResult, reductions.CaseMatch]


def test_only_two_classes_are_dataclasses():
    """Building a dataclass costs about 1 ms of start-up in every process,
    a named tuple about a tenth of that, and every run of kacscope starts a
    process.  ``ReductionTrace`` stays one for ``dataclasses.replace``, and
    ``FiniteFactor`` for the ``root_count`` and ``display_key`` it caches."""
    modules = [importlib.import_module(f"kacscope.{info.name}")
               for info in pkgutil.iter_modules(kacscope.__path__)]
    found = {name for module in modules for name, cls in inspect.getmembers(module, inspect.isclass)
             if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == {"ReductionTrace", "FiniteFactor"}
    assert all(issubclass(cls, tuple) and cls._fields for cls in _RECORDS)


def test_records_keep_their_defaults_order_and_repr():
    assert Bond(0, 1).mult == 1 and Bond(0, 1).tip is None
    idents = [DiagramId(2, "D", 5), DiagramId(1, "E", 6), DiagramId(1, "A", 7), DiagramId(1, "A", 3)]
    assert sorted(idents) == sorted(idents, key=lambda i: (i.e, i.family, i.base_rank))
    assert [str(i) for i in sorted(idents)] == ["A3", "A7", "E6", "2D5"]
    for cls in _RECORDS:
        record = cls._make(range(len(cls._fields)))
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, record))
        assert repr(record) == f"{cls.__name__}({fields})"
