"""Every public export resolves, so a deleted name cannot linger in an
``__all__`` list; and the result records stay named tuples."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import kacscope
from kacscope import affine, ellreg, kac, reductions, thomae
from kacscope.affine import Bond, DiagramId


@pytest.mark.parametrize("module", [kacscope, affine, kac], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


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
