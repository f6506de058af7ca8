"""Every public export resolves, so a deleted name cannot linger in an
``__all__`` list."""

from __future__ import annotations

import pytest

import kacscope
from kacscope import affine, kac


@pytest.mark.parametrize("module", [kacscope, affine, kac], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
