"""Committed mutants that the tier-1 checks must kill.

Each mutant is applied in-process with ``monkeypatch`` (no source file is
changed) and the check that owns it, shared with the owning test, must then
fail.  Adding a mutant here records that a change it stands for is caught.
"""

from __future__ import annotations

import pytest

from kacscope import reductions
from test_reductions import check_end_table_coverage

_PARTS = ("|R_J|", "c^J", "n", "c_J")


def _plus_one(values, at):
    return tuple(v + (t == at) for t, v in enumerate(values))


def test_the_unchanged_program_passes_the_coverage_check():
    """So that each mutant below is killed by what it changes."""
    assert check_end_table_coverage(8) == (723, 403, 60)


@pytest.mark.parametrize("at", range(4), ids=_PARTS)
@pytest.mark.parametrize("state", list(reductions._END))
def test_a_changed_end_table_entry_fails_the_coverage_check(monkeypatch, state, at):
    real = reductions._END[state]
    monkeypatch.setitem(reductions._END, state, lambda s: _plus_one(real(s), at))
    with pytest.raises(AssertionError):
        check_end_table_coverage(8)


@pytest.mark.parametrize("at", range(4), ids=_PARTS)
def test_a_changed_gap_step_fails_the_coverage_check(monkeypatch, at):
    monkeypatch.setattr(reductions, "_GAP", _plus_one(reductions._GAP, at))
    with pytest.raises(AssertionError):
        check_end_table_coverage(8)
