"""Committed mutants that the tier-1 checks must kill.

Each mutant is applied in-process with ``monkeypatch`` (no source file is
changed) and the check that owns it, shared with the owning test, must then
fail.  Adding a mutant here records that a change it stands for is caught.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import test_reductions
from kacscope import kac, reductions, thomae
from kacscope.affine import Diagram
from test_cli import GENERATOR_FAULTS, check_generator_fault
from test_kac import check_walk_matches_leaf_only
from test_reductions import (
    check_a_changed_bond_in_J_is_caught,
    check_case_lines,
    check_cases_agree_with_decomposition,
    check_end_table_coverage,
)
from test_thomae import check_class_fields_agree

_PARTS = ("|R_J|", "c^J", "n", "c_J")


def _plus_one(values, at):
    return tuple(v + (t == at) for t, v in enumerate(values))


def test_the_unchanged_program_passes_the_coverage_check():
    """So that each mutant below is killed by what it changes."""
    assert check_end_table_coverage(8) == (723, 403, 60)


def test_the_unchanged_program_passes_the_line_and_form_checks():
    check_case_lines(8)
    assert check_cases_agree_with_decomposition(7) == 677


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


def _swapped(m, a, b):
    return replace(m, params=m.params | {a: m.params[b], b: m.params[a]})


def _shifted(m, key):
    return replace(m, params=m.params | {key: m.params[key] + 1})


def _mutate_matches(monkeypatch, change):
    """Make ``match_case``, as the checks call it, return ``change(m)``."""
    real = test_reductions.match_case
    monkeypatch.setattr(test_reductions, "match_case", lambda d, J: (m := real(d, J)) and change(m))


@pytest.mark.parametrize("change", [
    pytest.param(lambda m: _swapped(m, "sL", "sR"), id="sL-sR-swapped"),
    pytest.param(lambda m: _shifted(m, "gL"), id="gL-plus-one"),
    pytest.param(lambda m: _shifted(m, "gR"), id="gR-plus-one"),
    pytest.param(lambda m: replace(m, name=" / ".join(m.name.split(" / ")[::-1])),
                 id="states-swapped"),
])
def test_a_changed_match_fails_the_coverage_check(monkeypatch, change):
    _mutate_matches(monkeypatch, change)
    with pytest.raises(AssertionError):
        check_end_table_coverage(8)


def test_swapped_gaps_fail_the_golden_line_check(monkeypatch):
    """With an interior run f sees only gL + gR, so the coverage check
    passes this mutant; the recorded lines do not."""
    _mutate_matches(monkeypatch, lambda m: _swapped(m, "gL", "gR"))
    check_end_table_coverage(8)
    with pytest.raises(AssertionError):
        check_case_lines(8)


def test_a_shifted_alpha_fails_the_rebuilt_form_check(monkeypatch):
    """alpha + q - 1 in greek_decomposition reaches every match; the
    alpha rebuilt from the params alone does not move with it."""
    real = reductions.greek_decomposition
    monkeypatch.setattr(reductions, "greek_decomposition",
                        lambda graph, J: (g := real(graph, J))._replace(alpha=g.alpha + g.q - 1))
    with pytest.raises(AssertionError):
        check_cases_agree_with_decomposition(7)


def test_the_unchanged_program_passes_the_changed_bond_check(monkeypatch):
    for change in ("drop", "multiply"):
        check_a_changed_bond_in_J_is_caught(monkeypatch, change)


@pytest.mark.parametrize("change", ["drop", "multiply"])
def test_induced_bonds_that_see_no_bond_fail_the_changed_bond_check(monkeypatch, change):
    """``_induced_bonds`` empty: the comparison after each contraction always
    passes, so a changed bond inside J goes unseen."""
    monkeypatch.setattr(Diagram, "_induced_bonds", lambda self, mask: ())
    with pytest.raises(AssertionError, match="missed"):
        check_a_changed_bond_in_J_is_caught(monkeypatch, change)


def test_induced_bonds_that_see_every_bond_fail_the_changed_bond_check(monkeypatch):
    """``_induced_bonds`` giving every bond: the first contraction deletes
    one, so the untampered trace fails the comparison."""
    monkeypatch.setattr(Diagram, "_induced_bonds", lambda self, mask: self.bonds)
    with pytest.raises(AssertionError, match="root system of J"):
        check_a_changed_bond_in_J_is_caught(monkeypatch, "drop")


def test_the_unchanged_program_passes_the_class_checks(capsys, monkeypatch):
    assert check_class_fields_agree(4) == 270
    check_generator_fault(capsys, monkeypatch, GENERATOR_FAULTS["gcd-2"])
    check_walk_matches_leaf_only(4, 6)


def test_one_root_too_many_fails_the_class_field_check(monkeypatch):
    """The cached type and root count of a factor tuple, one root high."""
    real = thomae._type_and_roots
    monkeypatch.setattr(thomae, "_type_and_roots", lambda factors: (
        (t := real(factors))[0], t[1] + 1))
    with pytest.raises(AssertionError):
        check_class_fields_agree(4)


def test_no_gcd_check_in_enumerate_fails_the_generator_fault_check(capsys, monkeypatch):
    """The admissibility check that enumerate runs on each class, without its
    gcd: 2,0,0 has order 2 on G2, so only the gcd makes it an internal error."""
    monkeypatch.setattr(kac, "is_admissible", lambda s: min(s, default=0) >= 0)
    with pytest.raises(AssertionError):
        check_generator_fault(capsys, monkeypatch, GENERATOR_FAULTS["gcd-2"])


def test_a_leaf_gcd_without_its_middle_entry_fails_the_leaf_only_walk_check(monkeypatch):
    """The walk's leaf step takes gcd(prefix's gcd, s[last - 1], s[last]); with the middle
    entry dropped it loses each class whose prefix and last entry share a factor."""
    real = kac.gcd
    monkeypatch.setattr(kac, "gcd", lambda *a: real(a[0], a[2]) if len(a) == 3 else real(*a))
    with pytest.raises(AssertionError):
        check_walk_matches_leaf_only(4, 6)
