"""Committed mutants that the tier-1 checks must kill.

Each mutant is applied in-process with ``monkeypatch`` (no source file is
changed) and the check that owns it, shared with the owning test, must then
fail.  Adding a mutant here records that a change it stands for is caught.
"""

from __future__ import annotations

import inspect

import pytest

import test_reductions
from kacscope import cli, dynkin, kac, reductions, thomae
from kacscope.affine import Diagram
from test_cli import GENERATOR_FAULTS, check_generator_fault, check_violated_bound_is_reported
from test_dynkin import check_display_order, check_root_system_oracle_on_every_finite_type
from test_kac import (
    check_class_count_matches_burnside,
    check_refused_walk_stops_at_the_first_loop_past_the_budget,
    check_walk_is_admitted_at_exactly_its_charge,
    check_walk_matches_leaf_only,
)
from test_reductions import (
    check_a_changed_bond_in_J_is_caught,
    check_a_changed_label_in_J_is_caught,
    check_a_misreported_balance_drop_is_caught,
    check_case_lines,
    check_children_work_out_their_own_spine,
    check_cases_agree_with_decomposition,
    check_end_table_coverage,
    check_partners_in_J_are_refused,
    check_traces_replay,
)
from test_thomae import check_class_fields_agree, check_subset_tables_match_the_component_walk

_PARTS = ("|R_J|", "c^J", "n", "c_J")


def _rebuilt(monkeypatch, module, name, old, new):
    """Make ``module.name`` the function rebuilt from its source with the one
    occurrence of ``old`` replaced by ``new``, in the module's own namespace."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    built = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), built)
    monkeypatch.setattr(module, name, built[name])


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
    return m._replace(params=m.params | {a: m.params[b], b: m.params[a]})


def _shifted(m, key):
    return m._replace(params=m.params | {key: m.params[key] + 1})


def _mutate_matches(monkeypatch, change):
    """Make ``match_case``, as the checks call it, return ``change(m)``."""
    real = test_reductions.match_case
    monkeypatch.setattr(test_reductions, "match_case", lambda d, J: (m := real(d, J)) and change(m))


@pytest.mark.parametrize("change", [
    pytest.param(lambda m: _swapped(m, "sL", "sR"), id="sL-sR-swapped"),
    pytest.param(lambda m: _shifted(m, "gL"), id="gL-plus-one"),
    pytest.param(lambda m: _shifted(m, "gR"), id="gR-plus-one"),
    pytest.param(lambda m: m._replace(name=" / ".join(m.name.split(" / ")[::-1])),
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


def test_the_unchanged_program_passes_the_drop_and_spine_checks(monkeypatch):
    check_a_changed_label_in_J_is_caught(monkeypatch)
    check_a_misreported_balance_drop_is_caught(monkeypatch)
    assert check_children_work_out_their_own_spine(3) == 5


@pytest.mark.parametrize("kind, check", [
    ("contraction", check_a_changed_label_in_J_is_caught),
    ("balance step", check_a_misreported_balance_drop_is_caught),
])
def test_reduce_to_z_without_a_drop_equality_fails_its_drop_check(monkeypatch, kind, check):
    """The recomputed f is no longer compared with the predicted drop, so a
    wrong label or a wrong reported drop goes unseen."""
    raising = f'\n            raise AssertionError(\n                f"{kind}'
    _rebuilt(monkeypatch, reductions, "reduce_to_z", "f - new_f != predicted:" + raising,
             "False:" + raising)
    with pytest.raises(AssertionError, match="missed"):
        check(monkeypatch)


def test_a_child_inheriting_its_parents_spine_fails_the_spine_check(monkeypatch):
    """``contract`` hands each child its parent's memoised spine, so a child
    whose interior the contraction changed keeps the parent's."""
    _rebuilt(monkeypatch, reductions, "contract", "graph._contractions[i] = child",
             "graph._contractions[i] = child; child._spine = graph._spine")
    with pytest.raises(AssertionError):
        check_children_work_out_their_own_spine(3)


def test_the_unchanged_program_passes_the_partner_check():
    check_partners_in_J_are_refused()


def test_a_contraction_without_its_partner_check_fails_the_partner_check(monkeypatch):
    """``contract`` checks only that ``i`` is off J, so a node whose partners
    are all in J is deleted, on a memo hit or a miss."""
    _rebuilt(monkeypatch, reductions, "_partners",
             "i in J or (partners & -partners).bit_length() - 1 in J and "
             "partners.bit_length() - 1 in J:", "i in J:")
    with pytest.raises(AssertionError):
        check_partners_in_J_are_refused()


def test_the_unchanged_program_passes_the_replay():
    assert len(check_traces_replay(6)) == 844


@pytest.mark.parametrize("old, new, max_rank", [
    # C2 with J = {0} contracts its middle node 1 and records its partner, the tip 2,
    # read before the move; a tip is no move
    pytest.param("graph = contract(graph, J, i)",
                 "graph, i = contract(graph, J, i), nodes_of(graph.neighbours[i])[-1]", 2,
                 id="contraction-records-j"),
    # the first balance step, by rank, is C6's from J = {1, 2, 3, 5}
    pytest.param("tuple(nodes_of(mask))", "tuple(sorted(J))", 6,
                 id="balance-records-the-J-it-started-from"),
])
def test_a_misrecorded_move_fails_the_replay(monkeypatch, old, new, max_rank):
    """``reduce_to_z`` records a move other than the one it made, so the
    graph or the J rebuilt from it gives another f or another end."""
    _rebuilt(monkeypatch, reductions, "reduce_to_z", old, new)
    with pytest.raises(AssertionError):
        check_traces_replay(max_rank)


def test_the_unchanged_program_passes_the_class_checks(capsys, monkeypatch):
    assert check_class_fields_agree(4) == 270
    check_walk_matches_leaf_only(4, 6)
    check_generator_fault(capsys, monkeypatch, GENERATOR_FAULTS["gcd-2"])


def test_the_unchanged_program_passes_the_violated_bound_check(capsys, monkeypatch):
    check_violated_bound_is_reported(capsys, monkeypatch)


def test_the_unchanged_program_passes_the_budget_checks(monkeypatch):
    check_walk_is_admitted_at_exactly_its_charge(monkeypatch, "G2", 12)
    check_refused_walk_stops_at_the_first_loop_past_the_budget(monkeypatch, "G2", 12)


def test_one_root_too_many_fails_the_class_field_check(monkeypatch):
    """The cached type and root count of a factor tuple, one root high."""
    real = thomae._type_and_roots
    monkeypatch.setattr(thomae, "_type_and_roots", lambda factors: (
        (t := real(factors))[0], t[1] + 1))
    with pytest.raises(AssertionError):
        check_class_fields_agree(4)


def test_the_unchanged_program_passes_the_subset_table_check():
    assert check_subset_tables_match_the_component_walk(2) == (5, 27)


@pytest.mark.parametrize("old, new, error", [
    # the rest may hold a neighbour of C, so on every diagram some J = C | sub
    # is the full mask, one past the end of the tables
    pytest.param("above & ~C & ~near", "above & ~C", IndexError, id="rest-next-to-C"),
    pytest.param("r[J] = r_j = roots + r[sub]", "r[J] = r_j = r[sub]", AssertionError,
                 id="roots-of-C-dropped"),
])
def test_a_changed_subset_kernel_fails_the_component_walk_check(monkeypatch, old, new, error):
    _rebuilt(monkeypatch, thomae, "subset_tables", old, new)
    with pytest.raises(error):
        check_subset_tables_match_the_component_walk(2)


def test_f_skipped_at_each_connected_set_fails_the_component_walk_check(monkeypatch):
    """The kernel writes the entry J = C but leaves the submask loop before
    f is evaluated there, so f is kept only for sets with a nonempty rest.
    On A1 both nonempty proper zero sets are connected: no f is kept at all."""
    f_line = "                f = (label_sum - c_j) * r_j - n * c_j\n"
    _rebuilt(monkeypatch, thomae, "subset_tables", f_line,
             "                if not sub:\n                    break\n" + f_line)
    with pytest.raises(AssertionError):
        check_subset_tables_match_the_component_walk(1)


def test_no_gcd_check_in_enumerate_fails_the_generator_fault_check(capsys, monkeypatch):
    """The admissibility check that enumerate runs on each class, without its
    gcd: 2,0,0 has order 2 on G2, so only the gcd makes it an internal error."""
    monkeypatch.setattr(kac, "is_admissible", lambda s: min(s, default=0) >= 0)
    with pytest.raises(AssertionError):
        check_generator_fault(capsys, monkeypatch, GENERATOR_FAULTS["gcd-2"])


def _leaf_gcd_without_its_middle_entry(monkeypatch):
    """The walk's leaf step takes gcd(prefix's gcd, s[last - 1], s[last]); with the middle
    entry dropped it loses each class whose prefix and last entry share a factor."""
    real = kac.gcd
    monkeypatch.setattr(kac, "gcd", lambda *a: real(a[0], a[2]) if len(a) == 3 else real(*a))


def _gcd_not_carried_down_the_walk(monkeypatch):
    """The walk passes the prefix's gcd on unchanged, so each leaf sees only its last
    entries: it keeps vectors with a common factor and drops some with none."""
    _rebuilt(monkeypatch, kac, "enumerate_classes", "gcd(g, val), carried)", "g, carried)")


def test_a_leaf_gcd_without_its_middle_entry_fails_the_leaf_only_walk_check(monkeypatch):
    _leaf_gcd_without_its_middle_entry(monkeypatch)
    with pytest.raises(AssertionError):
        check_walk_matches_leaf_only(4, 6)


def test_a_gcd_not_carried_down_the_walk_fails_the_leaf_only_walk_check(monkeypatch):
    _gcd_not_carried_down_the_walk(monkeypatch)
    with pytest.raises(AssertionError):
        check_walk_matches_leaf_only(2, 1)


@pytest.mark.parametrize("mutate, max_rank", [
    pytest.param(_leaf_gcd_without_its_middle_entry, 1, id="leaf-gcd-without-middle"),
    pytest.param(_gcd_not_carried_down_the_walk, 2, id="gcd-not-carried"),
])
def test_a_gcd_mutant_fails_the_burnside_count(monkeypatch, mutate, max_rank):
    """Each walk mutant that changes a class count, at the smallest catalog
    where the count oracle sees it: A1 at order 3 and A2 at order 5.  The
    leaf-only walk kills each as early, so it stays their first check."""
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        check_class_count_matches_burnside(max_rank)


@pytest.mark.parametrize("check", [check_walk_is_admitted_at_exactly_its_charge,
                                   check_refused_walk_stops_at_the_first_loop_past_the_budget])
def test_an_uncharged_last_but_one_loop_fails_the_budget_checks(monkeypatch, check):
    """The loop that lists the classes costs nothing, so the walk runs past its budget."""
    _rebuilt(monkeypatch, kac, "enumerate_classes",
             "work += (remaining // c + 1) * per_class + 1", "pass")
    with pytest.raises((AssertionError, pytest.fail.Exception)):  # or: "DID NOT RAISE"
        check(monkeypatch, "G2", 12)


def test_a_verdict_never_set_fails_the_violated_bound_check(capsys, monkeypatch):
    """Every record holds whatever its report says, so a violated bound is neither
    marked nor exits 1."""
    _rebuilt(monkeypatch, cli, "_cmd_enumerate", "report.is_equality, report.holds",
             "report.is_equality, True")
    with pytest.raises(AssertionError):
        check_violated_bound_is_reported(capsys, monkeypatch)


@pytest.mark.parametrize("family", list(dynkin._ROOT_COUNTS))
def test_a_root_count_off_by_two_fails_the_finite_type_oracle(monkeypatch, family):
    """One family's ``_ROOT_COUNTS`` entry two high.  Each factor that
    ``finite_factor`` caches keeps the root count it was made with, so the
    cache is cleared before the patch (else the mutant changes nothing) and
    after the restore (else later tests read the mutant's counts)."""
    real = dynkin._ROOT_COUNTS[family]
    dynkin.finite_factor.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setitem(dynkin._ROOT_COUNTS, family, lambda r: real(r) + 2)
            with pytest.raises(AssertionError):
                check_root_system_oracle_on_every_finite_type()
    finally:
        dynkin.finite_factor.cache_clear()


def test_a_display_key_with_the_root_count_sign_flipped_fails_the_order_check(monkeypatch):
    """The smallest root count first: a property in place of the field's
    getter, so every sort reads the flipped key, not the stored one."""
    monkeypatch.setattr(dynkin.FiniteFactor, "display_key",
                        property(lambda f: (f.root_count, f.family, -f.rank)))
    with pytest.raises(AssertionError):
        check_display_order()


# The return of each classifier arm, in source order; a swap exchanges two of them.
_ARMS = {
    "B": 'finite_factor("B", size)',
    "F4": 'finite_factor("F", 4)',
    "D": 'finite_factor("D", arms[2] + 3)',
    "E6": 'finite_factor("E", 6)',
    "E7": 'finite_factor("E", 7)',
    "E8": 'finite_factor("E", 8)',
}


@pytest.mark.parametrize("first, second", [
    ("B", "F4"), ("D", "E6"), ("D", "E7"), ("D", "E8"), ("E6", "E7"), ("E6", "E8"), ("E7", "E8"),
])
def test_two_swapped_classifier_arms_fail_the_finite_type_oracle(monkeypatch, first, second):
    """``_classify_component`` returning each arm's factor for the other's
    shape.  The check classifies through ``classify_nodes``, which keeps no
    memo, and ``finite_factor`` caches by (family, rank), which the swap
    does not change, so no cache needs clearing."""
    source = inspect.getsource(dynkin._classify_component)
    a, b = _ARMS[first], _ARMS[second]
    span = source[source.index(a):source.index(b) + len(b)]
    _rebuilt(monkeypatch, dynkin, "_classify_component", span, b + span[len(a):-len(b)] + a)
    with pytest.raises(AssertionError):
        check_root_system_oracle_on_every_finite_type()
