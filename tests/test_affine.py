"""Diagram construction: catalog contents, labels, symmetries, rendering."""

from __future__ import annotations

import gzip
import re
from pathlib import Path

import pytest

from kacscope.affine import (
    Bond, Diagram, DiagramId, build, build_spec, catalog, parse_spec, render_kac,
)
from kacscope.dynkin import (
    UnsupportedSubdiagramError, classify_nodes, factors_type_string, nodes_of,
)
from kacscope.kac import from_zero_set
from kacscope.reductions import contract, contraction_drop, reduce_to_z, runs_of
from kacscope.thomae import f_value, proper_subsets, zero_set_data


def test_parse_spec_round_trip():
    for text in ("A1", "B6", "C12", "D4", "2A9", "2A10", "2D7", "2E6", "3D4", "G2", "F4", "E8"):
        ident = parse_spec(text)
        assert ident.spec == text
        assert build_spec(text).spec == text


@pytest.mark.parametrize("bad", ["", "X4", "A0", "2B4", "3D5", "2G2", "E9", "D1", "2A1", "A-3"])
def test_parse_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_parse_spec_is_case_insensitive():
    assert parse_spec("b4").spec == "B4"
    assert parse_spec("2a9").spec == "2A9"


def test_catalog_rank_bound_and_size():
    cat = catalog(12)
    specs = [d.spec for d in cat]
    assert len(specs) == len(set(specs)) == 70
    # every admissible family is present
    assert {"A1", "A12", "B3", "B12", "C2", "C12", "D4", "D12"} <= set(specs)
    assert {"2A2", "2A12", "2D3", "2D12", "3D4", "2E6"} <= set(specs)
    assert {"G2", "F4", "E6", "E7", "E8"} <= set(specs)
    assert "B13" not in specs and "2A13" not in specs
    # catalog is deterministic
    assert specs == [d.spec for d in catalog(12)]


DIAGRAM_GOLDEN = Path(__file__).parent / "golden" / "diagrams40.txt.gz"


def _bond_text(b):
    return f"{b.u}-{b.v}/{b.mult}/{b.tip}"


def _diagram_line(ident):
    try:
        d = build(ident)
    except ValueError as exc:
        return f"{ident.spec}\terror: {exc}"
    layout = " ".join(
        f"{u}[{','.join(map(str, hung))}]" + ("" if bond is None else f"{right}:{_bond_text(bond)}")
        for u, hung, right, bond in d.layout
    )
    return "\t".join([
        d.spec,
        " ".join(f"{u}:{c}" for u, c in d.labels.items()),
        " ".join(map(_bond_text, d.bonds)),
        " ".join(",".join(map(str, p)) for p in d.omega),
        layout,
        f"cyclic={d.cyclic}",
        "interior=" + ",".join(str(u) for u in d.nodes if d.degree(u) >= 2),
        f"label_sum={d.label_sum} base_dim={d.base_dim}",
    ])


def _diagram_lines():
    """One line per (e, family, rank) with e in 1..4, family A..H and rank
    0..40 (the error message, or the built diagram), then the specs of
    ``catalog(r)`` for r = -1..40."""
    lines = [
        _diagram_line(DiagramId(e, family, n))
        for e in range(1, 5) for family in "ABCDEFGH" for n in range(41)
    ]
    lines += [f"catalog {r}\t" + " ".join(d.spec for d in catalog(r)) for r in range(-1, 41)]
    return lines


def test_diagrams_match_golden():
    """Admission, construction and listing of every diagram to rank 40 are
    as recorded in ``DIAGRAM_GOLDEN``."""
    with gzip.open(DIAGRAM_GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    lines = _diagram_lines()
    assert len(lines) == len(golden)
    for line, want in zip(lines, golden):
        assert line == want


def test_catalog_small():
    # B2 is the same diagram as C2, so the B series only enters at rank 3
    assert {d.spec for d in catalog(2)} == {"A1", "A2", "C2", "G2", "2A2"}


def _kac_ends(d):
    """The spine ends of ``d`` as Kac's Tables Aff 1-3 draw them, node 0's
    end first, written out per family; None where the tables have no such
    pair of ends."""
    family, n = (d.e, d.ident.family), d.n_e
    if family == (1, "B"):
        return ("fork", (0, 1)), ("heavy", (n,))
    if family == (1, "C"):
        return ("light", (0,)), ("light", (n,))
    if family == (1, "D"):
        return ("fork", (0, 1)), ("fork", (n - 1, n))
    if family == (2, "D") or d.spec == "2A3":
        return ("heavy", (0,)), ("heavy", (n,))
    if family == (2, "A") and d.ident.base_rank % 2 == 0:
        return ("light", (0,)), ("heavy", (n,))
    if family == (2, "A"):
        return ("fork", (0, 1)), ("light", (n,))
    return None


def test_spine_ends_to_rank_40():
    """Every diagram's end record is Kac's, and on every classical diagram
    a heavy end is exactly a single end carrying the largest label."""
    kinds = set()
    for d in catalog(40):
        assert d.ends == _kac_ends(d), d.spec
        for end in d.ends or ():
            kinds.add(end.kind)
            if end.kind != "fork":
                (u,) = end.nodes
                assert (end.kind == "heavy") == (d.labels[u] == max(d.labels.values())), d.spec
    assert kinds == {"fork", "heavy", "light"}
    assert build_spec("D4").ends == (("fork", (0, 1)), ("fork", (3, 4)))
    assert build_spec("2A2").ends == (("light", (0,)), ("heavy", (1,)))
    assert build_spec("A1").ends is None


def test_node_counts_and_twist():
    for spec, e, nodes in [
        ("A5", 1, 6),
        ("B6", 1, 7),
        ("C6", 1, 7),
        ("D6", 1, 7),
        ("2A7", 2, 5),
        ("2A8", 2, 5),
        ("2D5", 2, 5),
        ("2E6", 2, 5),
        ("3D4", 3, 3),
        ("G2", 1, 3),
        ("F4", 1, 5),
        ("E8", 1, 9),
    ]:
        d = build_spec(spec)
        assert d.e == e
        assert len(d.nodes) == nodes
        assert d.n_e == nodes - 1


def test_twisted_coxeter_number_times_rank_counts_roots():
    # e * h_e * n_e equals the number of roots of the ambient algebra,
    # divided by the twist order... concretely h_e * n_e = |R(g)|.
    for d in catalog(16):
        assert d.coxeter * d.n_e == d.base_root_count
        assert d.coxeter == d.e * d.label_sum


def test_base_dimension():
    for spec, dim in [("A1", 3), ("A4", 24), ("B3", 21), ("C3", 21), ("D4", 28),
                      ("G2", 14), ("F4", 52), ("E6", 78), ("E7", 133), ("E8", 248),
                      ("2A5", 35), ("2D4", 28), ("3D4", 28), ("2E6", 78)]:
        d = build_spec(spec)
        assert d.base_dim == dim
        assert d.base_root_count == dim - (d.base_dim - d.base_root_count)


def test_label_gcd_and_sum():
    for d in catalog(10):
        labels = [d.labels[i] for i in d.nodes]
        assert all(v >= 1 for v in labels)
        assert d.label_sum == sum(labels)
        # h_e = e * sum of labels is an integer multiple of e, trivially,
        # but the sum itself never vanishes
        assert d.label_sum >= 2


def _bond_set(bonds, perm):
    """Each bond as (its two ends, multiplicity, arrow tip), with every
    node u read as ``perm[u]``."""
    return {(frozenset((perm[b.u], perm[b.v])), b.mult, None if b.tip is None else perm[b.tip])
            for b in bonds}


def test_omega_permutations_preserve_structure():
    """Each Omega permutation keeps the labels and maps the bond set onto
    itself, multiplicity and arrow tip included."""
    for d in catalog(16):
        for perm in d.omega:
            assert sorted(perm) == list(d.nodes)
            for i in d.nodes:
                assert d.labels[perm[i]] == d.labels[i]
            assert _bond_set(d.bonds, perm) == _bond_set(d.bonds, d.nodes), (d.spec, perm)


def test_omega_sizes():
    assert len(build_spec("A4").omega) == 5  # rotations of the cycle
    assert len(build_spec("G2").omega) == 1
    assert len(build_spec("E7").omega) == 2
    assert len(build_spec("E8").omega) == 1
    # the identification group is the translation part of the affine
    # symmetries, so D4 contributes 4 permutations rather than the full
    # tip-permuting automorphism group
    assert len(build_spec("D4").omega) == 4
    assert len(build_spec("D5").omega) == 4
    assert len(build_spec("E6").omega) == 3
    # twisted fork diagrams keep the tip swap
    assert len(build_spec("2A9").omega) == 2
    assert len(build_spec("2A10").omega) == 1


def test_cyclic_flag():
    assert build_spec("A3").cyclic
    assert not build_spec("A1").cyclic
    assert not build_spec("D5").cyclic


RENDERS = [
    ("C3", (1, 1, 1, 1), False, "1=>1 1<=1"),
    ("C3", (1, 1, 1, 1), True, "1⇒1 1⇐1"),
    ("G2", (1, 1, 1), False, "1 1=3>1"),
    ("G2", (1, 1, 1), True, "1 1⇛1"),
    ("B4", (1, 1, 1, 1, 1), False, "1 (1) 1 1=>1"),
    ("B4", (1, 3, 0, 0, 0), False, "1 (3) 0 0=>0"),
    ("A3", (1, 1, 1, 1), False, "1 1 1 1 (cycle)"),
    ("A1", (1, 1), False, "1<=>1"),
    ("A1", (1, 1), True, "1⇔1"),
    ("2A2", (1, 1), False, "1=4>1"),
    ("2A2", (1, 1), True, "1⟹1"),
    ("2A4", (1, 1, 1), False, "1=>1=>1"),
    ("3D4", (1, 1, 1), False, "1 1<3=1"),
    ("3D4", (1, 1, 1), True, "1 1⇚1"),
    ("2E6", (1, 1, 1, 1, 1), False, "1 1 1<=1 1"),
    ("D5", (1, 1, 1, 1, 1, 1), False, "1 (1) 1 1 1 (1)"),
    ("E6", (1, 2, 3, 4, 5, 6, 7), False, "1 2 3 (6 7) 4 5"),
    ("E7", (1, 2, 3, 4, 5, 6, 7, 8), False, "1 2 3 4 (8) 5 6 7"),
    ("E8", (1, 2, 3, 4, 5, 6, 7, 8, 9), False, "1 2 3 4 5 6 (9) 7 8"),
    ("D4", (1, 2, 3, 4, 5), False, "1 (2) 3 4 (5)"),
    ("2A9", (1, 2, 3, 4, 5, 6), False, "1 (2) 3 4 5<=6"),
    ("2A9", (1, 2, 3, 4, 5, 6), True, "1 (2) 3 4 5⇐6"),
]


@pytest.mark.parametrize("spec,s,uni,expected", RENDERS)
def test_render_kac(spec, s, uni, expected):
    assert render_kac(build_spec(spec), s, unicode=uni) == expected


def test_factor_helpers_on_diagram():
    d = build_spec("E6")
    J = frozenset({0, 1, 3})
    assert d.label_sum_of(J) == sum(d.labels[i] for i in J)
    assert factors_type_string(d.factors(frozenset())) == "0"


def test_factors_memo_agrees_with_the_classifier():
    """``factors`` classifies each component once per diagram; called cold
    and then warm it agrees with the memo-free classifier on every proper
    subset of every diagram to rank 10, and a component the classifier
    rejects (the whole affine diagram) raises on every call."""
    for d in catalog(10):
        g = Diagram(d.e, d.labels, d.bonds)  # a memo of its own, empty
        for J in proper_subsets(d):
            want = classify_nodes(sorted(J), d.bonds)
            assert g.factors(J) == want, (d.spec, sorted(J))
            assert g.factors(J) == want, (d.spec, sorted(J))
        for _ in range(2):
            with pytest.raises(UnsupportedSubdiagramError):
                g.factors(g.nodes)


@pytest.mark.parametrize("subset, missing", [({99}, [99]), ({0, 99, 12}, [12, 99])])
def test_factors_refuses_a_node_outside_the_diagram(subset, missing):
    """A set holding a non-node raises, on every call, and the component
    memo stays empty."""
    named = build_spec("B4")
    g = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"not a node subset: {missing}")):
            g.factors(subset)
    assert g._components == {}
    assert g.factors({0, 2}) == named.factors({0, 2})


def _snapshot(g):
    return (
        list(g.labels.items()), g.bonds, [g.neighbours[u] for u in g.nodes],
        g.node_mask, g.interior_mask, g.label_sum,
    )


def test_contracted_equals_a_fresh_build_for_any_node():
    """``contract`` on any node toward any neighbour, on a bare copy of each
    diagram in ``catalog(8)``, leaves its parent unchanged and either
    refuses or makes a child equal to the same graph built anew:
    the labels without the deleted node, then its parent's bonds not at
    that node, in stored order, then the added ones."""
    made = 0
    for named in catalog(8):
        d = Diagram(named.e, named.labels, named.bonds)
        for i in d.nodes:
            for j in nodes_of(d.neighbours[i]):
                parent = _snapshot(d)
                try:
                    child = contract(d, frozenset(), i, j)
                except ValueError:
                    child = None
                assert _snapshot(d) == parent
                if child is None:
                    continue
                kept = tuple(b for b in d.bonds if i not in (b.u, b.v))
                assert child.bonds[:len(kept)] == kept
                labels = {u: c for u, c in d.labels.items() if u != i}
                assert _snapshot(child) == _snapshot(Diagram(d.e, labels, child.bonds))
                made += 1
    assert made == 288


def test_contracted_refuses_a_bond_on_a_joined_pair():
    """A contraction may not add a bond on a pair that a kept bond already
    joins.  In ``catalog(8)`` two neighbours of one node are joined only on
    the 3-cycle A2: ``contract`` refuses each of its nodes toward either
    neighbour, on every call, and memoises nothing."""
    joined = []
    for named in catalog(8):
        d = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
        for i in d.nodes:
            nbrs = nodes_of(d.neighbours[i])
            if len(nbrs) > 1 and d.neighbours[nbrs[0]] >> nbrs[1] & 1:
                joined.append((named.spec, i))
                for j in nbrs * 2:
                    with pytest.raises(ValueError, match="loop or repeats a pair"):
                        contract(d, frozenset(), i, j)
                assert d._contractions == {}
    assert joined == [("A2", 0), ("A2", 1), ("A2", 2)]


@pytest.mark.parametrize("labels, bonds, message", [
    ({0: 1, 1: 1}, [Bond(0, 2)], "bond (0, 2) has an end that is not a node"),
    ({0: 1, 1: 1}, [Bond(0, 1), Bond(1, 1)], "bond (1, 1) is a loop or repeats a pair"),
    ({0: 1, 1: 1}, [Bond(0, 1), Bond(1, 0, 2, 0)], "bond (1, 0) is a loop or repeats a pair"),
])
def test_diagram_refuses_bonds_the_masks_cannot_hold(labels, bonds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Diagram(1, labels, bonds)


def test_contracted_rejects_a_bond_beyond_the_neighbours():
    """``contract`` adds bonds only between neighbours of the deleted node:
    in D6 node 3 may go toward 2 or 4, each giving the one bond (2, 4),
    and is refused toward 0, which would reach beyond them."""
    named = build_spec("D6")
    d = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
    with pytest.raises(ValueError, match="nodes 3 and 0 are not adjacent"):
        contract(d, frozenset(), 3, 0)
    for j in (2, 4):
        child = contract(d, frozenset(), 3, j)
        assert child.bonds[-1] == Bond(2, 4)
        assert not child.neighbours[0] >> 4 & 1
    assert d._contractions == {3: child}


def test_contracted_memoises_one_child_per_key():
    """``contract`` memoises one child per key: ``i`` for a degree-two node,
    whichever neighbour is its partner, and ``(i, j)`` for a fork.  A
    repeated call returns that child whatever ``J``, every check still runs
    and leaves no entry, and a new child starts with empty memos."""
    named = build_spec("D6")
    d = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
    J = frozenset({0})
    child = contract(d, J, 3, 2)
    assert contract(d, frozenset({5}), 3, 4) is child and contract(d, J, 3, 2) is child
    fork = contract(d, J, 4, 3)
    assert contract(d, frozenset({1}), 4, 3) is fork
    assert d._contractions == {3: child, (4, 3): fork}
    assert child._contractions == {} and child._components == {} and child._moves is None
    for call, message in [
        (lambda: contract(d, frozenset({2}), 3, 2), "off-J nodes only"),
        (lambda: contract(d, J, 3, 5), "nodes 3 and 5 are not adjacent"),
        (lambda: contract(d, J, 4, 5), "toward the interior"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()
    assert len(d._contractions) == 2


def _b4_child():
    """B4 without its degree-two node 3."""
    named = build_spec("B4")
    return contract(Diagram(named.e, named.labels, named.bonds), frozenset({0}), 3, 2)


@pytest.mark.parametrize("call, missing", [
    pytest.param(lambda g: g.degree(5), [5], id="degree_past_the_last_node"),
    pytest.param(lambda g: g.degree(99), [99], id="degree_far_past"),
    pytest.param(lambda g: g.degree(-1), [-1], id="degree_negative"),
    pytest.param(lambda g: _b4_child().degree(3), [3], id="degree_of_a_deleted_node"),
    pytest.param(lambda g: g.mask_of({-1}), [-1], id="mask_of_negative"),
    pytest.param(lambda g: g.mask_of((4, -3, 7)), [-3, 7], id="mask_of_mixed"),
    pytest.param(lambda g: g.factors({-1}), [-1], id="factors"),
    pytest.param(lambda g: runs_of(g, {-2}), [-2], id="runs_of"),
    pytest.param(lambda g: contraction_drop(g, frozenset({0}), -1), [-1], id="contraction_drop"),
    pytest.param(lambda g: g.label_sum_of({99}), [99], id="label_sum_of"),
    pytest.param(lambda g: g.label_sum_of((0, -1)), [-1], id="label_sum_of_negative"),
    pytest.param(lambda g: g.induced_bonds({99}), [99], id="induced_bonds"),
    pytest.param(lambda g: g.induced_bonds({2, -1}), [-1], id="induced_bonds_negative"),
    pytest.param(lambda g: reduce_to_z(g, {0, 99}), [99], id="reduce_to_z"),
    pytest.param(lambda g: zero_set_data(g, {0, 99}), [99], id="zero_set_data"),
    pytest.param(lambda g: f_value(g, {0, 99}), [99], id="f_value"),
    pytest.param(lambda g: from_zero_set(g, {0, 99}), [99], id="from_zero_set"),
])
def test_a_non_node_is_named(call, missing):
    """``degree``, ``mask_of``, ``label_sum_of`` and ``induced_bonds``, and
    so every function that reads them, name any non-node of B4, a negative
    one or a contracted child's deleted node included; a zero set that
    also holds nodes names the non-nodes alone."""
    with pytest.raises(ValueError, match=re.escape(f"not a node subset: {missing}")):
        call(build_spec("B4"))


if __name__ == "__main__":
    # Re-record DIAGRAM_GOLDEN (only with a change meant to alter diagrams):
    #   PYTHONPATH=src python tests/test_affine.py
    from test_reductions import _write_golden

    _write_golden(DIAGRAM_GOLDEN, _diagram_lines())
