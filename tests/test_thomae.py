"""Exact evaluation of the order bound: per-class reports, diagram scans,
and the extremal tables for the inner exceptional types."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from kacscope import affine, thomae
from kacscope.affine import Bond, Diagram, build_spec, catalog
from kacscope.dynkin import connected_components, factors_type_string, nodes_of, total_root_count
from kacscope.kac import enumerate_classes, from_zero_set
from kacscope.thomae import (
    check_class,
    extremal_tables,
    f_value,
    proper_subsets,
    scan_diagram,
    subset_tables,
    zero_set_data,
)


# ---------------------------------------------------------------------------
# per-class reports


def test_report_fields_principal_g2():
    g2 = build_spec("G2")
    r = check_class(g2, (1, 1, 1))
    assert r.m == 6
    assert tuple(r.zero_set) == ()
    assert r.fixed_type == "0"
    assert r.fixed_dim == 2  # the fixed subalgebra of a principal class is a torus
    assert r.tau == Fraction(1, 6)
    assert r.bound == Fraction(2, 12)
    assert r.f == 0
    assert r.holds and r.is_equality


def test_report_inadmissible_rejected():
    g2 = build_spec("G2")
    with pytest.raises(ValueError):
        check_class(g2, (0, 0, 0))
    with pytest.raises(ValueError):
        check_class(g2, (2, 2, 2))


@pytest.mark.parametrize("s", [(1, 1), (1, 1, 1, 5), ()])
def test_report_rejects_a_vector_of_the_wrong_length(s):
    # one coordinate per node: a longer vector must not be truncated, a
    # shorter one must not index past its end
    with pytest.raises(ValueError, match="3 non-negative entries"):
        check_class(build_spec("G2"), s)


def test_integer_comparisons_equal_their_fraction_forms():
    """``holds`` and ``is_equality`` compare integers and ``tau`` is
    derived from ``m``; each equals its ``Fraction`` form on every class
    of catalog(8) at orders 1 to 12, and on made-up bounds a/b on either
    side of 1/m, since no class has a bound below 1/m."""
    def outcome(r):
        tau, bound = r.tau, r.bound
        return (r.m, bound.numerator, bound.denominator, tau.numerator, tau.denominator,
                r.holds, r.is_equality)

    g2_report = check_class(build_spec("G2"), (1, 1, 1))
    outcomes = {
        outcome(g2_report._replace(m=m, bound=Fraction(a, b)))
        for a, b, m in itertools.product(range(1, 8), range(1, 25), range(1, 25))
    }
    classes = 0
    for d in catalog(8):
        for m in range(1, 13):
            vectors = enumerate_classes(d, m)
            outcomes.update(outcome(check_class(d, s)) for s in vectors)
            classes += len(vectors)
    assert classes > 100_000 and len(outcomes) > 2000
    for m, a, b, tau_num, tau_den, holds, is_equality in outcomes:
        tau, bound = Fraction(1, m), Fraction(a, b)
        assert Fraction(tau_num, tau_den) == tau
        assert holds == (tau <= bound), (m, bound)
        assert is_equality == (tau == bound), (m, bound)
    assert {(holds, eq) for *_, holds, eq in outcomes} == {(True, True), (True, False), (False, False)}


# Order-2 and order-3 points with well-known fixed subalgebras.  In each
# block the first class is the equality case; the second is the larger
# fixed subalgebra at the same order, which the bound keeps strictly
# below 1/m... or rather strictly above, dim-wise.
KNOWN_CLASSES = [
    # spec, kac, order, fixed type, fixed dim, is_equality
    ("2E6", (0, 0, 0, 0, 1), 2, "B4", 36, True),
    ("2E6", (1, 0, 0, 0, 0), 2, "F4", 52, False),
    ("3D4", (0, 0, 1), 3, "A2", 8, True),
    ("3D4", (1, 0, 0), 3, "G2", 14, False),
    ("C3", (1, 0, 0, 1), 2, "A2", 9, True),
    ("C3", (0, 0, 1, 0), 2, "B2+A1", 13, False),
    ("2A2", (1, 0), 2, "A1", 3, True),
    ("D4", (0, 0, 1, 0, 0), 2, "4A1", 12, True),
    ("D4", (0, 0, 0, 1, 1), 2, "A3", 16, False),
    ("E6", (0, 0, 0, 0, 0, 1, 0), 2, "A5+A1", 38, False),
    ("E6", (0, 0, 0, 0, 1, 0, 1), 2, "D5", 46, False),
]


@pytest.mark.parametrize("spec,s,m,ftype,fdim,eq", KNOWN_CLASSES)
def test_known_fixed_subalgebras(spec, s, m, ftype, fdim, eq):
    d = build_spec(spec)
    r = check_class(d, s)
    assert r.m == m
    assert r.fixed_type == ftype
    assert r.fixed_dim == fdim
    assert r.holds
    assert r.is_equality == eq
    if eq:
        # at equality the fixed dimension is exactly (dim g - rank g)/m
        assert Fraction(fdim, d.base_root_count) == Fraction(1, m)


def test_fixed_dim_is_rank_plus_roots():
    b5 = build_spec("B5")
    for s in enumerate_classes(b5, 4):
        r = check_class(b5, s)
        roots, _, _ = zero_set_data(b5, r.zero_set)
        assert r.fixed_dim == b5.n_e + roots


def check_class_fields_agree(max_rank: int) -> int:
    """On every proper J of ``catalog(max_rank)``, the fields of ``check_class``
    that depend only on J equal those of the independent functions: f from
    :func:`f_value`, the type string from ``factors_type_string``, the fixed
    dimension n_e + |R_J| and the bound fixed_dim / |R|.  Returns how many
    zero sets were checked."""
    checked = 0
    for d in catalog(max_rank):
        for J in proper_subsets(d):
            r = check_class(d, from_zero_set(d, J))
            factors = d.factors(J)
            fixed_dim = d.n_e + total_root_count(factors)
            assert r.zero_set == tuple(sorted(J)), (d.spec, J)
            assert r.f == f_value(d, J), (d.spec, J)
            assert r.fixed_type == factors_type_string(factors), (d.spec, J)
            assert r.fixed_dim == fixed_dim, (d.spec, J)
            assert r.bound == Fraction(fixed_dim, d.base_root_count), (d.spec, J)
            checked += 1
    return checked


def test_class_fields_agree_with_the_independent_functions():
    assert check_class_fields_agree(8) == sum(2 ** len(d.nodes) - 1 for d in catalog(8))


# ---------------------------------------------------------------------------
# the f certificate


def test_f_empty_zero_set_is_zero():
    for spec in ("A5", "C4", "2D7", "E8"):
        assert f_value(build_spec(spec), frozenset()) == 0


def test_f_matches_bound_comparison():
    """f(J) has the same sign as bound - tau, scaled by positive factors,
    so f >= 0 exactly when the report says the bound holds."""
    d = build_spec("2A8")
    for J in proper_subsets(d):
        f = f_value(d, J)
        r = check_class(d, from_zero_set(d, J))
        assert (f == 0) == r.is_equality
        assert (f >= 0) == (r.bound >= r.tau)


NINE_ROWS = [
    # spec, kac, |R_J|, c^J, c_J, equality
    ("F4", (1, 0, 0, 0, 0), 48, 1, 11, False),
    ("F4", (0, 1, 0, 0, 0), 20, 2, 10, True),
    ("F4", (0, 0, 1, 0, 0), 12, 3, 9, True),
    ("F4", (1, 1, 0, 0, 0), 18, 3, 9, False),
    ("2E6", (0, 0, 0, 1, 1), 12, 3, 6, False),
    ("2E6", (0, 0, 0, 1, 0), 14, 2, 7, True),
    ("2E6", (0, 0, 0, 0, 1), 32, 1, 8, True),
    ("2E6", (1, 0, 0, 0, 1), 18, 2, 7, False),
    ("2E6", (0, 1, 0, 0, 1), 10, 3, 6, False),
]


@pytest.mark.parametrize("spec,s,roots,c_up,c_down,eq", NINE_ROWS)
def test_rank_four_inner_data(spec, s, roots, c_up, c_down, eq):
    d = build_spec(spec)
    assert d.n_e == 4
    J = frozenset(i for i, v in enumerate(s) if v == 0)
    got = zero_set_data(d, J)
    assert got == (roots, c_down, c_up)
    f = c_up * roots - d.n_e * c_down
    assert f == f_value(d, J)
    assert (f == 0) == eq
    assert f >= 0


# ---------------------------------------------------------------------------
# scans


def test_scan_g2():
    scan = scan_diagram(build_spec("G2"))
    assert scan.h_e == 6 and scan.n_e == 2 and scan.dim_g == 14
    assert scan.subsets_checked == 7
    assert scan.min_f == 0
    assert scan.min_f >= 0
    assert [(c.m, c.s) for c in scan.equality_classes] == [
        (6, (1, 1, 1)),
        (3, (1, 1, 0)),
        (2, (0, 1, 0)),
    ]
    assert [c.fixed_dim for c in scan.equality_classes] == [2, 4, 6]


def test_scan_equality_dims_divide_roots():
    for d in catalog(8):
        scan = scan_diagram(d)
        assert scan.min_f >= 0
        for cls in scan.equality_classes:
            assert cls.fixed_dim * cls.m == d.base_root_count


def test_scan_counts_proper_subsets():
    d = build_spec("B4")
    assert scan_diagram(d).subsets_checked == 2 ** len(d.nodes) - 1
    assert len(list(proper_subsets(d))) == 2 ** len(d.nodes) - 1


def test_subset_tables_match_the_oracle_everywhere():
    """The bitmask kernel against the frozenset oracle on all 75,066
    proper subsets of the default catalog: both tables, the least f over
    nonempty zero sets with every mask attaining it, and every mask with
    f = 0; and the scan's minimiser against a brute-force one in the same
    pass."""
    subsets = 0
    for d in catalog(12):
        r, c, min_f, minimisers, zeros = subset_tables(d)
        assert len(r) == len(c) == 2 ** len(d.nodes) - 1
        least, least_at, least_J, zero_at = None, [], None, []
        for J in proper_subsets(d):
            mask = d.mask_of(J)
            r_j, c_j, _c_up = zero_set_data(d, J)
            assert (r[mask], c[mask]) == (r_j, c_j), (d.spec, sorted(J))
            f = f_value(d, J)
            assert (d.label_sum - c[mask]) * r[mask] - d.n_e * c[mask] == f
            if J and (least is None or f <= least):
                if f != least:
                    least, least_at, least_J = f, [], tuple(sorted(J))
                least_at.append(mask)
            if f == 0:
                zero_at.append(mask)
            subsets += 1
        assert min_f == least, d.spec
        assert sorted(minimisers) == sorted(least_at), d.spec
        assert sorted(zeros) == sorted(zero_at), d.spec
        assert len(set(minimisers)) == len(minimisers) and len(set(zeros)) == len(zeros)
        scan = scan_diagram(d)
        assert (scan.min_f, scan.min_f_zero_set) == (least, least_J), d.spec
    assert subsets == 75_066


def _component_walk_tables(d):
    """The per-subset recurrence, as an oracle for :func:`subset_tables`.

    Node u is bit u of a mask, on a diagram whose nodes are 0..N-1.
    Masks are filled in increasing order: ``c[J]`` adds the label of J's
    lowest node to ``c`` of J without it, and ``r[J]`` adds the root
    count of the component C of J holding that node, found by a
    breadth-first walk, to ``r[J - C]``.  The least f over nonempty J,
    the masks attaining it and the masks with f = 0 are then read from a
    second pass over the finished tables, in mask order."""
    neighbours = [0] * len(d.labels)
    for b in d.bonds:
        neighbours[b.u] |= 1 << b.v
        neighbours[b.v] |= 1 << b.u
    full = (1 << len(d.labels)) - 1
    r = [0] * full
    c = [0] * full
    component_roots: dict[int, int] = {}
    for J in range(1, full):
        low = J & -J
        i = low.bit_length() - 1
        c[J] = c[J ^ low] + d.labels[i]
        component = low
        frontier = neighbours[i] & J & ~low
        while frontier:
            component |= frontier
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= neighbours[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & J & ~component
        roots = component_roots.get(component)
        if roots is None:
            roots = component_roots[component] = total_root_count(d.factors(nodes_of(component)))
        r[J] = roots + r[J ^ component]
    f = [(d.label_sum - c_j) * r_j - d.n_e * c_j for r_j, c_j in zip(r, c)]
    min_f = min(f[1:])
    return (r, c, min_f, [J for J in range(1, full) if f[J] == min_f],
            [J for J in range(full) if f[J] == 0])


def check_subset_tables_match_the_component_walk(max_rank):
    """The submask kernel against the per-subset component walk on every
    proper subset of every diagram of rank <= ``max_rank``: the tables, the
    least f, and the sets of its minimisers and of the zeros of f (the
    kernel lists them in the order it writes them).  Returns the numbers of
    diagrams and of subsets.  The kernel is read through its module, so
    that a mutant patched there is the one checked."""
    diagrams = catalog(max_rank)
    subsets = 0
    for d in diagrams:
        r, c, min_f, minimisers, zeros = thomae.subset_tables(d)
        walk = _component_walk_tables(d)
        assert (r, c, min_f) == walk[:3], d.spec
        assert sorted(minimisers) == walk[3] and sorted(zeros) == walk[4], d.spec
        subsets += len(r)
    return len(diagrams), subsets


def test_subset_tables_match_the_component_walk_to_rank_16():
    """All 1,182,498 proper subsets of the 94 diagrams of rank <= 16."""
    assert check_subset_tables_match_the_component_walk(16) == (94, 1_182_498)


@pytest.mark.parametrize("labels, bonds", [
    ({1: 1, 2: 1, 3: 1}, [Bond(1, 2)]),                # a 3-node path with one bond left out
    ({1: 1, 2: 1, 3: 1}, [Bond(2, 3)]),
    ({1: 1, 2: 2, 3: 1, 4: 3}, [Bond(1, 2), Bond(2, 3)]),  # an isolated node
    ({1: 2, 2: 1, 3: 1, 4: 1}, [Bond(2, 3), Bond(3, 4, 2, 4)]),
    ({1: 1, 2: 1, 3: 1, 4: 1}, []),
    ({0: 1, 1: 1, 2: 1}, [Bond(0, 1)]),                # on the nodes 0..2, a bond left out
    ({1: 1, 2: 1, 3: 1}, [Bond(1, 2), Bond(2, 3)]),    # connected, but not on 0..2
])
def test_subset_tables_refuse_a_diagram_not_connected_on_0_to_n(labels, bonds):
    """The tables are indexed by node mask, and hold exactly the proper
    subsets only on a diagram connected on the nodes 0..N-1: any other is
    refused up front."""
    with pytest.raises(ValueError, match="connected on the nodes 0..N-1"):
        subset_tables(Diagram(1, labels, bonds))


def test_every_built_diagram_is_connected_on_0_to_n():
    """So every diagram the commands build meets the kernel's precondition;
    connectivity is read from the bonds by the test oracle."""
    for d in catalog(40):
        assert d.node_mask == (1 << len(d.nodes)) - 1, d.spec
        assert len(connected_components(d.nodes, d.bonds)) == 1, d.spec


def test_subset_tables_classify_each_connected_set_once(monkeypatch):
    """On a diagram with an empty memo, the kernel classifies exactly the
    proper connected node sets, each once."""
    calls = []
    classify = affine._classify_component
    monkeypatch.setattr(affine, "_classify_component",
                        lambda comp, *graph: calls.append(comp) or classify(comp, *graph))
    for named in catalog(8):
        d = Diagram(named.e, named.labels, named.bonds)
        calls.clear()
        subset_tables(d)
        connected = sum(
            len(connected_components(J, d.bonds)) == 1
            for size in range(1, len(d.nodes))
            for J in itertools.combinations(d.nodes, size)
        )
        assert len(d._components) == len(set(calls)) == len(calls) == connected, named.spec


# ---------------------------------------------------------------------------
# extremal tables (inner exceptional types only)


E6_STEP1 = {
    2: (32, {"A5+A1"}, False),
    3: (18, {"3A2"}, True),
    4: (14, {"2A2+A1", "A3+A1"}, False),
    5: (10, {"A2+2A1"}, False),
}
E7_STEP1 = {
    2: (56, {"A7"}, True),
    3: (36, {"A5+A2"}, False),
    4: (26, {"2A3+A1", "A4+A2"}, False),
    5: (20, {"A3+A2+A1"}, False),
    6: (14, {"2A2+A1"}, True),
}
E8_STEP1 = {
    2: (112, {"D8"}, True),
    3: (72, {"A8"}, True),
    4: (52, {"D5+A3"}, True),
    5: (40, {"2A4"}, True),
    6: (32, {"A4+A3"}, True),
    7: (28, {"A4+A2+A1"}, False),
}
E7_STEP2 = {
    10: (8, {"5A1", "A2+2A1"}, False),
}
E8_STEP2 = {
    10: (14, {"5A1", "A2+2A1"}, False),
    12: (12, {"A2+3A1"}, True),
    14: (12, {"2A2+A1", "A2+4A1", "A3+A1"}, False),
    16: (10, {"2A2+2A1"}, True),
    18: (10, {"A3+3A1", "A3+A2"}, False),
    20: (9, {"3A2+A1", "A3+A2+A1"}, False),
    22: (8, {"A3+A2+2A1"}, True),
}


def _assert_table(table, expected):
    assert set(table) == set(expected)
    for key, (value, achievers, has_witness) in expected.items():
        row = table[key]
        assert row.value == value, key
        assert set(row.achievers) == achievers, key
        assert (row.witness is not None) == has_witness, key


def test_step1_tables():
    _assert_table(extremal_tables(build_spec("E6"))[0], E6_STEP1)
    _assert_table(extremal_tables(build_spec("E7"))[0], E7_STEP1)
    _assert_table(extremal_tables(build_spec("E8"))[0], E8_STEP1)


def test_step2_tables():
    assert extremal_tables(build_spec("E6"))[1] == {}
    _assert_table(extremal_tables(build_spec("E7"))[1], E7_STEP2)
    _assert_table(extremal_tables(build_spec("E8"))[1], E8_STEP2)


def test_step_witness_vectors():
    t6 = extremal_tables(build_spec("E6"))[0]
    assert t6[3].witness == (0, 0, 1, 0, 0, 0, 0)
    t8 = extremal_tables(build_spec("E8"))[0]
    assert t8[2].witness == (0, 0, 0, 0, 0, 0, 0, 1, 0)
    assert t8[3].witness == (0, 0, 0, 0, 0, 0, 0, 0, 1)
    assert t8[5].witness == (0, 0, 0, 0, 1, 0, 0, 0, 0)


def test_step1_bound_meaning():
    """Each row value r(m) satisfies m*(r(m)+n) >= |R|, with equality
    exactly on witness rows."""
    for spec in ("E6", "E7", "E8"):
        d = build_spec(spec)
        for m, row in extremal_tables(d)[0].items():
            lhs = m * (row.value + d.n_e)
            assert lhs >= d.base_root_count
            assert (lhs == d.base_root_count) == (row.witness is not None)


def test_step2_bound_meaning():
    for spec in ("E7", "E8"):
        d = build_spec(spec)
        for r, row in extremal_tables(d)[1].items():
            lhs = row.value * (r + d.n_e)
            assert lhs >= d.base_root_count
            assert (lhs == d.base_root_count) == (row.witness is not None)


def test_step_tables_reject_other_types():
    for spec in ("F4", "G2", "2E6", "D8"):
        with pytest.raises(ValueError):
            extremal_tables(build_spec(spec))


# ---------------------------------------------------------------------------
# the untwisted A series: f counts the zero set with room to spare


@pytest.mark.parametrize("n", range(1, 13))
def test_type_a_slack(n):
    d = build_spec(f"A{n}")
    for J in proper_subsets(d):
        if J:
            assert f_value(d, J) >= len(J) > 0
    assert f_value(d, frozenset()) == 0
