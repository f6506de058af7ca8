from __future__ import annotations

import itertools
from math import gcd

import pytest

from kacscope.affine import build_spec, catalog
from kacscope.kac import (
    canonical,
    enumerate_classes,
    from_zero_set,
    is_admissible,
    orbit,
    order_of,
    solution_count,
    zero_set,
)


def test_is_admissible():
    assert is_admissible((1, 2))
    assert is_admissible((0, 1, 0))
    assert is_admissible((3, 5, 0, 0))
    assert not is_admissible(())
    assert not is_admissible((0, 0))
    assert not is_admissible((2, 4))  # common factor
    assert not is_admissible((0, 3))
    assert not is_admissible((-1, 2))


def test_order_is_twist_times_weighted_sum():
    g2 = build_spec("G2")  # labels 1, 2, 3
    assert order_of(g2, (1, 1, 1)) == 6
    assert order_of(g2, (0, 1, 0)) == 2
    assert order_of(g2, (3, 0, 1)) == 6
    d4_3 = build_spec("3D4")
    assert d4_3.e == 3
    assert order_of(d4_3, (1, 1, 1)) == 3 * d4_3.label_sum
    twisted = build_spec("2A4")
    assert order_of(twisted, (1, 0, 0)) == 2  # e times the affine label


def test_zero_set_round_trip():
    for spec in ("B5", "2D6", "F4", "A6"):
        d = build_spec(spec)
        for J in (frozenset(), frozenset({1}), frozenset(list(d.nodes)[1:3])):
            s = from_zero_set(d, J)
            assert zero_set(d, s) == J
            assert set(s) <= {0, 1}
            assert is_admissible(s)


def test_enumerate_classes_g2():
    g2 = build_spec("G2")
    assert enumerate_classes(g2, 6) == [(1, 1, 1), (3, 0, 1), (4, 1, 0)]
    assert enumerate_classes(g2, 1) == [(1, 0, 0)]
    assert enumerate_classes(g2, 2) == [(0, 1, 0)]
    assert enumerate_classes(g2, 3) == [(0, 0, 1), (1, 1, 0)]


def test_enumerate_classes_orders_and_admissibility():
    for spec, m in (("C3", 2), ("E6", 3), ("2A5", 4), ("3D4", 6)):
        d = build_spec(spec)
        classes = enumerate_classes(d, m)
        assert classes, (spec, m)
        for s in classes:
            assert is_admissible(s)
            assert order_of(d, s) == m
            assert canonical(d, s) == s
        assert len(set(classes)) == len(classes)


def test_c3_order_two():
    c3 = build_spec("C3")
    assert len(enumerate_classes(c3, 2)) == 2


def test_canonical_picks_orbit_representative():
    a4 = build_spec("A4")
    s = (0, 1, 0, 0, 0)
    rep = canonical(a4, s)
    assert rep in orbit(a4, s)
    assert all(canonical(a4, t) == rep for t in orbit(a4, s))


def test_orbit_sizes_divide_group_order():
    for spec in ("A5", "D5", "E6"):
        d = build_spec(spec)
        for s in enumerate_classes(d, 3):
            assert len(d.omega) % len(orbit(d, s)) == 0


def test_class_count_against_direct_solution_count():
    """Orbit sizes over the class list must add up to the raw count of
    admissible vectors of each order, computed independently by divisor
    inclusion-exclusion."""
    for d in catalog(6):
        for m in range(1, 9):
            classes = enumerate_classes(d, m)
            total = sum(len(orbit(d, s)) for s in classes)
            assert total == solution_count(d, m), (d.spec, m)


def test_solution_count_large_order_guard():
    # the count grows like m**n; keep one larger spot check
    a6 = build_spec("A6")
    classes = enumerate_classes(a6, 7)
    assert sum(len(orbit(a6, s)) for s in classes) == solution_count(a6, 7)


def test_principal_class_is_all_ones():
    for d in catalog(8):
        h = d.coxeter
        classes = enumerate_classes(d, h)
        ones = tuple(1 for _ in d.nodes)
        assert canonical(d, ones) in classes


def _brute_force_classes(d, m):
    """Canonical representatives of every admissible vector of order m,
    from all choices of the first n coordinates (the last one is then
    fixed by the order)."""
    if m % d.e:
        return []
    target = m // d.e
    labels = [d.labels[i] for i in d.nodes]
    found = set()
    for head in itertools.product(*(range(target // c + 1) for c in labels[:-1])):
        rest = target - sum(c * x for c, x in zip(labels, head))
        if rest >= 0 and rest % labels[-1] == 0:
            s = head + (rest // labels[-1],)
            if gcd(*s) == 1:
                found.add(canonical(d, s))
    return sorted(found)


def test_enumerate_classes_matches_brute_force_orbits():
    """The least-in-orbit test against the orbit oracle on every diagram up
    to rank 8 and every order up to 4."""
    for d in catalog(8):
        for m in range(1, 5):
            assert enumerate_classes(d, m) == _brute_force_classes(d, m), (d.spec, m)
