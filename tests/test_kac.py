from __future__ import annotations

import itertools
import re
from fractions import Fraction
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
    solution_lower_bound,
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


@pytest.mark.parametrize("J, message", [
    ({0, 7}, "not a node subset: [7]"),
    ({-1}, "not a node subset: [-1]"),
    ({0, 1, 2}, "proper subset"),
], ids=["outside", "negative", "all-nodes"])
def test_from_zero_set_rejects_a_non_proper_subset(J, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_zero_set(build_spec("G2"), J)


@pytest.mark.parametrize("s", [(1, 1, 1, 5), (1, 0, 1, 0), (1, 1), ()])
def test_order_and_zero_set_need_one_coordinate_per_node(s):
    # an extra coordinate must not be ignored, nor a missing one read
    # past the end of the vector
    g2 = build_spec("G2")
    for read in (order_of, zero_set):
        with pytest.raises(ValueError, match=f"G2 takes 3 coordinates, got {len(s)}$"):
            read(g2, s)


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


def _leaf_only_classes(d, m):
    """The walk before prefix pruning: every composition of m / e is
    completed, and only then tested for being least in its orbit."""
    if m <= 0 or m % d.e:
        return []
    nodes = d.nodes
    labels = [d.labels[i] for i in nodes]
    perms = [p for p in d.omega if p != nodes]
    found = []
    prefix = [0] * len(nodes)

    def is_least(s):
        for p in perms:
            for i, x in enumerate(s):
                y = s[p[i]]
                if y != x:
                    if y < x:
                        return False
                    break
        return True

    def fill(idx, remaining):
        if idx == len(nodes) - 1:
            c = labels[idx]
            if remaining % c == 0:
                prefix[idx] = remaining // c
                s = tuple(prefix)
                if is_least(s) and is_admissible(s):
                    found.append(s)
            return
        c = labels[idx]
        for val in range(remaining // c + 1):
            prefix[idx] = val
            fill(idx + 1, remaining - c * val)

    fill(0, m // d.e)
    return found


def check_walk_matches_leaf_only(max_rank, max_order):
    """The walk gives the leaf-only walk's list, in its order, on every
    diagram up to rank ``max_rank`` and every order up to ``max_order``."""
    for d in catalog(max_rank):
        for m in range(1, max_order + 1):
            assert enumerate_classes(d, m) == _leaf_only_classes(d, m), (d.spec, m)


def test_pruned_walk_matches_leaf_only_walk():
    """Same list, same order, as the walk that tests every completed
    vector, on every diagram up to rank 10 and every order up to 10."""
    check_walk_matches_leaf_only(10, 10)


def _fixed_count(d, p, m):
    """Admissible vectors of order m constant on the cycles of p: vectors
    over the cycles, each weighted by its label sum, with the gcd handled
    by Moebius inversion as in :func:`solution_count`."""
    weights, seen = [], set()
    for start in d.nodes:
        if start not in seen:
            weight, i = 0, start
            while i not in seen:
                seen.add(i)
                weight += d.labels[i]
                i = p[i]
            weights.append(weight)

    def raw(t):
        dp = [1] + [0] * t
        for w in weights:
            for x in range(w, t + 1):
                dp[x] += dp[x - w]
        return dp[t]

    def moebius(n):
        result, q = 1, 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                result = -result
            q += 1
        return -result if n > 1 else result

    t = m // d.e
    return sum(moebius(k) * raw(t // k) for k in range(1, t + 1) if t % k == 0)


def test_class_count_matches_burnside():
    """|classes| = (1/|Omega|) * sum over p of |Fix(p)|, counted on the
    cycle structure of each p without enumerating a vector."""
    pairs = 0
    for d in catalog(8):
        for m in range(d.e, 13, d.e):
            burnside = Fraction(sum(_fixed_count(d, p, m) for p in d.omega), len(d.omega))
            assert burnside.denominator == 1, (d.spec, m)
            assert len(enumerate_classes(d, m)) == burnside, (d.spec, m)
            pairs += 1
    assert pairs == 460


def test_lower_bound_never_exceeds_the_count():
    """On every diagram up to rank 12 and every order up to 60 the bound
    is at most the count, and equal to it where it says it is exact."""
    for d in catalog(12):
        for m in range(1, 61):
            bound, exact = solution_lower_bound(d, m)
            count = solution_count(d, m)
            assert bound <= count, (d.spec, m)
            if exact:
                assert bound == count, (d.spec, m)


def test_lower_bound_is_the_count_on_unit_labels():
    a16 = build_spec("A16")
    assert solution_lower_bound(a16, 17) == (1_166_803_093, True)
    assert solution_lower_bound(build_spec("A1"), 10_000_000) == (4_000_000, True)
    bound, exact = solution_lower_bound(build_spec("E8"), 60)
    assert not exact and 0 < bound < solution_count(build_spec("E8"), 60)
