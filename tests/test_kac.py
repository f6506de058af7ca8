from __future__ import annotations

import gc
import itertools
import re
import sys
from fractions import Fraction
from math import gcd

import pytest

from kacscope import kac
from kacscope.affine import build_spec, catalog
from kacscope.ellreg import expected_classes
from kacscope.kac import (
    canonical,
    enumerate_classes,
    from_zero_set,
    is_admissible,
    orbit,
    order_of,
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
    for read in (order_of, zero_set, canonical, orbit):
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


def test_apply_perm_matches_the_positional_pull_back():
    """Every Omega permutation of the default catalog, applied to each of the
    diagram's predicted equality classes, gives ``s[perm[i]]`` at each i, and
    ``canonical`` of each pull-back is the least tuple of the orbit."""
    pulled = 0
    for d in catalog(12):
        for s in (row.s for row in expected_classes(d)):
            least = min(orbit(d, s))
            for perm in d.omega:
                t = kac.apply_perm(perm, s)
                assert t == tuple(s[perm[i]] for i in range(len(s)))
                assert canonical(d, t) == least, (d.spec, s, perm)
                pulled += 1
    assert pulled == 463


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
            assert total == _fixed_count(d, d.nodes, m), (d.spec, m)


def test_solution_count_large_order_guard():
    # the count grows like m**n; keep one larger spot check
    a6 = build_spec("A6")
    classes = enumerate_classes(a6, 7)
    assert sum(len(orbit(a6, s)) for s in classes) == _fixed_count(a6, a6.nodes, 7)


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
            assert kac.enumerate_classes(d, m) == _leaf_only_classes(d, m), (d.spec, m)


def test_pruned_walk_matches_leaf_only_walk():
    """Same list, same order, as the walk that tests every completed
    vector, on every diagram up to rank 10 and every order up to 10."""
    check_walk_matches_leaf_only(10, 10)


def _fixed_count(d, p, m):
    """Admissible vectors of order m constant on the cycles of p: vectors
    over the cycles, each weighted by its label sum, with the gcd handled
    by Moebius inversion over the divisors of m / e (none when e does not
    divide m)."""
    if m % d.e:
        return 0
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


def check_class_count_matches_burnside(max_rank, extra=()):
    """|classes| = (1/|Omega|) * sum over p of |Fix(p)|, counted on the
    cycle structure of each p without enumerating a vector; on every
    diagram to rank ``max_rank`` up to order max(12, h + 1), with h the
    twisted Coxeter number, then at the (diagram, order) pairs ``extra``.
    Returns the counts, pair by pair."""
    pairs = [(d, m) for d in catalog(max_rank) for m in range(d.e, max(12, d.coxeter + 1) + 1, d.e)]
    counts = []
    for d, m in [*pairs, *extra]:
        burnside = Fraction(sum(_fixed_count(d, p, m) for p in d.omega), len(d.omega))
        assert burnside.denominator == 1, (d.spec, m)
        assert len(kac.enumerate_classes(d, m)) == burnside, (d.spec, m)
        counts.append(burnside)
    return counts


def test_class_count_matches_burnside():
    """To rank 8, and at the benchmark's two orders."""
    counts = check_class_count_matches_burnside(8, [(build_spec("A9"), 10), (build_spec("D14"), 12)])
    assert len(counts) == 523 and counts[-2:] == [9_046, 32_101]


# diagrams whose Omega is the identity alone, so the walk prunes nothing, at orders whose
# walks take a few milliseconds
TRIVIAL_OMEGA = [("G2", 60), ("F4", 24), ("E8", 24), ("2A2", 200)]


def _loops(d, m):
    """The value loops of the walk on a diagram with trivial Omega, in walk order, by
    plain recursion over the compositions of m / e: (length, charge) per loop.  A loop
    costs 1, plus 1 per value, or (number of nodes + 10) per value at the last position
    but one, where each value may list a class."""
    assert tuple(d.omega) == (d.nodes,), d.spec
    labels = [d.labels[i] for i in d.nodes]
    last = len(labels) - 1
    loops = []

    def walk(idx, remaining):
        if remaining and idx < last:
            n = remaining // labels[idx] + 1
            loops.append((n, 1 + n * (len(labels) + 10 if idx == last - 1 else 1)))
            if idx < last - 1:
                for val in range(n):
                    walk(idx + 1, remaining - labels[idx] * val)

    walk(0, m // d.e)
    return loops


def _refusal(d, m):
    return f"^{re.escape(d.spec)} at order {m} takes more than the {kac.MAX_WORK:,} steps"


def check_walk_is_admitted_at_exactly_its_charge(monkeypatch, spec, m):
    """The walk lists its classes with a budget of exactly its charge, and is refused
    with one step less."""
    d = build_spec(spec)
    charge = sum(c for _, c in _loops(d, m))
    classes = kac.enumerate_classes(d, m)
    monkeypatch.setattr(kac, "MAX_WORK", charge)
    assert kac.enumerate_classes(d, m) == classes
    monkeypatch.setattr(kac, "MAX_WORK", charge - 1)
    with pytest.raises(ValueError, match=_refusal(d, m)):
        kac.enumerate_classes(d, m)


@pytest.mark.parametrize("spec, m", TRIVIAL_OMEGA)
def test_walk_is_admitted_at_exactly_its_charge(monkeypatch, spec, m):
    check_walk_is_admitted_at_exactly_its_charge(monkeypatch, spec, m)


def check_refused_walk_stops_at_the_first_loop_past_the_budget(monkeypatch, spec, m):
    """At each of several budgets the walk starts the loops whose running charge fits,
    in walk order, and is refused at the next: it has charged at most the budget plus
    one loop."""
    d = build_spec(spec)
    loops = _loops(d, m)
    started = []
    monkeypatch.setattr(kac, "range", lambda n: started.append(n) or range(n), raising=False)
    total = sum(c for _, c in loops)
    for budget in (0, total // 7, total // 2, total - 1):
        monkeypatch.setattr(kac, "MAX_WORK", budget)
        started.clear()
        with pytest.raises(ValueError, match=_refusal(d, m)):
            kac.enumerate_classes(d, m)
        k = len(started)
        assert started == [n for n, _ in loops[:k]], (spec, m, budget)
        spent = sum(c for _, c in loops[:k])
        assert spent <= budget < spent + loops[k][1], (spec, m, budget)


@pytest.mark.parametrize("spec, m", TRIVIAL_OMEGA)
def test_refused_walk_stops_at_the_first_loop_past_the_budget(monkeypatch, spec, m):
    check_refused_walk_stops_at_the_first_loop_past_the_budget(monkeypatch, spec, m)


@pytest.mark.parametrize("spec, m, charge", [("A9", 10, 366_991), ("D14", 12, 1_504_131)])
def test_walk_charge_is_pinned(monkeypatch, spec, m, charge):
    d = build_spec(spec)
    monkeypatch.setattr(kac, "MAX_WORK", charge)
    assert kac.enumerate_classes(d, m)
    monkeypatch.setattr(kac, "MAX_WORK", charge - 1)
    with pytest.raises(ValueError, match=_refusal(d, m)):
        kac.enumerate_classes(d, m)


def test_an_order_whose_first_loop_passes_the_budget_is_refused_before_walking(monkeypatch):
    started = []
    monkeypatch.setattr(kac, "range", lambda n: started.append(n) or range(n), raising=False)
    for spec, m in (("A1", 10**7), ("E8", 2**61 - 1), ("2A2", 16_646_256)):
        with pytest.raises(ValueError, match=_refusal(build_spec(spec), m)):
            kac.enumerate_classes(build_spec(spec), m)
    assert started == []


def test_a_walk_frees_its_lists_without_the_garbage_collector(monkeypatch):
    """The walk's recursive helper refers to itself; neither a returned class list
    nor a refused walk's may be kept alive by that cycle until a collection."""
    e8 = build_spec("E8")
    gc.collect()
    gc.disable()
    try:
        classes = kac.enumerate_classes(e8, 24)
        assert sys.getrefcount(classes) == 2  # the name and the argument
        del classes
        monkeypatch.setattr(kac, "MAX_WORK", 10_000)
        try:
            kac.enumerate_classes(e8, 24)
        except ValueError:
            pass
        else:
            raise AssertionError("E8 at order 24 was not refused")
        assert gc.collect() == 0
    finally:
        gc.enable()
