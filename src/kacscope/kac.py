"""Coordinate vectors for torsion automorphisms.

A torsion class on a diagram with labels c_i and twist e is a tuple
s = (s_0, ..., s_n) of non-negative integers with gcd 1; its order is
m = e * sum(c_i * s_i).  Two tuples related by a diagram symmetry in
Omega describe the same class, so each class is stored as the
lexicographically least tuple of its Omega orbit.

The zero set J = {i : s_i = 0} drives all the dimension arithmetic: the
fixed subalgebra has dimension n_e + |R_J|, where R_J is the root system
of the subdiagram induced on J.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence

from .affine import AffineDiagram

__all__ = [
    "order_of",
    "zero_set",
    "from_zero_set",
    "is_admissible",
    "apply_perm",
    "orbit",
    "canonical",
    "enumerate_classes",
    "solution_count",
]


def order_of(diagram: AffineDiagram, s: Sequence[int]) -> int:
    return diagram.e * sum(diagram.labels[i] * s[i] for i in diagram.nodes)


def zero_set(diagram: AffineDiagram, s: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i in diagram.nodes if s[i] == 0)


def from_zero_set(diagram: AffineDiagram, J: Iterable[int]) -> tuple[int, ...]:
    """The order-minimal vector vanishing exactly on J: ones elsewhere."""
    J = set(J)
    if not set(diagram.nodes) - J:
        raise ValueError("the zero set must be a proper subset of the nodes")
    return tuple(0 if i in J else 1 for i in diagram.nodes)


def is_admissible(s: Sequence[int]) -> bool:
    """Non-negative, not all zero, gcd 1."""
    g = 0
    for x in s:
        if x < 0:
            return False
        g = gcd(g, x)
    return g == 1


def apply_perm(perm: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """Pull back s along a node permutation (perm[i] = image of node i)."""
    return tuple(s[perm[i]] for i in range(len(s)))


def orbit(diagram: AffineDiagram, s: Sequence[int]) -> set[tuple[int, ...]]:
    s = tuple(s)
    return {apply_perm(p, s) for p in diagram.omega}


def canonical(diagram: AffineDiagram, s: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least representative of the Omega orbit."""
    return min(orbit(diagram, s))


def enumerate_classes(diagram: AffineDiagram, m: int) -> list[tuple[int, ...]]:
    """All classes of order exactly m, as sorted canonical representatives.

    A depth-first walk over the label-weighted compositions of m / e
    reaches every raw vector of order m, in increasing lexicographic
    order.  An admissible vector is kept only when it is the least tuple
    of its Omega orbit: for each non-identity p in Omega, s[p[i]] is
    compared with s[i] position by position, and s is rejected at the
    first position where the permuted value is smaller (p moves it to a
    lesser tuple) and passes p at the first position where it is larger.
    The kept vectors are therefore exactly ``canonical(diagram, s)`` over
    the orbits, already sorted, and no orbit is built.

    Empty when m is not a positive multiple of the twist e.  The cost is
    still one leaf per raw vector, and the raw solution count grows
    quickly on low-label diagrams (untwisted A above rank ~12 with m near
    the Coxeter number); use :func:`solution_count` to estimate before
    enumerating.
    """
    if m <= 0 or m % diagram.e:
        return []
    target = m // diagram.e
    nodes = diagram.nodes
    labels = [diagram.labels[i] for i in nodes]
    perms = [p for p in diagram.omega if p != nodes]
    found: list[tuple[int, ...]] = []
    prefix = [0] * len(nodes)

    def is_least(s: tuple[int, ...]) -> bool:
        for p in perms:
            for i, x in enumerate(s):
                y = s[p[i]]
                if y != x:
                    if y < x:
                        return False
                    break
        return True

    def fill(idx: int, remaining: int) -> None:
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

    fill(0, target)
    return found


def solution_count(diagram: AffineDiagram, m: int) -> int:
    """Number of raw admissible vectors of order m (before Omega folding).

    Computed by dynamic programming over the label-weighted composition
    count, with gcd handled by Moebius inversion over the divisors of the
    weight target: vectors with gcd d of weight t correspond to arbitrary
    vectors of weight t/d.
    """
    if m <= 0 or m % diagram.e:
        return 0
    target = m // diagram.e
    labels = [diagram.labels[i] for i in diagram.nodes]

    def raw(t: int) -> int:
        dp = [0] * (t + 1)
        dp[0] = 1
        for c in labels:
            for w in range(c, t + 1):
                dp[w] += dp[w - c]
        return dp[t]

    total = 0
    for d in range(1, target + 1):
        if target % d == 0:
            total += _moebius(d) * raw(target // d)
    return total


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result
