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

from itertools import compress
from math import gcd
from operator import mul, not_
from typing import Iterable, Optional, Sequence

from .affine import AffineDiagram

# the most work one enumerate_classes walk may do.  Each value loop is charged as it
# starts: 1, plus 1 per value, or (number of nodes + 10) per value at the last position
# but one, where each value may list a class.  A12 at order 13 costs 17.2 M
MAX_WORK = 20_000_000


def order_of(diagram: AffineDiagram, s: Sequence[int]) -> int:
    _require_length(diagram, s)
    return diagram.e * sum(map(mul, diagram.labels.values(), s))


def zero_set(diagram: AffineDiagram, s: Sequence[int]) -> frozenset[int]:
    _require_length(diagram, s)
    return frozenset(compress(diagram.labels, map(not_, s)))


def _require_length(diagram: AffineDiagram, s: Sequence[int]) -> None:
    if len(s) != len(diagram.labels):
        raise ValueError(f"{diagram.spec} takes {len(diagram.labels)} coordinates, got {len(s)}")


def from_zero_set(diagram: AffineDiagram, J: Iterable[int]) -> tuple[int, ...]:
    """The order-minimal vector vanishing exactly on J: ones elsewhere."""
    J = set(J)
    if not diagram.labels.keys() >= J:
        diagram.mask_of(J)  # raises, naming every non-node
    if len(J) == len(diagram.labels):
        raise ValueError("the zero set must be a proper subset of the nodes")
    return tuple(0 if i in J else 1 for i in diagram.nodes)


def is_admissible(s: Sequence[int]) -> bool:
    """Non-negative, not all zero, gcd 1."""
    return min(s, default=0) >= 0 and gcd(*s) == 1


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
    fills the coordinates in order, so the vectors it completes come in
    increasing lexicographic order.  A vector is kept only when it is
    admissible and the least tuple of its Omega orbit: for each
    non-identity p in Omega, s[p[i]] is compared with s[i] position by
    position, s is rejected at the first position where the permuted
    value is smaller (p moves it to a lesser tuple), and passes p at the
    first position where it is larger.  The kept vectors are therefore
    exactly ``canonical(diagram, s)`` over the orbits, already sorted,
    and no orbit is built.

    The comparisons run on the prefix as it is filled.  Position i is
    decided once both i and p[i] are filled; each p carries the first
    position it has not yet decided, and after each value is placed it
    moves over decided ties.  A decided position where the permuted
    value is smaller cuts the branch, since every completion of the
    prefix would be rejected; one where it is larger drops p, since every
    completion passes it.  The walk thus skips the subtrees of non-least
    prefixes instead of visiting each of their vectors.  Entries are >= 0
    as built and the prefix's gcd is carried down for admissibility.
    Once the weight is spent, the one completion (all zeros) is set at
    once and every open p decided on it in one step.  At the last position
    but one each value fixes the last entry, so that loop sets both, takes
    their gcd with the prefix's and decides every open p on the whole
    vector, with no call for the last.

    Empty when m is not a positive multiple of the twist e.  The number
    of compositions still grows quickly on low-label diagrams (untwisted
    A above rank ~12 with m near the Coxeter number), so the walk charges
    each value loop as it starts (see :data:`MAX_WORK`) and raises
    ``ValueError`` once the total passes the budget.
    """
    if m <= 0 or m % diagram.e:
        return []
    nodes = diagram.nodes
    last = len(nodes) - 1
    labels = [diagram.labels[i] for i in nodes]
    # per non-identity p: the depth at which each position is decided,
    # max(i, p[i]), then a sentinel past the last depth; and the first
    # position still open (all comparisons before it are ties)
    start = [
        (p, tuple(max(i, p[i]) for i in nodes) + (len(nodes),), 0)
        for p in diagram.omega
        if p != nodes
    ]
    found: list[tuple[int, ...]] = []
    prefix = [0] * len(nodes)
    per_class = len(nodes) + 10
    work = 0
    over = f"{diagram.spec} at order {m} takes more than the {MAX_WORK:,} steps that enumerate walks"

    def advance(open_perms: list, idx: int) -> Optional[list]:
        """Decide what the prefix up to ``idx`` settles: None when some p
        already moves it lower, else the p still open."""
        carried = []
        for p, decided_at, i in open_perms:
            while decided_at[i] <= idx:
                y, x = prefix[p[i]], prefix[i]
                if y != x:
                    if y < x:
                        return None
                    break
                i += 1
            else:
                carried.append((p, decided_at, i))
        return carried

    def fill(idx: int, remaining: int, g: int, open_perms: list) -> None:
        # fill positions idx..last; g is the gcd of the entries before idx
        nonlocal work
        if not remaining:
            # the weight is spent: the one completion is zeros
            prefix[idx:] = [0] * (last + 1 - idx)
            if g == 1 and (not open_perms or advance(open_perms, last) is not None):
                found.append(tuple(prefix))
            return
        c = labels[idx]
        if idx == last - 1:
            # each value here fixes the last entry: finish the vector in one step
            c_last = labels[last]
            work += (remaining // c + 1) * per_class + 1
            if work > MAX_WORK:
                raise ValueError(over)
            for val in range(remaining // c + 1):
                if (rest := remaining - c * val) % c_last:
                    continue
                prefix[idx] = val
                prefix[last] = top = rest // c_last
                if gcd(g, val, top) == 1 and (
                        not open_perms or advance(open_perms, last) is not None):
                    found.append(tuple(prefix))
            return
        work += remaining // c + 2
        if work > MAX_WORK:
            raise ValueError(over)
        for val in range(remaining // c + 1):
            prefix[idx] = val
            carried = open_perms and advance(open_perms, idx)
            if carried is not None:
                fill(idx + 1, remaining - c * val, gcd(g, val), carried)

    try:
        fill(0, m // diagram.e, 0, start)
    finally:
        del fill  # fill's cell holds fill itself: free the walk without waiting for the GC
    return found

