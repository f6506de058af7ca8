"""Exact evaluation of the fixed-subalgebra dimension bound.

For a torsion class with Kac coordinates ``s`` of order ``m`` on a diagram
with ``n = n_e`` finite nodes, the fixed subalgebra has dimension
``n + |R_J|`` where ``J`` is the zero set of ``s``, and the bound under
test is

    1/m  <=  (n + |R_J|) / |R|,        |R| = h_e * n_e.

Clearing denominators and minimising over orders sharing a zero set, the
bound for every class with zero set ``J`` reduces to the integer
certificate

    f(J) = c^J * |R_J|  -  n * c_J  >=  0,

where ``c_J`` / ``c^J`` are the label sums over ``J`` and its complement.
Everything here is exact integer / rational arithmetic; no floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul, not_
from typing import Callable, Iterator, NamedTuple, Optional

from .affine import AffineDiagram, Diagram
from .dynkin import factors_type_string, nodes_of, total_root_count
from . import kac


def zero_set_data(diagram: Diagram, J: frozenset[int], factors=None) -> tuple[int, int, int]:
    """Return ``(|R_J|, c_J, c^J)`` for a proper subset ``J`` of nodes.

    ``factors``, when the caller has already classified ``J``, saves
    classifying it a second time.
    """
    J = frozenset(J)
    if not diagram.labels.keys() >= J:
        diagram.mask_of(J)  # raises, naming every non-node
    if len(J) == len(diagram.labels):
        raise ValueError("zero set must be a proper subset of the nodes")
    if factors is None:
        factors = diagram.factors(J)
    c_j = diagram.label_sum_of(J)
    return total_root_count(factors), c_j, diagram.label_sum - c_j


def f_value(diagram: Diagram, J: frozenset[int], factors=None) -> int:
    """The integer certificate ``c^J * |R_J| - n_e * c_J``."""
    r_j, c_j, c_up = zero_set_data(diagram, J, factors)
    return c_up * r_j - diagram.n_e * c_j


class ClassReport(NamedTuple):
    """The bound, evaluated exactly for one torsion class; ``tau = 1/m`` is derived."""

    spec: str
    m: int
    s: tuple[int, ...]
    zero_set: tuple[int, ...]
    fixed_type: str
    fixed_dim: int
    bound: Fraction         # fixed_dim / |R| = a/b in lowest terms: 1/m = a/b iff a = 1, b = m
    f: int

    @property
    def tau(self) -> Fraction:
        return Fraction(1, self.m)

    @property
    def holds(self) -> bool:
        return self.bound.denominator <= self.m * self.bound.numerator

    @property
    def is_equality(self) -> bool:
        return self.bound.numerator == 1 and self.bound.denominator == self.m


@lru_cache(maxsize=4096)
def _type_and_roots(factors: tuple) -> tuple[str, int]:
    """The type string and root count of a factor tuple (D14 has about 390)."""
    return factors_type_string(factors), total_root_count(factors)


def check_class(diagram: AffineDiagram, s: tuple[int, ...]) -> ClassReport:
    """Evaluate the bound for the torsion class with Kac coordinates ``s``,
    which must be admissible with one entry per node (else ``ValueError``).

    The zero set J of ``s`` is classified once, its type and root count are
    read through :func:`_type_and_roots`, and f is worked out from them as in
    :func:`f_value`."""
    s = tuple(s)
    labels = diagram.labels
    if len(s) != len(labels) or not kac.is_admissible(s):
        raise ValueError(
            f"{','.join(str(v) for v in s)!r} is not an admissible Kac vector for "
            f"{diagram.spec} ({len(labels)} non-negative entries with gcd 1)"
        )
    J = frozenset(compress(labels, map(not_, s)))
    fixed_type, r_j = _type_and_roots(diagram.factors(J))
    c_j, fixed_dim = diagram.label_sum_of(J), diagram.n_e + r_j
    return ClassReport(diagram.spec, diagram.e * sum(map(mul, labels.values(), s)), s,
                       tuple(sorted(J)), fixed_type, fixed_dim,
                       Fraction(fixed_dim, diagram.base_root_count),
                       (diagram.label_sum - c_j) * r_j - diagram.n_e * c_j)


@dataclass(frozen=True)
class EqualityClass:
    """A torsion class attaining ``1/m = dim g^theta / dim(g/t)`` exactly."""

    m: int
    s: tuple[int, ...]
    fixed_type: str
    fixed_dim: int


@dataclass(frozen=True)
class DiagramScan:
    """Result of exhaustively certifying one diagram.

    ``min_f`` is taken over nonempty proper zero sets (the empty zero set
    always gives ``f = 0``: the principal class).  ``equality_classes``
    lists, up to diagram symmetry and in decreasing order, every torsion
    class attaining the bound; the empty zero set contributes the
    principal class of order ``h_e``.
    """

    spec: str
    h_e: int
    n_e: int
    dim_g: int
    subsets_checked: int
    min_f: int
    min_f_zero_set: tuple[int, ...]
    equality_classes: tuple[EqualityClass, ...]

    @property
    def all_nonnegative(self) -> bool:
        return self.min_f >= 0


def proper_subsets(diagram: AffineDiagram) -> Iterator[frozenset[int]]:
    """All proper subsets of the node set, the empty set first."""
    nodes = diagram.nodes
    for size in range(len(nodes)):
        for combo in itertools.combinations(nodes, size):
            yield frozenset(combo)


def subset_tables(diagram: AffineDiagram) -> tuple[list[int], list[int]]:
    """Root counts and label sums of every proper node subset, by bitmask.

    Node ``diagram.nodes[i]`` is bit ``i`` of a mask.  Returns ``(r, c)``
    with ``r[J] = |R_J|`` and ``c[J] = c_J`` for every mask
    ``0 <= J < 2^N - 1``.  Each entry is written once, from the connected
    component C of J holding its lowest node i and the rest ``sub = J - C``:
    ``r[J] = |R_C| + r[sub]`` and ``c[J] = c_C + c[sub]``.  The nodes i
    are taken in decreasing order, so ``sub``, whose lowest node is above
    i, is filled before it is read.  For each i the connected sets C with
    lowest node i are grown from ``{i}`` one neighbour above i at a time,
    and each is classified once, from its node mask ``node_C`` through the
    component memo of :meth:`Diagram.factors`, so an unsupported shape
    still raises; ``sub`` then runs over the submasks of the nodes above
    i that are neither in C nor next to it (``sub = (sub - 1) & allowed``).
    A component of a disconnected diagram reaches the full mask, which is
    skipped.  The tables live only as long as the caller holds them.
    """
    nodes = diagram.nodes
    index = {u: i for i, u in enumerate(nodes)}
    neighbours = [sum(1 << index[v] for v in nodes_of(diagram.neighbours[u])) for u in nodes]
    labels = [diagram.labels[u] for u in nodes]
    full = (1 << len(nodes)) - 1
    r = [0] * full
    c = [0] * full
    for i in reversed(range(len(nodes))):
        above = full & -(2 << i)
        stack = [(1 << i, neighbours[i], labels[i], 1 << nodes[i])]
        seen = {1 << i}
        while stack:
            C, near, c_C, node_C = stack.pop()
            frontier = near & above & ~C
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                if C | bit not in seen:
                    seen.add(C | bit)
                    b = bit.bit_length() - 1
                    stack.append((C | bit, near | neighbours[b], c_C + labels[b],
                                  node_C | 1 << nodes[b]))
            if C == full:
                continue
            roots = total_root_count(diagram._factors_of([node_C]))
            allowed = above & ~C & ~near
            r[C] = roots
            c[C] = c_C
            # only a component C of a disconnected diagram has C | allowed = full, not proper
            sub = allowed if C | allowed != full else (allowed - 1) & allowed
            while sub:
                J = C | sub
                r[J] = roots + r[sub]
                c[J] = c_C + c[sub]
                sub = (sub - 1) & allowed
    return r, c


def _members(nodes: tuple[int, ...], mask: int) -> frozenset[int]:
    return frozenset(u for i, u in enumerate(nodes) if mask >> i & 1)


def scan_diagram(diagram: AffineDiagram) -> DiagramScan:
    """Certify ``f(J) >= 0`` over every proper subset and collect equality.

    ``min_f_zero_set`` is the first minimiser in the order of
    :func:`proper_subsets`: fewest nodes, then the least sorted tuple.
    """
    n = diagram.n_e
    label_sum = diagram.label_sum
    nodes = diagram.nodes
    r, c = subset_tables(diagram)
    min_f: Optional[int] = None
    minimisers: list[int] = []
    equality: dict[tuple[int, ...], EqualityClass] = {}
    for J, (r_j, c_j) in enumerate(zip(r, c)):
        c_up = label_sum - c_j
        f = c_up * r_j - n * c_j
        if J and (min_f is None or f <= min_f):
            if f != min_f:
                min_f = f
                minimisers = []
            minimisers.append(J)
        if f == 0:
            members = _members(nodes, J)
            s = kac.canonical(diagram, kac.from_zero_set(diagram, members))
            if s not in equality:
                equality[s] = EqualityClass(
                    m=diagram.e * c_up,
                    s=s,
                    fixed_type=factors_type_string(diagram.factors(members)),
                    fixed_dim=n + r_j,
                )
    classes = tuple(
        sorted(equality.values(), key=lambda c: (-c.m, c.s))
    )
    assert min_f is not None
    min_J = min(
        (tuple(sorted(_members(nodes, J))) for J in minimisers),
        key=lambda J: (len(J), J),
    )
    return DiagramScan(
        spec=diagram.spec,
        h_e=diagram.coxeter,
        n_e=n,
        dim_g=diagram.base_dim,
        subsets_checked=len(r),
        min_f=min_f,
        min_f_zero_set=min_J,
        equality_classes=classes,
    )


# ---------------------------------------------------------------------------
# Extremal tables for the simply-laced exceptional diagrams.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRow:
    """One row of an extremal table.

    For a first-kind row, ``key`` is a complement label sum ``m`` and
    ``value`` is ``r(m) = min |R_J|`` over ``c^J = m``; for a second-kind
    row, ``key`` is a root count ``r`` and ``value`` is
    ``m(r) = min c^J`` over ``|R_J| = r``.  ``achievers`` holds the type
    strings realising the minimum, and ``witness`` the unique zero set
    (as a Kac vector, if any) attaining the underlying bound with
    equality.
    """

    key: int
    value: int
    achievers: frozenset[str]
    witness: Optional[tuple[int, ...]]


def _exceptional_inner(diagram: AffineDiagram) -> None:
    if diagram.e != 1 or diagram.ident.family != "E":
        raise ValueError(
            f"extremal tables are defined for E6, E7, E8 only, not {diagram.spec}"
        )


def step1_table(diagram: AffineDiagram) -> dict[int, StepRow]:
    """Minimal fixed root counts ``r(m)`` for ``1 < m < n_e``.

    The bound proved row by row is ``r(m) >= |R|/m - n``; the witness
    column is the unique zero set achieving it with equality, when the
    right-hand side is attained.
    """
    _exceptional_inner(diagram)
    n = diagram.n_e
    return _extremal_table(diagram, "m", lambda m, r: (m, r) if 1 < m < n else None)


def step2_table(diagram: AffineDiagram) -> dict[int, StepRow]:
    """Minimal complement sums ``m(r)`` for even ``10 <= r <= h - n``."""
    _exceptional_inner(diagram)
    wanted = range(10, diagram.coxeter - diagram.n_e + 1, 2)
    return _extremal_table(diagram, "r", lambda m, r: (r, m) if r in wanted else None)


def _extremal_table(
    diagram: AffineDiagram,
    key_name: str,
    row_of: Callable[[int, int], Optional[tuple[int, int]]],
) -> dict[int, StepRow]:
    """Rows keyed and valued by ``row_of(c^J, |R_J|) = (key, value)``.

    Each row holds the least value over the nonempty proper zero sets
    with that key (``row_of`` returns None to skip a zero set), the type
    strings of the zero sets attaining it, and the class of the unique
    zero set with ``c^J * (|R_J| + n) = |R|``, if there is one.
    """
    n = diagram.n_e
    total = diagram.base_root_count
    nodes = diagram.nodes
    r, c = subset_tables(diagram)
    groups: dict[int, list[tuple[int, bool, int]]] = {}
    for J in range(1, len(r)):
        m = diagram.label_sum - c[J]
        row = row_of(m, r[J])
        if row is not None:
            key, value = row
            groups.setdefault(key, []).append((value, m * (r[J] + n) == total, J))
    table: dict[int, StepRow] = {}
    for key, entries in sorted(groups.items()):
        least = min(value for value, _, _ in entries)
        achievers = frozenset(
            factors_type_string(diagram.factors(_members(nodes, J)))
            for value, _, J in entries
            if value == least
        )
        witnesses = {
            kac.canonical(diagram, kac.from_zero_set(diagram, _members(nodes, J)))
            for _, extremal, J in entries
            if extremal
        }
        if len(witnesses) > 1:
            raise AssertionError(
                f"{diagram.spec}: multiple extremal classes at {key_name}={key}: {witnesses}"
            )
        table[key] = StepRow(
            key=key,
            value=least,
            achievers=achievers,
            witness=next(iter(witnesses)) if witnesses else None,
        )
    return table
