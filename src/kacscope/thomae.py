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

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul, not_
from typing import Iterator, NamedTuple, Optional

from .affine import AffineDiagram, Diagram
from .dynkin import factors_type_string, nodes_of, total_root_count
from . import kac


def zero_set_data(diagram: Diagram, J: frozenset[int], factors=None) -> tuple[int, int, int]:
    """Return ``(|R_J|, c_J, c^J)`` for a proper subset ``J`` of nodes.

    ``factors``, when the caller has already classified ``J``, saves
    classifying it a second time.
    """
    J = frozenset(J)
    c_j = diagram.label_sum_of(J)  # raises, naming every non-node
    if len(J) == len(diagram.labels):
        raise ValueError("zero set must be a proper subset of the nodes")
    if factors is None:
        factors = diagram.factors(J)
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


class EqualityClass(NamedTuple):
    """A torsion class attaining ``1/m = dim g^theta / dim(g/t)`` exactly."""

    m: int
    s: tuple[int, ...]
    fixed_type: str
    fixed_dim: int


class DiagramScan(NamedTuple):
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


def proper_subsets(diagram: AffineDiagram) -> Iterator[frozenset[int]]:
    """All proper subsets of the node set, the empty set first."""
    nodes = diagram.nodes
    for size in range(len(nodes)):
        for combo in itertools.combinations(nodes, size):
            yield frozenset(combo)


class SubsetTables(NamedTuple):
    """What :func:`subset_tables` returns; every J is a node mask."""

    r: list[int]            # r[J] = |R_J|
    c: list[int]            # c[J] = c_J
    min_f: int              # the least f over nonempty J
    minimisers: list[int]   # every nonempty J with f = min_f
    zeros: list[int]        # every J with f = 0, the empty set first


def subset_tables(diagram: AffineDiagram) -> SubsetTables:
    """Root counts and label sums of every proper node subset, by node mask,
    with f evaluated on each entry as it is written.

    The diagram must be connected on the nodes ``0..N-1`` (else
    ``ValueError``), so that ``full = diagram.node_mask`` is ``2^N - 1``.
    Each entry ``0 <= J < full`` is written once, from the connected
    component C of J holding its lowest node i and the rest ``sub = J - C``:
    ``r[J] = |R_C| + r[sub]`` and ``c[J] = c_C + c[sub]``.  The nodes i are
    taken in decreasing order, so ``sub``, whose lowest node is above i, is
    filled before it is read.  For each i the connected sets C with lowest
    node i are grown from ``{i}`` one neighbour above i at a time, and each
    is classified once, through the component memo of
    :meth:`Diagram.factors`, so an unsupported shape still raises; ``sub``
    then runs over the submasks of the nodes above i that are neither in C
    nor next to it (``sub = (sub - 1) & allowed``), ending with ``sub = 0``,
    J = C itself.  Each f is compared with the least so far and with zero as
    soon as its entry is written, so no table is walked twice and no f is
    stored.  The tables live only as long as the caller holds them.
    """
    full = diagram.node_mask
    parts = len(diagram.components(full))
    if full & (full + 1) or parts != 1:
        raise ValueError(f"subset tables need a diagram connected on the nodes 0..N-1, "
                         f"not one on the nodes {list(diagram.nodes)} in {parts} component(s)")
    neighbours, labels = diagram.neighbours, diagram.labels
    n, label_sum = diagram.n_e, diagram.label_sum
    r, c = [0] * full, [0] * full
    min_f, minimisers, zeros = math.inf, [], [0]  # f(empty set) = 0
    for i in reversed(range(full.bit_length())):
        above = full & -(2 << i)
        stack = [(1 << i, neighbours[i], labels[i])]
        seen = {1 << i}
        while stack:
            C, near, c_C = stack.pop()
            frontier = near & above & ~C
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                if C | bit not in seen:
                    seen.add(C | bit)
                    b = bit.bit_length() - 1
                    stack.append((C | bit, near | neighbours[b], c_C + labels[b]))
            if C == full:
                continue
            roots = diagram._factors_of([C])[0].root_count
            allowed = above & ~C & ~near
            sub = allowed
            while True:
                J = C | sub
                r[J] = r_j = roots + r[sub]
                c[J] = c_j = c_C + c[sub]
                f = (label_sum - c_j) * r_j - n * c_j
                if f <= min_f:
                    if f < min_f:
                        min_f, minimisers = f, []
                    minimisers.append(J)
                if not f:
                    zeros.append(J)
                if not sub:
                    break
                sub = (sub - 1) & allowed
    return SubsetTables(r, c, min_f, minimisers, zeros)


def scan_diagram(diagram: AffineDiagram) -> DiagramScan:
    """Certify ``f(J) >= 0`` over every proper subset and collect equality
    from the least f, its minimisers and the zeros of f that
    :func:`subset_tables` kept; no table is walked again.

    ``min_f_zero_set`` is the first minimiser in the order of
    :func:`proper_subsets`: fewest nodes, then the least sorted tuple.
    """
    n = diagram.n_e
    r, c, min_f, minimisers, zeros = subset_tables(diagram)
    equality: dict[tuple[int, ...], EqualityClass] = {}
    for J in zeros:
        members = nodes_of(J)
        s = kac.canonical(diagram, kac.from_zero_set(diagram, members))
        if s not in equality:
            equality[s] = EqualityClass(
                m=diagram.e * (diagram.label_sum - c[J]),
                s=s,
                fixed_type=factors_type_string(diagram.factors(members)),
                fixed_dim=n + r[J],
            )
    classes = tuple(sorted(equality.values(), key=lambda cls: (-cls.m, cls.s)))
    min_J = min((tuple(nodes_of(J)) for J in minimisers), key=lambda J: (len(J), J))
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

class StepRow(NamedTuple):
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


def extremal_tables(diagram: AffineDiagram) -> tuple[dict[int, StepRow], dict[int, StepRow]]:
    """Both extremal tables of an inner exceptional diagram, from one pass
    over its subset tables.

    The first holds the minimal fixed root counts ``r(m)`` for
    ``1 < m < n_e``; the bound proved row by row is ``r(m) >= |R|/m - n``.
    The second holds the minimal complement sums ``m(r)`` for even
    ``10 <= r <= h - n``.  Each row holds the least value over the nonempty
    proper zero sets with its key, the type strings of the zero sets
    attaining it, and the class of the unique zero set with
    ``c^J * (|R_J| + n) = |R|``, if there is one.
    """
    if diagram.e != 1 or diagram.ident.family != "E":
        raise ValueError(
            f"extremal tables are defined for E6, E7, E8 only, not {diagram.spec}"
        )
    n = diagram.n_e
    total = diagram.base_root_count
    wanted = range(10, diagram.coxeter - n + 1, 2)
    r, c, *_ = subset_tables(diagram)
    by_m: dict[int, list[tuple[int, bool, int]]] = {}
    by_r: dict[int, list[tuple[int, bool, int]]] = {}
    for J in range(1, len(r)):
        m = diagram.label_sum - c[J]
        extremal = m * (r[J] + n) == total
        if 1 < m < n:
            by_m.setdefault(m, []).append((r[J], extremal, J))
        if r[J] in wanted:
            by_r.setdefault(r[J], []).append((m, extremal, J))

    def rows(key_name: str, groups: dict) -> dict[int, StepRow]:
        table: dict[int, StepRow] = {}
        for key, entries in sorted(groups.items()):
            least = min(value for value, _, _ in entries)
            achievers = frozenset(
                factors_type_string(diagram.factors(nodes_of(J)))
                for value, _, J in entries
                if value == least
            )
            witnesses = {
                kac.canonical(diagram, kac.from_zero_set(diagram, nodes_of(J)))
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

    return rows("m", by_m), rows("r", by_r)
