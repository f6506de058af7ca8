"""Finite Dynkin types and classification of induced subdiagrams.

A subdiagram of one of the affine diagrams built in :mod:`kacscope.affine`
decomposes into connected components, each of which must carry a finite
Dynkin shape.  This module recognises those shapes from node
masks and the bonds of multiplicity >= 2, and names each connected
component by one :class:`FiniteFactor`, its one simple factor, with its
exact root count.

Only the root count of a factor ever enters the arithmetic downstream, so
each shape is named once: a double bond at the end of a path is reported as
``B_k`` whether its arrow points in or out (``B_k`` stands for ``C_k``, both
with ``2k^2`` roots), and no shape the classifier recognises is named
``B1``, ``D2`` or ``D3``: one node is ``A1`` and the fork with three
one-node arms is ``D4``, the smallest ``D``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .affine import Bond


class UnsupportedSubdiagramError(ValueError):
    """A connected component is not a finite Dynkin shape.

    Carries the offending component's node ids so callers can report
    exactly which piece of the graph was rejected.
    """

    def __init__(self, nodes: Sequence[int], reason: str):
        self.nodes = tuple(sorted(nodes))
        self.reason = reason
        super().__init__(f"component {list(self.nodes)}: {reason}")


class FiniteFactor(NamedTuple):
    """One irreducible finite factor, e.g. ``A5`` or ``D8``, made by
    :func:`finite_factor`.  ``root_count`` and ``display_key`` (the
    :func:`sort_factors` key) follow from ``family`` and ``rank``, so
    equality, hashing and order follow (family, rank)."""

    family: str
    rank: int
    root_count: int
    display_key: tuple[int, str, int]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
    "F": lambda r: 48,
    "G": lambda r: 12,
}


# The least and the greatest rank of each family, None when it has no greatest.
_RANKS = {"A": (1, None), "B": (2, None), "D": (4, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@lru_cache(maxsize=None)
def finite_factor(family: str, rank: int) -> FiniteFactor:
    """The factor ``family`` of rank ``rank``, one instance per shape.  Raises
    ``ValueError`` unless it is a finite Dynkin type as the classifier names
    them: ``A`` from rank 1, ``B`` from 2, ``D`` from 4, ``E6`` to ``E8``,
    ``F4`` and ``G2``."""
    least, greatest = _RANKS.get(family, (1, 0))
    if not least <= rank <= (rank if greatest is None else greatest):
        raise ValueError(f"no finite Dynkin type {family}{rank}")
    root_count = _ROOT_COUNTS[family](rank)
    return FiniteFactor(family, rank, root_count, (-root_count, family, -rank))


_display_key, _root_count = attrgetter("display_key"), attrgetter("root_count")


def sort_factors(factors: Iterable[FiniteFactor]) -> tuple[FiniteFactor, ...]:
    """Canonical display order: biggest root count first, then family, then
    rank descending, read from each factor's ``display_key``."""
    return tuple(sorted(factors, key=_display_key))


def factors_type_string(factors: Iterable[FiniteFactor]) -> str:
    """Multiplicity-grouped name, e.g. ``2A2+A1``; ``0`` for the empty product."""
    groups = [(len(list(same)), f) for f, same in groupby(sort_factors(factors))]
    return "+".join([f"{mult}{f}" if mult > 1 else str(f) for mult, f in groups]) or "0"


def total_root_count(factors: Iterable[FiniteFactor]) -> int:
    return sum(map(_root_count, factors))


# ---------------------------------------------------------------------------
# shape recognition
# ---------------------------------------------------------------------------


def nodes_of(mask: int) -> list[int]:
    """The nodes of a node mask, node u being bit ``1 << u``, ascending."""
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


def connected_components(nodes: Sequence[int], bonds: Sequence[Bond]) -> list[list[int]]:
    """Components of the subgraph induced on ``nodes`` by ``bonds``, each
    sorted, in the order of their first node in ``nodes``.  A search over
    the bonds, independent of any node mask: the test oracle for
    :meth:`Diagram.components`."""
    left = set(nodes)
    components: list[list[int]] = []
    for start in nodes:
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        for u in comp:  # grows while it is walked: a breadth-first search
            for b in bonds:
                v = b.v if b.u == u else b.u if b.v == u else None
                if v in left:
                    left.remove(v)
                    comp.append(v)
        comp.sort()
        components.append(comp)
    return components


def _classify_component(comp: int, neighbours: Sequence[int],
                        bonds: Sequence[Bond]) -> FiniteFactor:
    """The factor of the connected node mask ``comp`` (node u is bit
    ``1 << u``) in the graph whose node u has the neighbour mask
    ``neighbours[u]``.  Degrees and arms come from the masks; of ``bonds``,
    only those of multiplicity >= 2 are read, so they alone may be given."""
    size, degree_sum, branch_nodes, rest = comp.bit_count(), 0, [], comp
    while rest:
        bit = rest & -rest
        rest ^= bit
        u = bit.bit_length() - 1
        degree = (neighbours[u] & comp).bit_count()
        degree_sum += degree
        if degree >= 3:
            branch_nodes.append(u)

    if degree_sum != 2 * (size - 1):
        raise UnsupportedSubdiagramError(nodes_of(comp), "contains a cycle")

    inside = [b for b in bonds if b.mult >= 2 and comp >> b.u & comp >> b.v & 1]
    if inside:
        if any(b.mult >= 4 for b in inside):
            raise UnsupportedSubdiagramError(nodes_of(comp), "quadruple bond is not finite type")
        if any(b.mult == 3 for b in inside):
            if size == 2 and len(inside) == 1:
                return finite_factor("G", 2)
            raise UnsupportedSubdiagramError(
                nodes_of(comp), "triple bond in a component larger than G2")
        if len(inside) > 1:
            raise UnsupportedSubdiagramError(nodes_of(comp), "more than one double bond")
        if branch_nodes:
            raise UnsupportedSubdiagramError(nodes_of(comp), "double bond on a branched component")
        # A path: the double bond is at an end of it or, in F4, in the middle.
        (b,) = inside
        if (neighbours[b.u] & comp).bit_count() == 1 or (neighbours[b.v] & comp).bit_count() == 1:
            return finite_factor("B", size)
        if size == 4:
            return finite_factor("F", 4)
        raise UnsupportedSubdiagramError(nodes_of(comp), "interior double bond outside F4 shape")

    # Simply laced.
    if not branch_nodes:
        return finite_factor("A", size)
    if len(branch_nodes) > 1:
        raise UnsupportedSubdiagramError(nodes_of(comp), "two branch nodes")
    hub = branch_nodes[0]
    heads = neighbours[hub] & comp
    if heads.bit_count() > 3:
        raise UnsupportedSubdiagramError(nodes_of(comp), "node of degree four")
    arms = []
    while heads:  # walk each arm from its head; no arm node branches
        step = heads & -heads
        heads ^= step
        arm = 1 << hub
        while step:
            arm |= step
            step = neighbours[step.bit_length() - 1] & comp & ~arm
        arms.append(arm.bit_count() - 1)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return finite_factor("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return finite_factor("E", 6)
    if arms == [1, 2, 3]:
        return finite_factor("E", 7)
    if arms == [1, 2, 4]:
        return finite_factor("E", 8)
    raise UnsupportedSubdiagramError(nodes_of(comp), f"star with arm lengths {arms}")


def classify_nodes(nodes: Sequence[int], bonds: Sequence[Bond]) -> tuple[FiniteFactor, ...]:
    """Classify the subdiagram induced on ``nodes`` by ``bonds``.

    The components come from :func:`connected_components`, a search over
    the bonds.  Raises :class:`UnsupportedSubdiagramError` if any component
    is not a finite Dynkin shape.
    """
    neighbours = [sum(1 << (b.v if b.u == u else b.u) for b in bonds if u in (b.u, b.v))
                  for u in range(max(nodes, default=-1) + 1)]
    return sort_factors([_classify_component(sum(1 << u for u in comp), neighbours, bonds)
                         for comp in connected_components(nodes, bonds)])
