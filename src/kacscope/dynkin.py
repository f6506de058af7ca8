"""Finite Dynkin types and classification of induced subdiagrams.

A subdiagram of one of the affine diagrams built in :mod:`kacscope.affine`
decomposes into connected components, each of which must carry a finite
Dynkin shape.  This module recognises those shapes from node
masks and the bonds of multiplicity >= 2, and turns them into
:class:`FiniteFactor` values with exact root counts.

Only the root count of a factor ever enters the arithmetic downstream, so
count-equivalent types are folded together: a double bond at the end of a
path is reported as ``B_k`` whether its arrow points in or out (``B_k`` and
``C_k`` both have ``2k^2`` roots), and the low-rank coincidences
``B1 = A1``, ``C2 = B2``, ``D2 = A1+A1``, ``D3 = A3`` are normalised away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

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


@dataclass(frozen=True, order=True)
class FiniteFactor:
    """One irreducible finite factor, e.g. ``A5`` or ``D8``."""

    family: str
    rank: int

    @cached_property
    def root_count(self) -> int:
        return _ROOT_COUNTS[self.family](self.rank)

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


@lru_cache(maxsize=None)
def canonical_factors(family: str, rank: int) -> tuple[FiniteFactor, ...]:
    """Normalise a (family, rank) pair to canonical factors.

    Returns a tuple because ``D2`` splits into two ``A1`` factors.  The
    result is cached: factors are frozen, so every caller can share them.

    >>> canonical_factors("D", 3)
    (FiniteFactor(family='A', rank=3),)
    >>> [str(f) for f in canonical_factors("D", 2)]
    ['A1', 'A1']
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {family}{rank}")
    if family == "A":
        return (FiniteFactor("A", rank),)
    if family in ("B", "C"):
        if rank == 1:
            return (FiniteFactor("A", 1),)
        return (FiniteFactor("B", rank),)
    if family == "D":
        if rank == 1:
            raise ValueError("D1 has no roots and is not a factor")
        if rank == 2:
            return (FiniteFactor("A", 1), FiniteFactor("A", 1))
        if rank == 3:
            return (FiniteFactor("A", 3),)
        return (FiniteFactor("D", rank),)
    if family == "E" and rank in (6, 7, 8):
        return (FiniteFactor("E", rank),)
    if family == "F" and rank == 4:
        return (FiniteFactor("F", 4),)
    if family == "G" and rank == 2:
        return (FiniteFactor("G", 2),)
    raise ValueError(f"no finite type {family}{rank}")


def sort_factors(factors: Iterable[FiniteFactor]) -> tuple[FiniteFactor, ...]:
    """Canonical display order: biggest root count first."""
    return tuple(sorted(factors, key=lambda f: (-f.root_count, f.family, -f.rank)))


def factors_type_string(factors: Iterable[FiniteFactor]) -> str:
    """Multiplicity-grouped name, e.g. ``2A2+A1``; ``0`` for the empty product."""
    ordered = sort_factors(factors)
    if not ordered:
        return "0"
    parts: list[str] = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        mult = j - i
        parts.append(f"{mult}{ordered[i]}" if mult > 1 else str(ordered[i]))
        i = j
    return "+".join(parts)


def total_root_count(factors: Iterable[FiniteFactor]) -> int:
    return sum([f.root_count for f in factors])


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
                        bonds: Sequence[Bond]) -> tuple[FiniteFactor, ...]:
    """The factors of the connected node mask ``comp`` (node u is bit
    ``1 << u``) in the graph of ``bonds``, whose node u has the neighbour
    mask ``neighbours[u]``.  Degrees and arms come from the masks; only the
    bonds of multiplicity >= 2 are read."""
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
    if any(b.mult >= 4 for b in inside):
        raise UnsupportedSubdiagramError(nodes_of(comp), "quadruple bond is not finite type")
    if any(b.mult == 3 for b in inside):
        if size == 2 and len(inside) == 1:
            return canonical_factors("G", 2)
        raise UnsupportedSubdiagramError(
            nodes_of(comp), "triple bond in a component larger than G2")
    if len(inside) > 1:
        raise UnsupportedSubdiagramError(nodes_of(comp), "more than one double bond")

    if inside:
        if branch_nodes:
            raise UnsupportedSubdiagramError(nodes_of(comp), "double bond on a branched component")
        # A path: the double bond is at an end of it or, in F4, in the middle.
        (b,) = inside
        if (neighbours[b.u] & comp).bit_count() == 1 or (neighbours[b.v] & comp).bit_count() == 1:
            return canonical_factors("B", size)
        if size == 4:
            return canonical_factors("F", 4)
        raise UnsupportedSubdiagramError(nodes_of(comp), "interior double bond outside F4 shape")

    # Simply laced.
    if not branch_nodes:
        return canonical_factors("A", size)
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
        return canonical_factors("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return canonical_factors("E", 6)
    if arms == [1, 2, 3]:
        return canonical_factors("E", 7)
    if arms == [1, 2, 4]:
        return canonical_factors("E", 8)
    raise UnsupportedSubdiagramError(nodes_of(comp), f"star with arm lengths {arms}")


def classify_nodes(nodes: Sequence[int], bonds: Sequence[Bond]) -> tuple[FiniteFactor, ...]:
    """Classify the subdiagram induced on ``nodes`` by ``bonds``.

    The components come from :func:`connected_components`, a search over
    the bonds.  Raises :class:`UnsupportedSubdiagramError` if any component
    is not a finite Dynkin shape.
    """
    neighbours = [sum(1 << (b.v if b.u == u else b.u) for b in bonds if u in (b.u, b.v))
                  for u in range(max(nodes, default=-1) + 1)]
    factors: list[FiniteFactor] = []
    for comp in connected_components(nodes, bonds):
        factors.extend(_classify_component(sum(1 << u for u in comp), neighbours, bonds))
    return sort_factors(factors)
