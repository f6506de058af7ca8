"""Finite Dynkin types and classification of induced subdiagrams.

A subdiagram of one of the affine diagrams built in :mod:`kacscope.affine`
decomposes into connected components, each of which must carry a finite
Dynkin shape.  This module recognises those shapes from raw graph data
(nodes, bonds with multiplicities) and turns them into
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
from typing import Iterable, Mapping, Sequence


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
    return sum(f.root_count for f in factors)


# ---------------------------------------------------------------------------
# shape recognition
# ---------------------------------------------------------------------------


def connected_components(
    nodes: Sequence[int], adjacency: Mapping[int, Sequence[tuple[int, int]]]
) -> list[list[int]]:
    """Components of the subgraph induced on ``nodes``, each sorted, in the
    order of their first node in ``nodes``."""
    left = set(nodes)
    components: list[list[int]] = []
    for start in nodes:
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        for u in comp:  # grows while it is walked: a breadth-first search
            for v, _mult in adjacency.get(u, ()):
                if v in left:
                    left.remove(v)
                    comp.append(v)
        comp.sort()
        components.append(comp)
    return components


def _classify_component(
    comp: Sequence[int], adjacency: Mapping[int, Sequence[tuple[int, int]]]
) -> tuple[FiniteFactor, ...]:
    comp_set = set(comp)
    size = len(comp)
    edges: list[tuple[int, int, int]] = []
    for u in comp:
        for v, mult in adjacency.get(u, ()):
            if v in comp_set and u < v:
                edges.append((u, v, mult))

    if len(edges) != size - 1:
        raise UnsupportedSubdiagramError(comp, "contains a cycle")

    triples = [e for e in edges if e[2] == 3]
    quads = [e for e in edges if e[2] >= 4]
    doubles = [e for e in edges if e[2] == 2]

    if quads:
        raise UnsupportedSubdiagramError(comp, "quadruple bond is not finite type")
    if triples:
        if size == 2 and len(triples) == 1:
            return canonical_factors("G", 2)
        raise UnsupportedSubdiagramError(comp, "triple bond in a component larger than G2")
    if len(doubles) > 1:
        raise UnsupportedSubdiagramError(comp, "more than one double bond")

    degree = {u: 0 for u in comp}
    for u, v, _m in edges:
        degree[u] += 1
        degree[v] += 1
    branch_nodes = [u for u in comp if degree[u] >= 3]

    if doubles:
        if branch_nodes:
            raise UnsupportedSubdiagramError(comp, "double bond on a branched component")
        # A path.  Locate the double bond by distance from the path ends.
        u, v, _m = doubles[0]
        if degree[u] == 1 or degree[v] == 1:
            return canonical_factors("B", size)
        if size == 4:
            return canonical_factors("F", 4)
        raise UnsupportedSubdiagramError(comp, "interior double bond outside F4 shape")

    # Simply laced.
    if not branch_nodes:
        return canonical_factors("A", size)
    if len(branch_nodes) > 1:
        raise UnsupportedSubdiagramError(comp, "two branch nodes")
    hub = branch_nodes[0]
    if degree[hub] > 3:
        raise UnsupportedSubdiagramError(comp, "node of degree four")
    arms = sorted(_arm_lengths(hub, comp_set, adjacency))
    if arms[0] == 1 and arms[1] == 1:
        return canonical_factors("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return canonical_factors("E", 6)
    if arms == [1, 2, 3]:
        return canonical_factors("E", 7)
    if arms == [1, 2, 4]:
        return canonical_factors("E", 8)
    raise UnsupportedSubdiagramError(comp, f"star with arm lengths {arms}")


def _arm_lengths(
    hub: int, comp_set: set[int], adjacency: Mapping[int, Sequence[tuple[int, int]]]
) -> list[int]:
    lengths = []
    for v, _m in adjacency[hub]:
        if v not in comp_set:
            continue
        length = 0
        prev, cur = hub, v
        while True:
            length += 1
            nxt = [w for w, _m2 in adjacency[cur] if w in comp_set and w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        lengths.append(length)
    return lengths


def classify_nodes(
    nodes: Sequence[int], adjacency: Mapping[int, Sequence[tuple[int, int]]]
) -> tuple[FiniteFactor, ...]:
    """Classify the subdiagram induced on ``nodes``.

    ``adjacency`` maps each node to ``(neighbour, bond multiplicity)``
    pairs for the ambient graph.  Raises
    :class:`UnsupportedSubdiagramError` if any component is not a finite
    Dynkin shape.
    """
    factors: list[FiniteFactor] = []
    for comp in connected_components(nodes, adjacency):
        factors.extend(_classify_component(comp, adjacency))
    return sort_factors(factors)
