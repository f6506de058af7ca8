"""Certified reduction moves for the subset inequality on chain-like diagrams.

The exhaustive scans in :mod:`kacscope.thomae` settle every diagram in the
catalog by brute force.  This module implements the structural route to the
same inequality: a sequence of moves, each with an exactly predicted change
in the certificate value

    f(J) = c^J * |R_J| - n * c_J,

that shrink an arbitrary configuration to a small normal form:

* **contraction** deletes an off-``J`` node adjacent to another off-``J``
  node, dropping ``f`` by exactly ``c_i * |R_J| - c_J > 0``;
* **balancing** moves one node of ``J`` from a largest interior run to a
  smallest one, dropping ``f`` by exactly ``2 * c^J * (q1 - q2 - 1)``;
* **switching** trades the zero at a fork for the first zero of the
  adjacent run; its drop ``2 * (q + s - 1) * c^J`` vanishes on one narrow
  configuration (``q = 1`` with the far tip zeroed), which is flagged as
  *vexing* and must be checked directly.

A configuration is *reduced* (in the set ``Z``) when no contraction
applies and the interior runs of ``J`` have at most two, consecutive,
sizes.  On such configurations ``f`` is the bilinear form
``c*x*y + alpha*x + beta*y + gamma`` computed by
:func:`greek_decomposition`.  On the classical families :func:`match_case`
reads that form's boundary part off the two spine ends: one table,
``_END``, gives what each of the eight end states adds to the four
counting quantities, the two parts add, and the pair names the match.

Only acyclic diagrams are supported here; the cycle family has its own
one-line certificate and never needs reduction.

The moves work on ``J`` as an ``int`` node mask (see :class:`Diagram`), made
once from the node set a public function takes.  :func:`_runs` and
:func:`_sizes` read its runs off its split into components.  Each graph
memoises its move table, its interior spine (:func:`_spine`) and the
children :func:`contract` has made on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, NamedTuple, Optional

from .affine import AffineDiagram, Bond, Diagram
from .dynkin import nodes_of, total_root_count
from .thomae import f_value, zero_set_data


# ---------------------------------------------------------------------------
# f and runs on bare graphs
# ---------------------------------------------------------------------------


# f on the contracted graphs is thomae's f on named diagrams: both are
# Diagram values.  ``reduce_to_z`` calls it under this name.
graph_f = f_value


def _runs(graph: Diagram, J: int) -> tuple[list[int], list[int]]:
    """The components of the node mask ``J``, as masks by least node,
    split into interior runs (all nodes of degree >= 2) and boundary runs."""
    comps, interior = graph.components(J), graph.interior_mask
    return [c for c in comps if not c & ~interior], [c for c in comps if c & ~interior]


def runs_of(
    graph: Diagram, J: frozenset[int]
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The connected components of ``J``, split into interior runs (all
    nodes of degree >= 2) and boundary runs, each sorted by least node.
    Raises ``ValueError`` when ``J`` holds a node not in the graph."""
    return tuple([frozenset(nodes_of(r)) for r in runs] for runs in _runs(graph, graph.mask_of(J)))


def _sizes(graph: Diagram, comps: list[int]) -> list[int]:
    """Sizes of the interior runs among the components ``comps``, descending."""
    return sorted([c.bit_count() for c in comps if not c & ~graph.interior_mask], reverse=True)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def _spine(graph: Diagram) -> tuple[Optional[int], tuple[int, ...], bool]:
    """The interior's label (None when its labels differ, 0 when there is
    no interior), its nodes in order, and whether the bonds inside it link
    those nodes into that path; worked out once per graph."""
    if graph._spine is None:
        inner = graph.interior_mask
        order, inside = tuple(nodes_of(inner)), graph._induced_bonds(inner)
        labels = {graph.labels[u] for u in order}
        links = sorted((min(b.u, b.v), max(b.u, b.v)) for b in inside)
        graph._spine = (None if len(labels) > 1 else max(labels, default=0), order,
                        links == list(zip(order, order[1:])))
    return graph._spine


def _first_move(graph: Diagram, J: int) -> Optional[tuple[int, int]]:
    """:func:`contractible_pair` on the mask ``J``: the first bond off ``J`` in
    the graph's table of bonds where a move may apply, by ``(min, max)``."""
    if (moves := graph._moves) is None:
        inner = graph.interior_mask
        moves = graph._moves = tuple(
            1 << u | 1 << v
            for u, v in sorted((min(b.u, b.v), max(b.u, b.v)) for b in graph.bonds)
            if graph.degree(u) == 2 or graph.degree(v) == 2 or inner >> u & inner >> v & 1
        )
    for bond in moves:
        if not bond & J:
            u, v = (bond & -bond).bit_length() - 1, bond.bit_length() - 1
            nbrs = graph.neighbours
            return (v, u) if nbrs[u].bit_count() != 2 and nbrs[v].bit_count() == 2 else (u, v)
    return None


def contractible_pair(graph: Diagram, J: frozenset[int]) -> Optional[tuple[int, int]]:
    """A pair ``(i, j)`` of adjacent off-``J`` nodes where ``i`` may be deleted.

    ``i`` must either have degree two, or be a degree-three fork whose
    neighbour ``j`` is interior.  Of the bonds where a move applies, the
    one least by ``(min, max)`` of its ends gives the pair.  Returns None
    when no move applies; that is the terminal set ``Y``.  Raises
    ``ValueError`` when ``J`` holds a node not in the graph.
    """
    return _first_move(graph, graph.mask_of(J))


def in_Z(graph: Diagram, J: frozenset[int]) -> bool:
    """Whether ``J`` is reduced: in ``Y``, with interior run sizes that
    differ by at most 1.  Raises ``ValueError`` when ``J`` holds a node
    not in the graph."""
    mask = graph.mask_of(J)
    if _first_move(graph, mask) is not None:
        return False
    sizes = _sizes(graph, graph.components(mask))
    return not sizes or sizes[0] - sizes[-1] <= 1


def contraction_drop(graph: Diagram, J: frozenset[int], i: int) -> int:
    """Exact decrease of ``f`` when the off-``J`` node ``i`` is contracted
    away."""
    graph.mask_of((i,))
    if i in J:
        raise ValueError("contraction applies to off-J nodes only")
    r_j, c_j, _c_up = zero_set_data(graph, J)
    return graph.labels[i] * r_j - c_j


def contract(graph: Diagram, J: frozenset[int], i: int, j: int) -> Diagram:
    """Delete the off-``J`` node ``i``, keeping the diagram connected.

    A degree-two ``i`` is replaced by a single bond joining its two
    neighbours; the surviving bond keeps the higher multiplicity.  When the
    two dying bonds are both multiple the replacement is the symmetric
    quadruple bond.  A degree-three ``i`` hands its pendant tips to ``j``.
    ``J`` itself, and hence the root system it spans, is untouched.

    The child is ``Diagram(e, labels, kept + added)``, with ``kept`` the
    bonds not at ``i`` in stored order.  It is memoised on ``graph`` under
    what decides it: ``i`` alone for a degree-two node, whose two partners
    add the same bond, and ``(i, j)`` for a fork.  The nodes, ``J`` and
    the bond ``(i, j)`` are checked on every call; the checks on the shape
    around ``i`` depend on the key alone, which is stored once they pass.
    """
    labels = graph.labels
    if not (i in labels and j in labels and labels.keys() >= J):
        graph.mask_of((i, j, *J))  # raises, naming every non-node
    if i in J or j in J:
        raise ValueError("contraction applies to off-J nodes only")
    nbrs = graph.neighbours[i]
    if not nbrs >> j & 1:
        raise ValueError(f"nodes {i} and {j} are not adjacent")
    key = i if nbrs.bit_count() == 2 else (i, j)
    if (child := graph._contractions.get(key)) is not None:
        return child
    mult_to = {b.v if b.u == i else b.u: b.mult for b in graph.bonds if i in (b.u, b.v)}
    deg = len(mult_to)
    added: list[Bond] = []
    if deg == 2:
        (k,) = [v for v in mult_to if v != j]
        mults = (mult_to[j], mult_to[k])
        added.append(Bond(min(j, k), max(j, k), 4 if min(mults) > 1 else max(mults)))
    elif deg == 3:
        if graph.degree(j) < 2:
            raise ValueError("a fork may only be contracted toward the interior")
        for t in (v for v in mult_to if v != j):
            if graph.degree(t) != 1 or mult_to[t] != 1:
                raise ValueError(f"node {i} is not a plain fork")
            added.append(Bond(min(t, j), max(t, j)))
    else:
        raise ValueError(f"node {i} has degree {deg}; contraction needs 2 or 3")
    kept = [b for b in graph.bonds if i != b.u and i != b.v]
    child = Diagram(graph.e, {u: c for u, c in labels.items() if u != i}, kept + added)
    graph._contractions[key] = child
    return child


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def balance_step(graph: Diagram, J: frozenset[int]) -> tuple[frozenset[int], int]:
    """Move one node of ``J`` from a largest interior run to a smallest.

    Requires a configuration in ``Y`` whose interior run sizes differ by
    at least 2.  Returns the new zero set and the exact drop
    ``2 * c^J * (q1 - q2 - 1)``; every other quantity entering ``f``
    (``n``, ``c_J``, ``c^J``, the boundary components) is unchanged.

    The interior is walked in sorted node order, so it must be a path
    whose nodes increase along it, as the builders and contraction keep
    it (see the node order conventions in :mod:`kacscope.affine`).  A
    graph whose interior is a cycle, a star, or a path numbered out of
    order raises ``ValueError("interior is not a path")``.  The drop needs
    one interior label, which is checked first: E6, E7, E8, F4 and 2E6
    raise "interior label is not constant".
    """
    label, order, is_path = _spine(graph)
    if label is None:
        raise ValueError("interior label is not constant")
    inner, outer = _runs(graph, graph.mask_of(J))
    sizes = sorted((run.bit_count() for run in inner), reverse=True)
    if not sizes or sizes[0] - sizes[-1] < 2:
        raise ValueError("balancing needs two interior runs differing by >= 2")
    q1, q2 = sizes[0], sizes[-1]
    if not is_path:
        raise ValueError("interior is not a path")
    boundary = sum(outer)
    free_idx = [t for t, u in enumerate(order) if not boundary >> u & 1]
    if free_idx != list(range(free_idx[0], free_idx[-1] + 1)):
        raise ValueError("boundary runs must sit at the spine ends")
    free = [order[t] for t in free_idx]

    flags = [u in J for u in free]
    lead, tail = not flags[0], not flags[-1]
    runs: list[int] = []
    for on, group in groupby(flags):
        size = len(list(group))
        if on:
            runs.append(size)
        elif size > 1:
            raise ValueError("configuration not reduced: adjacent off-J interior nodes")
    if sorted(runs, reverse=True) != sizes:
        raise ValueError("interior runs do not all lie in the free region")

    new_sizes = sorted([q1 - 1, *sizes[1:-1], q2 + 1], reverse=True)

    cells: list[bool] = [False] * int(lead)
    for idx, size in enumerate(new_sizes):
        if idx:
            cells.append(False)
        cells.extend([True] * size)
    cells.extend([False] * int(tail))
    if len(cells) != len(free):
        raise AssertionError("rebuilt free region has the wrong length")

    new_J = (J - set(free)) | {u for u, on in zip(free, cells) if on}
    c_up = graph.label_sum - graph.label_sum_of(J)
    return frozenset(new_J), 2 * c_up * (q1 - q2 - 1)


# ---------------------------------------------------------------------------
# the reduction driver
# ---------------------------------------------------------------------------


class ReductionStep(NamedTuple):
    kind: str                 # "contract" or "balance"
    detail: str
    drop: int
    f_after: int


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    spec: str
    start: tuple[int, ...]
    f_start: int
    steps: tuple[ReductionStep, ...]
    final_graph: Diagram
    final_J: frozenset[int]
    f_final: int


def reduce_to_z(diagram: AffineDiagram, J: Iterable[int]) -> ReductionTrace:
    """Run contractions, then balancing, verifying every predicted drop.

    ``J`` must be a nonempty proper subset of the nodes.  It is made a
    node mask, split and classified once, on the starting diagram, which
    gives the ``|R_J|`` and ``c_J`` of every predicted drop
    ``c_i * |R_J| - c_J`` of a contraction.  After each contraction:

    * the bonds induced on ``J`` must equal, as ``Bond`` values in stored
      order, those of the starting diagram.  The factors of ``J`` depend on
      nothing else, so equal induced bonds mean the root system of ``J``
      is unchanged, and the starting factors stand in for reclassifying
      ``J``;
    * ``f`` is recomputed from the new graph's labels and node count with
      those factors, and its decrease must equal the predicted drop and be
      positive.

    Equal induced bonds also keep the components of ``J``, so the run sizes
    after the contractions come from the starting split.  After each
    balancing step ``f`` is recomputed from scratch and ``J`` split again;
    the drop must be as predicted and positive.  Any disagreement raises
    ``AssertionError``.  The result must lie in ``Z``, and its ``f`` never
    exceeds the starting one.  Its ``final_graph`` is memoised by
    :func:`contract`, so other traces may share it.
    """
    if diagram.cyclic:
        raise ValueError("cycle diagrams are not reduced; their bound is direct")
    if diagram.ident.family not in "ABCD" or diagram.e == 3:
        raise ValueError(
            "reduction moves apply to the classical families only; "
            f"{diagram.spec} is handled by its finite tables"
        )
    J = frozenset(J)
    start = tuple(sorted(J))
    graph, mask = diagram, diagram.mask_of(J)
    if not mask or mask == graph.node_mask:
        raise ValueError("J must be a nonempty proper subset of the nodes")
    comps0, inside0 = graph.components(mask), graph._induced_bonds(mask)
    factors0 = graph._factors_of(comps0)
    r_j, c_j = total_root_count(factors0), graph.label_sum_of(J)
    f = f_start = graph_f(graph, J, factors0)
    steps: list[ReductionStep] = []

    while (pair := _first_move(graph, mask)) is not None:
        i, j = pair
        predicted = graph.labels[i] * r_j - c_j
        graph = contract(graph, J, i, j)
        if graph._induced_bonds(mask) != inside0:
            raise AssertionError("contraction changed the root system of J")
        new_f = graph_f(graph, J, factors0)
        if f - new_f != predicted:
            raise AssertionError(
                f"contraction of node {i}: predicted drop {predicted}, got {f - new_f}"
            )
        if predicted <= 0:
            raise AssertionError("contraction must strictly decrease f")
        steps.append(ReductionStep("contract", f"removed node {i}", predicted, new_f))
        f = new_f

    sizes = _sizes(graph, comps0)
    while sizes and sizes[0] - sizes[-1] >= 2:
        new_J, predicted = balance_step(graph, J)
        new_f = graph_f(graph, new_J)
        if f - new_f != predicted:
            raise AssertionError(
                f"balance step: predicted drop {predicted}, got {f - new_f}"
            )
        if predicted <= 0:
            raise AssertionError("balancing must strictly decrease f")
        J, f, mask, old = new_J, new_f, graph.mask_of(new_J), sizes
        sizes = _sizes(graph, graph.components(mask))
        steps.append(ReductionStep("balance", f"runs {old} -> {sizes}", predicted, f))

    if _first_move(graph, mask) is not None or (sizes and sizes[0] - sizes[-1] > 1):
        raise AssertionError("reduction terminated outside Z")
    return ReductionTrace(diagram.spec, start, f_start, tuple(steps), graph, J, f)


# ---------------------------------------------------------------------------
# switching at a fork
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchResult:
    new_J: frozenset[int]
    q: int
    s: int
    drop: int
    vexing: bool


def switch_sites(graph: Diagram, J: frozenset[int]) -> list[tuple[int, int, int]]:
    """Fork configurations ``(i, j, k)`` where the switch move applies:
    ``i`` an off-``J`` fork, ``j`` an off-``J`` pendant tip of ``i`` and
    ``k`` the interior neighbour of ``i``, with ``k`` in ``J``.  Raises
    ``ValueError`` when ``J`` holds a node not in the graph."""
    graph.mask_of(J)
    sites = []
    for i in graph.nodes:
        if i in J or graph.degree(i) != 3:
            continue
        tips = [v for v in nodes_of(graph.neighbours[i]) if graph.degree(v) == 1]
        inner = nodes_of(graph.neighbours[i] & graph.interior_mask)
        if len(tips) != 2 or len(inner) != 1 or inner[0] not in J:
            continue
        for j in tips:
            if j not in J:
                sites.append((i, j, inner[0]))
    return sites


def switch_step(
    graph: Diagram, J: frozenset[int], i: int, j: int, k: int
) -> Optional[SwitchResult]:
    """Swap the values at the fork ``i`` and the run head ``k``.

    The run through ``k`` must stay interior (an ``A``-type run).  With
    ``q + 1`` the run length and ``s`` the value at the far pendant tip
    of the fork, the drop is exactly ``2 * (q + s - 1) * c^J`` — negative
    at ``q = 0, s = 0`` (the swap welds the in-``J`` tip into a longer
    run), and zero precisely at ``q = 0, s = 1`` and on the vexing
    configuration ``q = 1, s = 0``.  Raises ``ValueError`` when ``i`` is
    not a fork with two pendant tips, ``j`` one of them and ``k`` its
    interior neighbour, and ``ValueError("not a node subset: ...")`` when
    one of them, or a node of ``J``, is not a node of ``graph``.
    """
    graph.mask_of((i, j, k, *J))
    if i in J or j in J or k not in J:
        return None
    nbrs = nodes_of(graph.neighbours[i])
    tips = [v for v in nbrs if graph.degree(v) == 1]
    if len(nbrs) != 3 or len(tips) != 2 or j not in tips or k not in nbrs or k in tips:
        raise ValueError(
            f"({i}, {j}, {k}) is not a switch site: node {i} must be a fork "
            f"with two pendant tips, {j} one of them and {k} its interior neighbour"
        )
    comp = next((c for c in runs_of(graph, J)[0] if k in c), None)
    if comp is None:
        return None  # run reaches the far boundary; not this move's shape
    q = len(comp) - 1
    far_tip = tips[0] if tips[1] == j else tips[1]
    s = 0 if far_tip in J else 1
    c_up = graph.label_sum - graph.label_sum_of(J)
    drop = 2 * (q + s - 1) * c_up
    return SwitchResult(new_J=frozenset(J - {k} | {i}), q=q, s=s, drop=drop,
                        vexing=(q == 1 and s == 0))


# ---------------------------------------------------------------------------
# the bilinear form on reduced configurations
# ---------------------------------------------------------------------------


class GreekData(NamedTuple):
    """Coefficients of ``f = c*x*y + alpha*x + beta*y + gamma``.

    ``x`` runs count interior runs of size ``q - 1`` and ``y`` those of
    size ``q``; ``a = c^J - c(x+y)`` and ``b = n - qx - (q+1)y`` absorb
    the boundary part.  ``beta`` equals ``alpha`` with ``q`` advanced by
    one, which :meth:`alpha_at` makes checkable pointwise.
    """

    c: int
    q: int
    x: int
    y: int
    a: int
    b: int
    r_boundary: int
    c_boundary: int
    alpha: int
    beta: int
    gamma: int

    @property
    def f_via_form(self) -> int:
        return self.c * self.x * self.y + self.alpha * self.x + self.beta * self.y + self.gamma

    def alpha_at(self, q: int) -> int:
        return (
            self.c * self.r_boundary
            + self.a * q * (q - 1)
            - self.b * self.c * (q - 1)
            - q * self.c_boundary
        )


def greek_decomposition(graph: Diagram, J: frozenset[int]) -> GreekData:
    """Split ``f`` into the interior-run bilinear form.

    Valid whenever the interior runs of ``J`` have at most two sizes and
    those sizes are consecutive (the situation after reduction); raises
    otherwise.  The interior label must be constant, which holds for every
    supported diagram and survives contraction.
    """
    # c (0 on a two-node graph, which has no interior) multiplies only x and y
    c = _spine(graph)[0]
    if c is None:
        raise ValueError("interior label is not constant")

    inner, outer = _runs(graph, graph.mask_of(J))
    sizes = [run.bit_count() for run in inner]
    low = min(sizes, default=0)
    if max(sizes, default=0) - low > 1:
        raise ValueError(f"interior run sizes {sorted(set(sizes))} are not two consecutive values")
    q, x = low + 1, sizes.count(low)
    y = len(sizes) - x

    r_boundary = total_root_count(graph._factors_of(outer))
    c_j = graph.label_sum_of(J)
    c_boundary = c_j - c * sum(sizes)  # every interior node has the label c
    c_up = graph.label_sum - c_j
    a = c_up - c * (x + y)
    b = graph.n_e - q * x - (q + 1) * y

    alpha = (c * r_boundary + a * q * (q - 1)) - (b * c * (q - 1) + q * c_boundary)
    beta = (c * r_boundary + a * q * (q + 1)) - (b * c * q + (q + 1) * c_boundary)
    gamma = a * r_boundary - b * c_boundary
    return GreekData(c, q, x, y, a, b, r_boundary, c_boundary, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# the end table for the classical families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseMatch:
    """A reduced classical configuration recognised by its two spine ends.

    ``name`` is ``"<left state> / <right state>"`` and ``params`` holds
    ``sL``, ``gL``, ``sR``, ``gR``, ``q``, ``x`` and ``y``, which with
    ``_END``, ``_GAP`` and the interior label give ``f``.  ``alpha`` and
    ``gamma`` are :func:`greek_decomposition`'s, returned once the end
    table's four counting identities hold.
    """

    name: str
    params: dict[str, int]
    alpha: int
    gamma: int


# What a spine end adds to (|R_J|, c^J, n, c_J), by its state: its kind, how
# many of its nodes J holds, and "split" when those fall in two runs.  ``s``
# is the node count of the end's runs (0 when J holds none of its nodes), and
# the c^J and c_J parts are in units of c/2, c the interior label.  A light
# or heavy end carries one node of label c/2 or c on a double bond, a fork
# two tips of label c/2 on a hub of label c, so the end's runs are:
#   light 1: C_s (or B_s), 2s^2 roots, one c/2 node and s - 1 of label c;
#   heavy 1: B_s (or C_s), 2s^2 roots, s nodes of label c;
#   fork 1:  A_s, s(s + 1) roots, one tip and s - 1 nodes of label c;
#   fork 2:  D_s, 2s(s - 1) roots, two tips and s - 2 nodes of label c;
#   fork 2 split: A1 + A1, 4 roots, the two tips.
_END: dict[str, Callable[[int], tuple[int, int, int, int]]] = {
    "light 0": lambda s: (0, 0, 0, 0),
    "light 1": lambda s: (2 * s * s, 1, s, 2 * s - 1),
    "heavy 0": lambda s: (0, 1, 0, 0),
    "heavy 1": lambda s: (2 * s * s, 1, s, 2 * s),
    "fork 0": lambda s: (0, 1, 1, 0),
    "fork 1": lambda s: (s * (s + 1), 2, s + 1, 2 * s - 1),
    "fork 2": lambda s: (2 * s * (s - 1), 1, s, 2 * (s - 1)),
    "fork 2 split": lambda s: (4, 1, 2, 2),
}

# What each off-J spine node beyond an end's base gap adds, in the same units.
_GAP = (0, 2, 1, 0)


def match_case(diagram: AffineDiagram, J: frozenset[int]) -> Optional[CaseMatch]:
    """Recognise a member of ``Z`` on a classical diagram by its two ends.

    Each spine end gets its state (see ``_END``), the node count ``s`` of
    its runs and its gap ``g``: the off-``J`` spine nodes from the end, past
    its runs, to the first node of ``J``.  Of two ends of one kind the
    fuller is the left.  Each off-``J`` spine node beyond the first of an
    end holding nodes (beyond none of one holding none) adds ``_GAP``; with
    no interior run the ends share one gap, counted once.  The ends' parts,
    the gap term and the interior runs must give ``|R_J|``, ``c^J``, ``n``
    and ``c_J`` as :func:`zero_set_data` computes them.

    None when the diagram has no end record or no interior, when
    :func:`greek_decomposition` refuses ``J``, when ``J`` is not contracted,
    when the ends' runs are not distinct or miss a boundary run, or when an
    identity fails.  A match is named ``"<left state> / <right state>"`` and
    reports ``sL``, ``gL``, ``sR``, ``gR``, ``q``, ``x`` and ``y``.  Raises
    ``ValueError`` when ``J`` holds a node not in the diagram.
    """
    mask = diagram.mask_of(J)
    if diagram.ends is None or not diagram.interior_mask:
        return None  # no end record, or a two-node diagram with no spine
    try:
        g = greek_decomposition(diagram, J)
    except ValueError:
        return None  # non-constant interior label or spread-out run sizes
    if _first_move(diagram, mask) is not None:
        return None  # not contracted, so not in Z
    inner, outer = _runs(diagram, mask)
    spine = _spine(diagram)[1]
    ends = []
    for end, walk in zip(diagram.ends, (spine, spine[::-1])):
        held = mask & sum(1 << t for t in end.nodes)
        runs = [run for run in outer if run & held]
        own = sum(runs)
        steps = [u for u in walk if not own >> u & 1]
        gap = next((t for t, u in enumerate(steps) if mask >> u & 1), len(steps))
        state = f"{end.kind} {held.bit_count()}" + " split" * (len(runs) == 2)
        ends.append((held.bit_count(), state, own, gap))
    if diagram.ends[0].kind == diagram.ends[1].kind:
        ends.sort(key=lambda end: -end[0])
    (h_l, left, own_l, g_l), (h_r, right, own_r, g_r) = ends
    if own_l & own_r or own_l | own_r != sum(outer):
        return None
    s_l, s_r = own_l.bit_count(), own_r.bit_count()
    q, x, y, c = g.q, g.x, g.y, g.c
    extra = (g_l + g_r if x + y else g_l + 1) - (h_l > 0) - (h_r > 0)
    r_b, up_b, n_b, c_b = (
        a + b + extra * d for a, b, d in zip(_END[left](s_l), _END[right](s_r), _GAP))
    r_j, c_j, c_up = zero_set_data(diagram, J, diagram._factors_of(inner + outer))
    if (r_j, 2 * c_up, diagram.n_e, 2 * c_j) != (
        r_b + q * (q - 1) * x + q * (q + 1) * y,
        c * (up_b + 2 * (x + y)),
        n_b + q * x + (q + 1) * y,
        c * (c_b + 2 * ((q - 1) * x + q * y)),
    ):
        return None
    params = {"sL": s_l, "gL": g_l, "sR": s_r, "gR": g_r, "q": q, "x": x, "y": y}
    return CaseMatch(f"{left} / {right}", params, g.alpha, g.gamma)
