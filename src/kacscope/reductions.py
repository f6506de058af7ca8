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
:func:`greek_decomposition`, and for the classical families the
coefficients collapse to the closed forms in :func:`match_case`.

Only acyclic diagrams are supported here; the cycle family has its own
one-line certificate and never needs reduction.

The moves work on ``J`` as an ``int`` node mask (see :class:`Diagram`), made
once from the node set a public function takes and split into runs by
:func:`_runs` alone.  Each graph memoises its move table and the children
:func:`contract` has made on it.
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


def _sizes(graph: Diagram, J: int) -> list[int]:
    """Sizes of the interior runs of the node mask ``J``, descending."""
    return sorted((run.bit_count() for run in _runs(graph, J)[0]), reverse=True)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


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


def _in_z(graph: Diagram, J: int) -> bool:
    """:func:`in_Z` on the node mask ``J``."""
    if _first_move(graph, J) is not None:
        return False
    sizes = _sizes(graph, J)
    return not sizes or sizes[0] - sizes[-1] <= 1


def in_Z(graph: Diagram, J: frozenset[int]) -> bool:
    """Whether ``J`` is reduced: in ``Y``, with interior run sizes that
    differ by at most 1.  Raises ``ValueError`` when ``J`` holds a node
    not in the graph."""
    return _in_z(graph, graph.mask_of(J))


def _contraction_drop(c_i: int, r_j: int, c_j: int) -> int:
    """The drop ``c_i * |R_J| - c_J`` of contracting a node of label ``c_i``."""
    return c_i * r_j - c_j


def contraction_drop(graph: Diagram, J: frozenset[int], i: int) -> int:
    """Exact decrease of ``f`` when the off-``J`` node ``i`` is contracted
    away."""
    graph.mask_of((i,))
    if i in J:
        raise ValueError("contraction applies to off-J nodes only")
    r_j, c_j, _c_up = zero_set_data(graph, J)
    return _contraction_drop(graph.labels[i], r_j, c_j)


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
    if len({graph.labels[u] for u in graph.interior}) > 1:
        raise ValueError("interior label is not constant")
    inner, outer = _runs(graph, graph.mask_of(J))
    sizes = sorted((run.bit_count() for run in inner), reverse=True)
    if not sizes or sizes[0] - sizes[-1] < 2:
        raise ValueError("balancing needs two interior runs differing by >= 2")
    q1, q2 = sizes[0], sizes[-1]

    order = sorted(graph.interior)
    links = sorted((min(b.u, b.v), max(b.u, b.v)) for b in graph._induced_bonds(graph.interior_mask))
    if links != list(zip(order, order[1:])):
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


@dataclass(frozen=True)
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
    node mask and classified once, on the starting diagram, which gives
    the ``|R_J|`` and ``c_J`` of every predicted drop ``c_i * |R_J| - c_J``
    of a contraction.  After each contraction:

    * the bonds induced on ``J`` must equal, as ``Bond`` values in stored
      order, those of the starting diagram.  The factors of ``J`` depend on
      nothing else, so equal induced bonds mean the root system of ``J``
      is unchanged, and the starting factors stand in for reclassifying
      ``J``;
    * ``f`` is recomputed from the new graph's labels and node count with
      those factors, and its decrease must equal the predicted drop and be
      positive.

    After each balancing step ``f`` is recomputed from scratch, and its
    decrease must equal the predicted drop and be positive.  Any
    disagreement raises ``AssertionError``.  The result must lie in ``Z``,
    and its ``f`` value never exceeds the starting one.  Its ``final_graph``
    is memoised by :func:`contract`, so other traces may share it.
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
    graph = diagram
    if not J or not J < frozenset(graph.labels):
        raise ValueError("J must be a nonempty proper subset of the nodes")

    mask = graph.mask_of(J)
    factors0 = graph.factors(J)
    inside0 = graph._induced_bonds(mask)
    r_j, c_j = total_root_count(factors0), graph.label_sum_of(J)
    f = f_start = graph_f(graph, J, factors0)
    steps: list[ReductionStep] = []

    while (pair := _first_move(graph, mask)) is not None:
        i, j = pair
        predicted = _contraction_drop(graph.labels[i], r_j, c_j)
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

    sizes = _sizes(graph, mask)
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
        sizes = _sizes(graph, mask)
        steps.append(ReductionStep("balance", f"runs {old} -> {sizes}", predicted, f))

    if not _in_z(graph, mask):
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
    interior_labels = {graph.labels[u] for u in nodes_of(graph.interior_mask)}
    if len(interior_labels) > 1:
        raise ValueError("interior label is not constant")
    # a two-node graph has no interior: every term involving c carries a
    # factor of x or y, both zero, so any value is exact — use 0
    c = interior_labels.pop() if interior_labels else 0

    inner, outer = _runs(graph, graph.mask_of(J))
    sizes = [run.bit_count() for run in inner]
    low = min(sizes, default=0)
    if max(sizes, default=0) - low > 1:
        raise ValueError(f"interior run sizes {sorted(set(sizes))} are not two consecutive values")
    q, x = low + 1, sizes.count(low)
    y = len(sizes) - x

    r_boundary = total_root_count(graph._factors_of(outer))
    c_boundary = graph.label_sum_of(nodes_of(sum(outer)))
    c_j = graph.label_sum_of(J)
    c_up = graph.label_sum - c_j
    a = c_up - c * (x + y)
    b = graph.n_e - q * x - (q + 1) * y

    alpha = (c * r_boundary + a * q * (q - 1)) - (b * c * (q - 1) + q * c_boundary)
    beta = (c * r_boundary + a * q * (q + 1)) - (b * c * q + (q + 1) * c_boundary)
    gamma = a * r_boundary - b * c_boundary
    return GreekData(c, q, x, y, a, b, r_boundary, c_boundary, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# closed forms for the classical families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseMatch:
    """A reduced classical configuration recognised by its tip pattern.

    ``alpha``/``gamma`` are the closed forms predicted by the case; they
    must agree with the values computed by :func:`greek_decomposition`,
    and ``beta`` with ``alpha_at(q + 1)``.
    """

    name: str
    params: dict[str, int]
    alpha: int
    gamma: int


# The closed-form cases: name -> (c, params, boundary, greek).  ``c`` is the
# interior label and ``params`` the boundary parameters the case reports (an
# absent run counts as 0).  ``boundary(p, r)`` is what the boundary runs add
# to (|R_J|, c^J, n, c_J), and ``greek(p, q, r)`` is (alpha, gamma).
_Form = Callable[..., tuple[int, ...]]
_CASES: dict[str, tuple[int, str, _Form, _Form]] = {
    "2A-even terminal run": (
        2, "r", lambda p, r: (2 * r * r, 1, r, 2 * r),
        lambda p, q, r: ((q - 2 * r) * (q - 2 * r - 1), 0),
    ),
    "C interior runs": (
        2, "", lambda p, r: (0, 0, 0, 0),
        lambda p, q, r: (0, 0),
    ),
    "2D two terminal runs": (
        1, "pr", lambda p, r: (2 * p * p + 2 * r * r, 1, p + r, p + r),
        lambda p, q, r: ((p - r) ** 2 + (p + r - q) * (p + r - q + 1), (p - r) ** 2),
    ),
    "2A-odd fork run": (
        2, "p", lambda p, r: (2 * p * (p - 1), 1, p, 2 * (p - 1)),
        lambda p, q, r: ((2 * p - q) * (2 * p - q - 1), 0),
    ),
    "2A-odd one-tip run": (
        2, "p", lambda p, r: (p * (p + 1), 2, 1 + p, 2 * p - 1),
        lambda p, q, r: (2 * (p - q + 1) ** 2 + q, p + 1),
    ),
    "2A-odd interior runs": (
        2, "", lambda p, r: (0, 1, 1, 0),
        lambda p, q, r: ((q - 1) * (q - 2), 0),
    ),
    "B fork and terminal runs": (
        2, "pr", lambda p, r: (2 * p * (p - 1) + 2 * r * r, 2, p + r, 2 * (p + r - 1)),
        lambda p, q, r: (
            2 * (p - r) * (p - r - 1) + 2 * (p + r - q) ** 2, 2 * (p - r) * (p - r - 1)
        ),
    ),
    # alpha is the x-coefficient of c^J*|R_J| - n*c_J expanded through the
    # four identities; the final 2(1-q)(1+r) term is forced by that
    # expansion.  Without a terminal run r is 0.
    "B one-tip and terminal runs": (
        2, "pr", lambda p, r: (p * (p + 1) + 2 * r * r, 3, p + r + 1, 2 * p + 2 * r - 1),
        lambda p, q, r: (
            2 * (p - q) * (p - q + 1) + (q - r) ** 2 + 3 * r * r + 2 * p
            + 2 * (1 - q) * (1 + r),
            (2 * r - p - 1) ** 2 + 3 * r,
        ),
    ),
    "B terminal run": (
        2, "r", lambda p, r: (2 * r * r, 2, r + 1, 2 * r),
        lambda p, q, r: (2 * (q - r - 1) ** 2 + 2 * r * (r - 1), 2 * r * (r - 1)),
    ),
    "D two full forks": (
        2, "pr", lambda p, r: (2 * p * (p - 1) + 2 * r * (r - 1), 2, p + r, 2 * (p + r - 2)),
        lambda p, q, r: (2 * (p - r) ** 2 + 2 * (p + r - q) * (p + r - q - 1), 2 * (p - r) ** 2),
    ),
    "D two half forks": (
        2, "pr", lambda p, r: (p * (p - 1) + r * (r - 1), 4, p + r, 2 * (p + r - 3)),
        lambda p, q, r: (
            2 * (p - q) ** 2 + 2 * (r - q) ** 2 + 2 * q, 2 * (p - r) ** 2 + 2 * (p + r)
        ),
    ),
    "D one full fork": (
        2, "p", lambda p, r: (2 * p * (p - 1), 2, 1 + p, 2 * (p - 1)),
        lambda p, q, r: (2 * ((p - q + 1) ** 2 + (p - 2) * (p - 1) + (q - 2)), 2 * (p - 1) ** 2),
    ),
    "D one half fork": (
        2, "p", lambda p, r: (p * (p - 1), 3, 1 + p, 2 * p - 3),
        lambda p, q, r: (2 * (p - q) ** 2 + (q - 1) ** 2 + 1, (p - 1) ** 2 + 2),
    ),
    "D interior runs": (
        2, "", lambda p, r: (0, 2, 2, 0),
        lambda p, q, r: (2 * (q - 1) * (q - 2), 0),
    ),
}

# A boundary run the case needs: its parameter, the tips it must hold (the
# first one finds it) and what its node count adds to give the parameter.
_Run = tuple[str, tuple[int, ...], int]

# (left end kind, how many of its nodes J holds, right end kind, the same)
# -> the case that selects the configuration
_PATTERNS = {
    ("light", 0, "heavy", 1): "2A-even terminal run",
    ("light", 0, "light", 0): "C interior runs",
    ("heavy", 1, "heavy", 1): "2D two terminal runs",
    ("fork", 2, "light", 0): "2A-odd fork run",
    ("fork", 1, "light", 0): "2A-odd one-tip run",
    ("fork", 0, "light", 0): "2A-odd interior runs",
    ("fork", 2, "heavy", 1): "B fork and terminal runs",
    ("fork", 1, "heavy", 0): "B one-tip and terminal runs",
    ("fork", 1, "heavy", 1): "B one-tip and terminal runs",
    ("fork", 0, "heavy", 1): "B terminal run",
    ("fork", 2, "fork", 2): "D two full forks",
    ("fork", 1, "fork", 1): "D two half forks",
    ("fork", 2, "fork", 0): "D one full fork",
    ("fork", 1, "fork", 0): "D one half fork",
    ("fork", 0, "fork", 0): "D interior runs",
}


def _pattern(diagram: AffineDiagram, J: frozenset[int]) -> Optional[tuple[str, list[_Run]]]:
    """The case that ``J`` selects at the diagram's spine ends, and the
    boundary runs it needs: the left end's nodes in ``J`` find the run of
    ``p``, the right end's the run of ``r``.  Of two forks the fuller one is
    the left, and a half fork's parameter is one more than its run's node
    count.  None for a diagram with no end record, or a pattern the case
    analysis delegates elsewhere (by a label-comparison argument or a
    switch)."""
    if diagram.ends is None:
        return None
    held = [(end.kind, tuple(t for t in end.nodes if t in J)) for end in diagram.ends]
    forks = held[0][0] == held[1][0] == "fork"
    if forks:
        held.sort(key=lambda end: -len(end[1]))
    (left, p_tips), (right, r_tips) = held
    name = _PATTERNS.get((left, len(p_tips), right, len(r_tips)))
    if name is None:
        return None
    return name, [(param, tips, forks * (2 - len(tips)))
                  for param, tips in (("p", p_tips), ("r", r_tips)) if tips]


def _run_params(outer: list[frozenset[int]], wanted: list[_Run]) -> Optional[dict[str, int]]:
    """``p`` and ``r`` from the ``wanted`` runs among the boundary runs
    ``outer`` (0 for one not wanted); None unless each wanted run exists,
    holds its tips and is distinct from the others, and together they are
    all of ``outer``."""
    found: list[frozenset[int]] = []
    size = {"p": 0, "r": 0}
    for param, tips, offset in wanted:
        run = next((comp for comp in outer if tips[0] in comp), None)
        if run is None or not run.issuperset(tips) or run in found:
            return None
        found.append(run)
        size[param] = len(run) + offset
    return size if set(found) == set(outer) else None


def match_case(diagram: AffineDiagram, J: frozenset[int]) -> Optional[CaseMatch]:
    """Recognise a reduced configuration on a classical diagram.

    Returns the matching closed form from ``_CASES``, or None when the tip
    pattern is one the case analysis delegates elsewhere.  The runs the
    case needs must each hold their tips, be distinct and make up all the
    boundary runs of ``J``; then the case's four counting identities for
    ``|R_J|``, ``c^J``, ``n`` and ``c_J`` are verified against
    :func:`zero_set_data`.  A failed check means the configuration is not
    in the case's normal form (e.g. not fully contracted) and None is
    returned rather than a wrong closed form.  Raises ``ValueError`` when
    ``J`` holds a node not in the diagram.
    """
    diagram.mask_of(J)
    if not diagram.interior:
        return None  # two-node diagram: no spine for the case taxonomy
    try:
        g = greek_decomposition(diagram, J)
    except ValueError:
        return None  # non-constant interior label or spread-out run sizes
    pattern = _pattern(diagram, J)
    if pattern is None:
        return None
    name, wanted = pattern
    size = _run_params(runs_of(diagram, J)[1], wanted)
    if size is None:
        return None
    q, x, y = g.q, g.x, g.y
    n = diagram.n_e
    r_j, c_j, c_up = zero_set_data(diagram, J)
    c, names, boundary, greek = _CASES[name]
    p, r = size["p"], size["r"]
    r_b, c_up_b, n_b, c_b = boundary(p, r)
    if (r_j, c_up, n, c_j) != (
        r_b + q * (q - 1) * x + q * (q + 1) * y,
        c_up_b + c * (x + y),
        n_b + q * x + (q + 1) * y,
        c_b + c * ((q - 1) * x + q * y),
    ):
        return None
    alpha, gamma = greek(p, q, r)
    params = {v: size[v] for v in names} | {"q": q, "x": x, "y": y}
    return CaseMatch(name=name, params=params, alpha=alpha, gamma=gamma)
