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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .affine import AffineDiagram, Bond, Diagram
from .dynkin import connected_components, total_root_count
from .thomae import f_value, zero_set_data


# ---------------------------------------------------------------------------
# f and runs on bare graphs
# ---------------------------------------------------------------------------


# f on the contracted graphs is thomae's f on named diagrams: both are
# Diagram values.  ``reduce_to_z`` calls it under this name.
graph_f = f_value


def runs_of(
    graph: Diagram, J: frozenset[int]
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The connected components of ``J``, split into interior runs (all
    nodes of degree >= 2) and boundary runs, each sorted by least node."""
    inner: list[frozenset[int]] = []
    outer: list[frozenset[int]] = []
    for comp in map(frozenset, connected_components(sorted(J), graph.adjacency)):
        (inner if comp <= graph.interior else outer).append(comp)
    return inner, outer


def run_sizes(graph: Diagram, J: frozenset[int]) -> list[int]:
    """Sizes of the interior runs of ``J``, descending."""
    return sorted(map(len, runs_of(graph, J)[0]), reverse=True)


def d_value(graph: Diagram, J: frozenset[int]) -> int:
    """Largest size difference between two interior runs (0 if fewer than 2)."""
    sizes = run_sizes(graph, J)
    return sizes[0] - sizes[-1] if sizes else 0


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def contractible_pair(graph: Diagram, J: frozenset[int]) -> Optional[tuple[int, int]]:
    """A pair ``(i, j)`` of adjacent off-``J`` nodes where ``i`` may be deleted.

    ``i`` must either have degree two, or be a degree-three fork whose
    neighbour ``j`` is interior.  Of the bonds where a move applies, the
    one least by ``(min, max)`` of its ends gives the pair.  Returns None
    when no move applies; that is the terminal set ``Y``.
    """
    interior = graph.interior
    least = pair = None
    for b in graph.bonds:
        u, v = (b.u, b.v) if b.u < b.v else (b.v, b.u)
        if u in J or v in J or (least is not None and (u, v) >= least):
            continue
        if graph.degree(u) == 2:
            pair = u, v
        elif graph.degree(v) == 2:
            pair = v, u
        elif u in interior and v in interior:
            pair = u, v
        else:
            continue
        least = u, v
    return pair


def in_Z(graph: Diagram, J: frozenset[int]) -> bool:
    return contractible_pair(graph, J) is None and d_value(graph, J) <= 1


def contraction_drop(
    graph: Diagram, J: frozenset[int], i: int, factors=None
) -> int:
    """Exact decrease of ``f`` when the off-``J`` node ``i`` is contracted
    away.

    ``factors``, when the caller has already classified ``J`` on this
    graph (or on one with the same bonds inside ``J``), saves classifying
    it again.
    """
    if i in J:
        raise ValueError("contraction applies to off-J nodes only")
    r_j, c_j, _c_up = zero_set_data(graph, J, factors)
    return graph.labels[i] * r_j - c_j


def contract(graph: Diagram, J: frozenset[int], i: int, j: int) -> Diagram:
    """Delete the off-``J`` node ``i``, keeping the diagram connected.

    A degree-two ``i`` is replaced by a single bond joining its two
    neighbours; the surviving bond keeps the higher multiplicity.  When the
    two dying bonds are both multiple the replacement is the symmetric
    quadruple bond.  A degree-three ``i`` hands its pendant tips to ``j``.
    ``J`` itself, and hence the root system it spans, is untouched.
    """
    if i in J or j in J:
        raise ValueError("contraction applies to off-J nodes only")
    mult_to = dict(graph.adjacency[i])
    if j not in mult_to:
        raise ValueError(f"nodes {i} and {j} are not adjacent")
    deg = len(mult_to)
    kept = [b for b in graph.bonds if i not in (b.u, b.v)]
    if deg == 2:
        (k,) = [v for v in mult_to if v != j]
        mults = (mult_to[j], mult_to[k])
        kept.append(Bond(min(j, k), max(j, k), 4 if min(mults) > 1 else max(mults)))
    elif deg == 3:
        if graph.degree(j) < 2:
            raise ValueError("a fork may only be contracted toward the interior")
        for t in (v for v in mult_to if v != j):
            if graph.degree(t) != 1 or mult_to[t] != 1:
                raise ValueError(f"node {i} is not a plain fork")
            kept.append(Bond(min(t, j), max(t, j)))
    else:
        raise ValueError(f"node {i} has degree {deg}; contraction needs 2 or 3")
    labels = {u: c for u, c in graph.labels.items() if u != i}
    return Diagram(graph.e, labels, kept)


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def spine(graph: Diagram) -> list[int]:
    """Interior nodes in path order (the interior of every supported
    diagram is a path; contracted forks may leave a single hub)."""
    interior = graph.interior
    if not interior:
        return []
    nb = {
        u: [v for v, _ in graph.adjacency[u] if v in interior]
        for u in interior
    }
    if len(interior) == 1:
        return [next(iter(interior))]
    ends = [u for u in interior if len(nb[u]) <= 1]
    if not ends:
        raise ValueError("interior is not a path")
    order = [min(ends)]
    prev = None
    while True:
        nxt = [v for v in nb[order[-1]] if v != prev]
        if not nxt:
            break
        if len(nxt) > 1:
            raise ValueError("interior is not a path")
        prev = order[-1]
        order.append(nxt[0])
    if len(order) != len(interior):
        raise ValueError("interior is not connected")
    return order


def balance_step(
    graph: Diagram, J: frozenset[int]
) -> tuple[frozenset[int], int]:
    """Move one node of ``J`` from a largest interior run to a smallest.

    Requires a configuration in ``Y`` whose interior run sizes differ by
    at least 2.  Returns the new zero set and the exact drop
    ``2 * c^J * (q1 - q2 - 1)``; every other quantity entering ``f``
    (``n``, ``c_J``, ``c^J``, the boundary components) is unchanged.
    """
    inner, outer = runs_of(graph, J)
    sizes = sorted(map(len, inner), reverse=True)
    if not sizes or sizes[0] - sizes[-1] < 2:
        raise ValueError("balancing needs two interior runs differing by >= 2")
    q1, q2 = sizes[0], sizes[-1]

    order = spine(graph)
    boundary = set().union(*outer)
    free_idx = [t for t, u in enumerate(order) if u not in boundary]
    if free_idx != list(range(free_idx[0], free_idx[-1] + 1)):
        raise ValueError("boundary runs must sit at the spine ends")
    free = [order[t] for t in free_idx]

    flags = [u in J for u in free]
    lead = not flags[0]
    tail = not flags[-1]
    runs: list[int] = []
    t = 0
    while t < len(flags):
        if flags[t]:
            start = t
            while t < len(flags) and flags[t]:
                t += 1
            runs.append(t - start)
        else:
            if t > 0 and not flags[t - 1]:
                raise ValueError("configuration not reduced: adjacent off-J interior nodes")
            t += 1
    if sorted(runs, reverse=True) != sizes:
        raise ValueError("interior runs do not all lie in the free region")

    new_sizes = list(sizes)
    new_sizes[0] -= 1
    new_sizes[-1] += 1
    new_sizes.sort(reverse=True)

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


@dataclass(frozen=True)
class ReductionStep:
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

    ``J`` must be a nonempty proper subset of the nodes.  ``J`` is
    classified once, on the starting diagram.  After each contraction:

    * the bonds induced on ``J`` must equal, as ``Bond`` values in stored
      order, those of the starting diagram.  The factors of ``J`` depend on
      nothing else, so equal induced bonds mean the root system of ``J``
      is unchanged, and the starting factors stand in for reclassifying
      ``J``;
    * ``f`` is recomputed from the new graph's labels and node count with
      those factors, and its decrease must equal the predicted drop
      ``c_i * |R_J| - c_J`` and be positive.

    After each balancing step ``f`` is recomputed from scratch, and its
    decrease must equal the predicted drop and be positive.  Any
    disagreement raises ``AssertionError``.  The result must lie in ``Z``,
    and its ``f`` value never exceeds the starting one.
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

    factors0 = graph.factors(J)
    inside0 = graph.induced_bonds(J)
    f = graph_f(graph, J, factors0)
    f_start = f
    steps: list[ReductionStep] = []

    while True:
        pair = contractible_pair(graph, J)
        if pair is None:
            break
        i, j = pair
        predicted = contraction_drop(graph, J, i, factors0)
        graph = contract(graph, J, i, j)
        if graph.induced_bonds(J) != inside0:
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

    sizes = run_sizes(graph, J)
    while sizes and sizes[0] - sizes[-1] >= 2:
        new_J, predicted = balance_step(graph, J)
        new_f = graph_f(graph, new_J)
        if f - new_f != predicted:
            raise AssertionError(
                f"balance step: predicted drop {predicted}, got {f - new_f}"
            )
        if predicted <= 0:
            raise AssertionError("balancing must strictly decrease f")
        new_sizes = run_sizes(graph, new_J)
        steps.append(ReductionStep("balance", f"runs {sizes} -> {new_sizes}", predicted, new_f))
        J = new_J
        f = new_f
        sizes = new_sizes

    if not in_Z(graph, J):
        raise AssertionError("reduction terminated outside Z")
    return ReductionTrace(
        spec=diagram.spec,
        start=start,
        f_start=f_start,
        steps=tuple(steps),
        final_graph=graph,
        final_J=frozenset(J),
        f_final=f,
    )


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
    ``k`` the interior neighbour of ``i``, with ``k`` in ``J``."""
    sites = []
    interior = graph.interior
    for i in sorted(graph.labels):
        if i in J or graph.degree(i) != 3:
            continue
        tips = [v for v, _ in graph.adjacency[i] if graph.degree(v) == 1]
        inner = [v for v, _ in graph.adjacency[i] if v in interior]
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
    not a fork with two pendant tips, ``j`` one of them.
    """
    if i in J or j in J or k not in J:
        return None
    tips = [v for v, _ in graph.adjacency[i] if graph.degree(v) == 1]
    if graph.degree(i) != 3 or len(tips) != 2 or j not in tips:
        raise ValueError(
            f"({i}, {j}, {k}) is not a switch site: node {i} must be a fork "
            f"with two pendant tips, {j} one of them"
        )
    comp = next((c for c in runs_of(graph, J)[0] if k in c), None)
    if comp is None:
        return None  # run reaches the far boundary; not this move's shape
    q = len(comp) - 1
    far_tip = tips[0] if tips[1] == j else tips[1]
    s = 0 if far_tip in J else 1
    c_up = graph.label_sum - graph.label_sum_of(J)
    drop = 2 * (q + s - 1) * c_up
    new_J = (J - {k}) | {i}
    return SwitchResult(
        new_J=frozenset(new_J),
        q=q,
        s=s,
        drop=drop,
        vexing=(q == 1 and s == 0),
    )


# ---------------------------------------------------------------------------
# the bilinear form on reduced configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreekData:
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
    interior_labels = {graph.labels[u] for u in graph.interior}
    if len(interior_labels) > 1:
        raise ValueError("interior label is not constant")
    # a two-node graph has no interior: every term involving c carries a
    # factor of x or y, both zero, so any value is exact — use 0
    c = interior_labels.pop() if interior_labels else 0

    inner, outer = runs_of(graph, J)
    sizes = sorted(map(len, inner))
    distinct = sorted(set(sizes))
    if len(distinct) > 2 or (len(distinct) == 2 and distinct[1] - distinct[0] != 1):
        raise ValueError(f"interior run sizes {distinct} are not two consecutive values")
    if len(distinct) == 2:
        q = distinct[1]
        x = sizes.count(distinct[0])
        y = sizes.count(distinct[1])
    elif len(distinct) == 1:
        q = distinct[0] + 1
        x = len(sizes)
        y = 0
    else:
        q, x, y = 1, 0, 0

    r_boundary = total_root_count(graph.factors(frozenset().union(*outer)) if outer else ())
    c_boundary = sum(graph.label_sum_of(comp) for comp in outer)
    c_j = graph.label_sum_of(J)
    c_up = graph.label_sum - c_j
    a = c_up - c * (x + y)
    b = graph.n_e - q * x - (q + 1) * y

    alpha = (c * r_boundary + a * q * (q - 1)) - (b * c * (q - 1) + q * c_boundary)
    beta = (c * r_boundary + a * q * (q + 1)) - (b * c * q + (q + 1) * c_boundary)
    gamma = a * r_boundary - b * c_boundary
    data = GreekData(
        c=c, q=q, x=x, y=y, a=a, b=b,
        r_boundary=r_boundary, c_boundary=c_boundary,
        alpha=alpha, beta=beta, gamma=gamma,
    )
    return data


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


def _single(comps: list[frozenset[int]], node: int) -> Optional[frozenset[int]]:
    for comp in comps:
        if node in comp:
            return comp
    return None


def match_case(diagram: AffineDiagram, J: frozenset[int]) -> Optional[CaseMatch]:
    """Recognise a reduced configuration on a classical diagram.

    Returns the matching closed form, or None when the tip pattern is one
    the case analysis delegates elsewhere (by a label-comparison argument
    or a switch).  All of the case's counting identities are verified
    before a match is returned; a failed identity means the configuration
    is not in the case's normal form (e.g. not fully contracted) and None
    is returned rather than a wrong closed form.
    """
    ident = diagram.ident
    if not diagram.interior:
        return None  # two-node diagram: no spine for the case taxonomy
    try:
        g = greek_decomposition(diagram, J)
    except ValueError:
        return None  # non-constant interior label or spread-out run sizes
    q, x, y = g.q, g.x, g.y
    n = diagram.n_e
    r_j, c_j, c_up = zero_set_data(diagram, J)
    outer = runs_of(diagram, J)[1]

    def confirmed(name: str, params: dict[str, int], alpha: int, gamma: int,
                  checks: list[bool]) -> Optional[CaseMatch]:
        if all(checks):
            return CaseMatch(name=name, params=params, alpha=alpha, gamma=gamma)
        return None

    if ident.e == 2 and ident.family == "A" and ident.base_rank % 2 == 0:
        # Chain 0 => 1 -- ... -- (n-1) => n with labels 1,2,...,2.
        if 0 not in J and n in J:
            comp = _single(outer, n)
            if comp is None or len(outer) != 1:
                return None
            r = len(comp)
            return confirmed(
                "2A-even terminal run",
                {"r": r, "q": q, "x": x, "y": y},
                alpha=(q - 2 * r) * (q - 2 * r - 1),
                gamma=0,
                checks=[
                    r_j == 2 * r * r + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 1 + 2 * x + 2 * y,
                    n == r + q * x + (q + 1) * y,
                    c_j == 2 * r + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        return None

    if ident.e == 1 and ident.family == "C":
        if 0 not in J and n not in J:
            if outer:
                return None
            return confirmed(
                "C interior runs",
                {"q": q, "x": x, "y": y},
                alpha=0,
                gamma=0,
                checks=[
                    r_j == q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 * x + 2 * y,
                    n == q * x + (q + 1) * y,
                    c_j == 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        return None

    if ident.e == 2 and ident.family == "D":
        if 0 in J and n in J:
            left, right = _single(outer, 0), _single(outer, n)
            if left is None or right is None or len(outer) != 2 or left == right:
                return None
            p, r = len(left), len(right)
            return confirmed(
                "2D two terminal runs",
                {"p": p, "r": r, "q": q, "x": x, "y": y},
                alpha=(p - r) ** 2 + (p + r - q) * (p + r - q + 1),
                gamma=(p - r) ** 2,
                checks=[
                    r_j == 2 * p * p + 2 * r * r + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 1 + x + y,
                    n == p + r + q * x + (q + 1) * y,
                    c_j == p + r + (q - 1) * x + q * y,
                ],
            )
        return None

    # base rank 3 is excluded: that twisted diagram is a three-node chain,
    # not the fork these tip patterns assume
    if ident.e == 2 and ident.family == "A" and ident.base_rank % 2 == 1 and ident.base_rank >= 5:
        # Fork tips {0, 1}, branch 2, chain to a unit-label terminal n.
        if n in J:
            return None
        tips_in = [t for t in (0, 1) if t in J]
        if len(tips_in) == 2:
            comp = _single(outer, 0)
            if comp is None or 1 not in comp or len(outer) != 1:
                return None
            p = len(comp)
            return confirmed(
                "2A-odd fork run",
                {"p": p, "q": q, "x": x, "y": y},
                alpha=(2 * p - q) * (2 * p - q - 1),
                gamma=0,
                checks=[
                    r_j == 2 * p * (p - 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 1 + 2 * x + 2 * y,
                    n == p + q * x + (q + 1) * y,
                    c_j == 2 * (p - 1) + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        if len(tips_in) == 1:
            comp = _single(outer, tips_in[0])
            if comp is None or len(outer) != 1:
                return None
            p = len(comp)
            return confirmed(
                "2A-odd one-tip run",
                {"p": p, "q": q, "x": x, "y": y},
                alpha=2 * (p - q + 1) ** 2 + q,
                gamma=p + 1,
                checks=[
                    r_j == p * (p + 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 + 2 * x + 2 * y,
                    n == 1 + p + q * x + (q + 1) * y,
                    c_j == 2 * p - 1 + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        if outer:
            return None
        return confirmed(
            "2A-odd interior runs",
            {"q": q, "x": x, "y": y},
            alpha=(q - 1) * (q - 2),
            gamma=0,
            checks=[
                r_j == q * (q - 1) * x + q * (q + 1) * y,
                c_up == 1 + 2 * x + 2 * y,
                n == 1 + q * x + (q + 1) * y,
                c_j == 2 * (q - 1) * x + 2 * q * y,
            ],
        )

    if ident.e == 1 and ident.family == "B":
        # Fork tips {0, 1}, branch 2, double bond into the terminal n.
        tips_in = [t for t in (0, 1) if t in J]
        term = _single(outer, n) if n in J else None
        r = len(term) if term is not None else 0
        if len(tips_in) == 2:
            comp = _single(outer, 0)
            if comp is None or 1 not in comp:
                return None
            if len(outer) != (2 if term is not None else 1) or r == 0:
                return None
            p = len(comp)
            return confirmed(
                "B fork and terminal runs",
                {"p": p, "r": r, "q": q, "x": x, "y": y},
                alpha=2 * (p - r) * (p - r - 1) + 2 * (p + r - q) ** 2,
                gamma=2 * (p - r) * (p - r - 1),
                checks=[
                    r_j == 2 * p * (p - 1) + 2 * r * r + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 * (1 + x + y),
                    n == p + r + q * x + (q + 1) * y,
                    c_j == 2 * (p + r - 1) + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        if len(tips_in) == 1:
            comp = _single(outer, tips_in[0])
            if comp is None:
                return None
            if len(outer) != (2 if term is not None else 1):
                return None
            if term is not None and comp == term:
                return None
            p = len(comp)
            # the x-coefficient of c^J*|R_J| - n*c_J expanded through the
            # four data identities below; the final 2(1-q)(1+r) term is
            # forced by that expansion
            return confirmed(
                "B one-tip and terminal runs",
                {"p": p, "r": r, "q": q, "x": x, "y": y},
                alpha=2 * (p - q) * (p - q + 1) + (q - r) ** 2 + 3 * r * r + 2 * p
                + 2 * (1 - q) * (1 + r),
                gamma=(2 * r - p - 1) ** 2 + 3 * r,
                checks=[
                    r_j == p * (p + 1) + 2 * r * r + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 3 + 2 * x + 2 * y,
                    n == p + r + 1 + q * x + (q + 1) * y,
                    c_j == 2 * p + 2 * r - 1 + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        if term is None or len(outer) != 1 or r < 1:
            return None
        return confirmed(
            "B terminal run",
            {"r": r, "q": q, "x": x, "y": y},
            alpha=2 * (q - r - 1) ** 2 + 2 * r * (r - 1),
            gamma=2 * r * (r - 1),
            checks=[
                r_j == 2 * r * r + q * (q - 1) * x + q * (q + 1) * y,
                c_up == 2 + 2 * x + 2 * y,
                n == r + 1 + q * x + (q + 1) * y,
                c_j == 2 * r + 2 * (q - 1) * x + 2 * q * y,
            ],
        )

    if ident.e == 1 and ident.family == "D":
        left_tips = [t for t in (0, 1) if t in J]
        right_tips = [t for t in (n - 1, n) if t in J]
        a_cnt, b_cnt = len(left_tips), len(right_tips)
        # Orient so the fuller side comes first.
        if (a_cnt, b_cnt) < (b_cnt, a_cnt):
            left_tips, right_tips = right_tips, left_tips
            a_cnt, b_cnt = b_cnt, a_cnt
            left_anchor, right_anchor = n, 0
        else:
            left_anchor, right_anchor = 0, n

        if (a_cnt, b_cnt) == (2, 2):
            lcomp = _single(outer, left_tips[0])
            rcomp = _single(outer, right_tips[0])
            if (
                lcomp is None or rcomp is None or lcomp == rcomp
                or left_tips[1] not in lcomp or right_tips[1] not in rcomp
                or len(outer) != 2
            ):
                return None
            p, r = len(lcomp), len(rcomp)
            return confirmed(
                "D two full forks",
                {"p": p, "r": r, "q": q, "x": x, "y": y},
                alpha=2 * (p - r) ** 2 + 2 * (p + r - q) * (p + r - q - 1),
                gamma=2 * (p - r) ** 2,
                checks=[
                    r_j == 2 * p * (p - 1) + 2 * r * (r - 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 + 2 * x + 2 * y,
                    n == p + r + q * x + (q + 1) * y,
                    c_j == 2 * (p + r - 2 + (q - 1) * x + q * y),
                ],
            )
        if (a_cnt, b_cnt) == (1, 1):
            lcomp = _single(outer, left_tips[0])
            rcomp = _single(outer, right_tips[0])
            if lcomp is None or rcomp is None or lcomp == rcomp or len(outer) != 2:
                return None
            p, r = len(lcomp) + 1, len(rcomp) + 1
            return confirmed(
                "D two half forks",
                {"p": p, "r": r, "q": q, "x": x, "y": y},
                alpha=2 * (p - q) ** 2 + 2 * (r - q) ** 2 + 2 * q,
                gamma=2 * (p - r) ** 2 + 2 * (p + r),
                checks=[
                    r_j == p * (p - 1) + r * (r - 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 * (2 + x + y),
                    n == p + r + q * x + (q + 1) * y,
                    c_j == 2 * (p + r - 3 + (q - 1) * x + q * y),
                ],
            )
        if (a_cnt, b_cnt) == (2, 0):
            lcomp = _single(outer, left_tips[0])
            if lcomp is None or left_tips[1] not in lcomp or len(outer) != 1:
                return None
            p = len(lcomp)
            return confirmed(
                "D one full fork",
                {"p": p, "q": q, "x": x, "y": y},
                alpha=2 * ((p - q + 1) ** 2 + (p - 2) * (p - 1) + (q - 2)),
                gamma=2 * (p - 1) ** 2,
                checks=[
                    r_j == 2 * p * (p - 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 * (1 + x + y),
                    n == 1 + p + q * x + (q + 1) * y,
                    c_j == 2 * (p - 1 + (q - 1) * x + q * y),
                ],
            )
        if (a_cnt, b_cnt) == (1, 0):
            lcomp = _single(outer, left_tips[0])
            if lcomp is None or len(outer) != 1:
                return None
            p = len(lcomp) + 1
            return confirmed(
                "D one half fork",
                {"p": p, "q": q, "x": x, "y": y},
                alpha=2 * (p - q) ** 2 + (q - 1) ** 2 + 1,
                gamma=(p - 1) ** 2 + 2,
                checks=[
                    r_j == p * (p - 1) + q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 3 + 2 * x + 2 * y,
                    n == 1 + p + q * x + (q + 1) * y,
                    c_j == 2 * p - 3 + 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        if (a_cnt, b_cnt) == (0, 0):
            if outer:
                return None
            return confirmed(
                "D interior runs",
                {"q": q, "x": x, "y": y},
                alpha=2 * (q - 1) * (q - 2),
                gamma=0,
                checks=[
                    r_j == q * (q - 1) * x + q * (q + 1) * y,
                    c_up == 2 + 2 * x + 2 * y,
                    n == 2 + q * x + (q + 1) * y,
                    c_j == 2 * (q - 1) * x + 2 * q * y,
                ],
            )
        return None  # mixed tip patterns are delegated, not tabulated

    return None
