"""Construction of the extended diagrams attached to a pair (g, e).

For each simple Lie algebra type and each admissible twist order e (the
order of a diagram automorphism: 1 for every family, 2 for A/D/E6, 3 for
D4) there is a finite graph with positive integer node labels whose label
sum, times e, is the twisted Coxeter number h_e.  Torsion automorphisms of
order m correspond to non-negative integer node vectors s with gcd 1 and
e * sum(c_i s_i) = m, taken up to the symmetry group Omega of the
labelled graph.

One table, ``_FAMILIES``, says which (e, family, rank) triples exist and
holds the builder of each family; admission, :func:`build` and
:func:`catalog` all read it.  A builder gives node order, labels, bonds
(with multiplicity and arrow tip), the Omega permutations and the layout
data used for rendering; every path diagram comes from ``_chain`` and
every fork of two unit-label tips from ``_fork``.  A :class:`Diagram` is
the bare labelled graph, its bonds plus node masks derived from them,
which is all the certificate depends on; an
:class:`AffineDiagram` is a ``Diagram`` plus name, Omega, layout and
``ends``, its two spine ends read from the graph (the ends of Kac's Tables
Aff 1-3): a fork of two pendant tips on one hub, or one pendant node on an
arrowed multiple bond, ``heavy`` when the arrow points at it (on classical
diagrams, when it has the largest label) and ``light`` when away.  ``ends``
is None on untwisted A, E6-E8, F4, G2, 3D4 and 2E6.
Everything downstream (subset scans, reductions, tables) consumes these
graphs, and the reduction moves turn an ``AffineDiagram`` into bare
``Diagram`` values, each built by ``Diagram(e, labels, bonds)`` like any
other.

Node order conventions
----------------------
* chains (C_n, F4, G2 and all twisted diagrams on a path) are numbered
  left to right, 0..n;
* fork families (B_n and the twisted diagram of odd A rank >= 5) put the
  two unit-label tips first: node 0 on the chain line, node 1 hanging
  below, node 2 the branch point, then the chain;
* D_n has tips {0, 1} at the left end and {n-1, n} at the right end;
* E6/E7/E8 number the horizontal chain first and the below-branch nodes
  last (for E6 the sixth node hangs below the branch and the affine node
  below that, so the chain is 0..4 and nodes 5, 6 hang under node 2);
* untwisted A_n (n >= 2) is a cycle 0..n with the closing bond implied.

On every acyclic diagram but E6 the interior (the nodes of degree >= 2)
is a path whose node numbers increase along it, and a contraction, which
deletes a node and never renumbers the rest, keeps it so;
``reductions.balance_step`` walks the interior in sorted node order and
relies on this.  E6's interior is a star and the cycle's has no ends;
``balance_step`` rejects both.

Rendered strings parenthesise off-chain nodes, so the B4 vector
(1, 1, 0, 1, 0) prints as ``1 (1) 0 1=>0``.
"""

import re
from functools import lru_cache
from typing import NamedTuple, Sequence

from .dynkin import FiniteFactor, _classify_component, nodes_of, sort_factors


class Bond(NamedTuple):
    """An edge of the diagram.

    ``mult`` is the bond multiplicity (1..4).  For ``mult >= 2``, ``tip``
    is the node the arrow points toward; it is None for the symmetric
    quadruple bond of the rank-one untwisted A diagram, and on every bond
    that a contraction made.
    """

    u: int
    v: int
    mult: int = 1
    tip: int | None = None


class Diagram:
    """A labelled graph with the arithmetic helpers the scans need.

    Deliberately free of family metadata: the reduction moves produce
    diagrams that no longer carry a name, and every quantity entering the
    certified inequality (label sums, root counts of induced subdiagrams,
    n_e = #nodes - 1) is computed from the graph alone.

    The graph is ``bonds`` plus node masks derived from them once, in
    ``__init__``: node u is bit ``1 << u``, and ``node_mask``,
    ``interior_mask`` (degree >= 2), ``neighbours[u]`` and ``bond_masks``
    (``1 << u | 1 << v`` per bond, aligned with ``bonds``) are node masks,
    which hold one bond per pair: a bond that is a loop, repeats a pair or
    has an end that is not a node raises ``ValueError``.  ``multiple_bonds``
    holds the bonds of multiplicity >= 2 in stored order, the only bonds the
    classifier reads.
    ``labels`` is stored in node order, and ``label_sum`` and ``n_e`` are
    set once with it.  ``__init__`` is the only way a diagram is made, and
    it is not changed after construction: a contraction builds its child
    afresh.  Each instance memoises the factor of every component
    ``_factors_of`` has classified on it, by component mask;
    :mod:`kacscope.reductions` keeps its move table in ``_moves``, the
    interior's label, node order and path verdict in ``_spine`` and the
    children ``contract`` made in ``_contractions``.  All memos start empty
    and live as long as the diagram, which for one that :func:`build` caches
    is the whole process.
    """

    __slots__ = ("e", "labels", "label_sum", "n_e", "bonds", "bond_masks", "multiple_bonds",
                 "node_mask", "neighbours", "interior_mask",
                 "_components", "_moves", "_spine", "_contractions")

    def __init__(self, e: int, labels: dict[int, int], bonds: Sequence[Bond]):
        self.e = e
        self.labels = dict(sorted(labels.items()))
        self.label_sum = sum(self.labels.values())
        self.n_e = len(self.labels) - 1
        self.bonds = tuple(bonds)
        self.node_mask = node_mask = sum(1 << u for u in self.labels)
        self.neighbours = neighbours = [0] * (max(self.labels, default=-1) + 1)
        for u, v, _mult, _tip in self.bonds:
            if not node_mask >> u & node_mask >> v & 1:
                raise ValueError(f"bond ({u}, {v}) has an end that is not a node")
            if u == v or neighbours[u] >> v & 1:
                raise ValueError(f"bond ({u}, {v}) is a loop or repeats a pair")
            neighbours[u] |= 1 << v
            neighbours[v] |= 1 << u
        self.bond_masks = tuple(1 << b.u | 1 << b.v for b in self.bonds)
        self.multiple_bonds = tuple([b for b in self.bonds if b.mult >= 2])
        self.interior_mask = sum(1 << u for u in self.labels if neighbours[u].bit_count() >= 2)
        self._components, self._moves, self._spine, self._contractions = {}, None, None, {}

    # -- basic data ------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self.labels)

    @property
    def coxeter(self) -> int:
        """Twisted Coxeter number h_e = e * sum of labels."""
        return self.e * self.label_sum

    def degree(self, u: int) -> int:
        """The number of bonds at node ``u``; ``ValueError`` for a non-node."""
        if u < 0 or not self.node_mask >> u & 1:
            raise ValueError(f"not a node subset: [{u}]")
        return self.neighbours[u].bit_count()

    # -- subset arithmetic -------------------------------------------------

    def label_sum_of(self, nodes) -> int:
        """The label sum of ``nodes``; ``ValueError`` names any non-node."""
        try:
            return sum(map(self.labels.__getitem__, nodes))
        except KeyError:
            self.mask_of(nodes)  # raises, naming every non-node
            raise

    def mask_of(self, nodes) -> int:
        """The node mask of the collection ``nodes``; ``ValueError`` names
        any non-node, a negative one included."""
        mask = 0
        try:
            for u in nodes:
                mask |= 1 << u
        except ValueError:  # a negative shift count
            mask = -1
        if mask & ~self.node_mask:
            outside = {u for u in nodes if u < 0 or not self.node_mask >> u & 1}
            raise ValueError(f"not a node subset: {sorted(outside)}")
        return mask

    def components(self, mask: int) -> list[int]:
        """The components of the subgraph induced on ``mask``, by least node."""
        neighbours = self.neighbours
        found = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = neighbours[bit.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            mask ^= comp
            found.append(comp)
        return found

    def factors(self, subset) -> tuple[FiniteFactor, ...]:
        """Finite factors of the subdiagram induced on ``subset``, sorted.

        Raises ``ValueError`` when ``subset`` holds a node not in the
        diagram.  Each connected component is one factor, classified once
        per diagram and kept in the diagram's memo under its mask; a
        component the classifier rejects is not stored and raises on every
        call.
        """
        found = self._factors_of(self.components(self.mask_of(subset)))
        return sort_factors(found) if len(found) > 1 else tuple(found)

    def _factors_of(self, comps: list[int]) -> list[FiniteFactor]:
        """The factors of the union of ``comps``, connected node masks pairwise
        apart, one per mask, each classified through the component memo, which
        maps a mask to its factor; only :meth:`factors` sorts."""
        memo = self._components
        found: list[FiniteFactor] = []
        for comp in comps:
            factor = memo.get(comp)
            if factor is None:
                factor = memo[comp] = _classify_component(comp, self.neighbours,
                                                          self.multiple_bonds)
            found.append(factor)
        return found

    def induced_bonds(self, subset) -> tuple[Bond, ...]:
        """The bonds with both ends in ``subset``, in stored order, which alone
        decide :meth:`factors` of ``subset``; ``ValueError`` names any non-node."""
        return self._induced_bonds(self.mask_of(subset))

    def _induced_bonds(self, mask: int) -> tuple[Bond, ...]:
        """:meth:`induced_bonds` of the node mask ``mask``."""
        return tuple([b for b, ends in zip(self.bonds, self.bond_masks) if ends & mask == ends])


# ---------------------------------------------------------------------------
# diagram identities
# ---------------------------------------------------------------------------

_BASE_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}

_SPEC_RE = re.compile(r"^([123]?)([A-Ga-g])(\d+)$")


class DiagramId(NamedTuple):
    """Identifier of a supported diagram: twist order, family, base rank."""

    e: int
    family: str
    base_rank: int

    @property
    def spec(self) -> str:
        prefix = str(self.e) if self.e > 1 else ""
        return f"{prefix}{self.family}{self.base_rank}"

    def __str__(self) -> str:
        return self.spec


def parse_spec(text: str) -> DiagramId:
    """Parse a diagram spec such as ``B7``, ``2A10``, ``2D5`` or ``3D4``.

    The leading digit is the twist order (omitted when 1); the trailing
    number is the rank of the base algebra (so ``2D5`` acts on D5).
    """
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse diagram spec {text!r}")
    e = int(m.group(1)) if m.group(1) else 1
    ident = DiagramId(e, m.group(2).upper(), int(m.group(3)))
    _check_admissible(ident)
    return ident


def _check_admissible(ident: DiagramId) -> None:
    least, greatest, _builder = _FAMILIES.get((ident.e, ident.family), (1, 0, None))
    if not least <= ident.base_rank <= (ident.base_rank if greatest is None else greatest):
        raise ValueError(f"unsupported diagram {ident.spec}")


class End(NamedTuple):
    """A spine end: "fork" and its two tips, or "heavy" or "light" and its node."""
    kind: str
    nodes: tuple[int, ...]


def _spine_ends(diagram: Diagram) -> tuple[End, End] | None:
    """The two spine ends, node 0's first; None unless the pendant nodes
    make exactly two.  A hub's tips on simple bonds pair in node order, so
    D4's hub has the forks (0, 1) and (3, 4)."""
    ends, tips = [], {}
    for b in diagram.bonds:
        for u, hub in ((b.u, b.v), (b.v, b.u)):
            if diagram.degree(u) > 1:
                continue
            if b.mult == 1:
                tips.setdefault(hub, []).append(u)
            elif b.tip is None:
                return None
            else:
                ends.append(End("heavy" if b.tip == u else "light", (u,)))
    for pendant in tips.values():
        if len(pendant) % 2:
            return None
        pendant.sort()
        ends += [End("fork", tuple(pendant[t:t + 2])) for t in range(0, len(pendant), 2)]
    return tuple(sorted(ends, key=lambda end: end.nodes)) if len(ends) == 2 else None


class AffineDiagram(Diagram):
    """A built diagram: a :class:`Diagram` plus its name, symmetry and layout.

    ``omega`` lists the symmetry permutations as tuples p with p[i] the
    image of node i.  ``layout`` is the render recipe built from ``chain``
    (the nodes drawn left to right) and ``hang`` (the nodes parenthesised
    after a chain node): one record ``(node, hung, right, bond)`` per
    chain node, left to right, where ``hung`` is the tuple of nodes hung
    after it (empty for none), ``right`` the next chain node and ``bond``
    the bond to it; both are None on the last record.
    """

    __slots__ = ("ident", "spec", "omega", "layout", "ends")

    def __init__(
        self,
        ident: DiagramId,
        labels: dict[int, int],
        bonds: Sequence[Bond],
        omega: tuple[tuple[int, ...], ...],
        chain: Sequence[int],
        hang: dict[int, tuple[int, ...]] | None = None,
    ):
        super().__init__(ident.e, labels, bonds)
        self.ident = ident
        self.spec = ident.spec
        self.omega = omega
        hang = hang or {}
        chain = list(chain)
        placed = {frozenset((b.u, b.v)): b for b in self.bonds}
        layout = []
        for u, right in zip(chain, chain[1:] + [None]):
            bond = None if right is None else placed[frozenset((u, right))]
            layout.append((u, tuple(hang.get(u, ())), right, bond))
        self.layout = tuple(layout)
        self.ends = _spine_ends(self)

    @property
    def cyclic(self) -> bool:
        """As many bonds as nodes: the cycle of untwisted A of rank >= 2,
        whose closing bond is implied."""
        return len(self.bonds) == len(self.labels)

    @property
    def base_dim(self) -> int:
        """Dimension of the base (untwisted) algebra g."""
        return _BASE_DIM[self.ident.family](self.ident.base_rank)

    @property
    def base_root_count(self) -> int:
        """|R(g)| computed from the base family, independent of the graph."""
        return self.base_dim - self.ident.base_rank


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _identity(n_nodes: int) -> tuple[int, ...]:
    return tuple(range(n_nodes))


def _chain(
    ident: DiagramId, labels: Sequence[int], multiple: dict[int, tuple[int, int]], flip: bool = False
) -> AffineDiagram:
    """The path 0..n with ``labels`` in node order.  ``multiple`` maps the
    left end u of each multiple bond (u, u + 1) to its (mult, tip); Omega
    holds the reversal of the path when ``flip``."""
    n = len(labels) - 1
    bonds = [Bond(u, u + 1, *multiple.get(u, (1, None))) for u in range(n)]
    omega = (_identity(n + 1), tuple(range(n, -1, -1))) if flip else (_identity(n + 1),)
    return AffineDiagram(ident, dict(enumerate(labels)), bonds, omega, range(n + 1))


def _fork(ident: DiagramId, n: int, last_label: int, tip: int) -> AffineDiagram:
    """The unit-label tips 0 and 1 on the branch node 2, the chain 2..n with
    label 2 up to a last node of label ``last_label``, and a double bond
    (n - 1, n) pointing to ``tip``.  Omega swaps the two tips."""
    labels = {0: 1, 1: 1, n: last_label}
    labels.update({i: 2 for i in range(2, n)})
    bonds = [Bond(0, 2), Bond(1, 2)]
    bonds += [Bond(i, i + 1) for i in range(2, n - 1)]
    bonds.append(Bond(n - 1, n, 2, tip))
    swap = (1, 0) + tuple(range(2, n + 1))
    return AffineDiagram(ident, labels, bonds, (_identity(n + 1), swap),
                         [0] + list(range(2, n + 1)), {0: (1,)})


def _build_a_untwisted(ident: DiagramId, n: int) -> AffineDiagram:
    if n == 1:
        return AffineDiagram(ident, {0: 1, 1: 1}, [Bond(0, 1, 4, None)],
                             (_identity(2), (1, 0)), [0, 1])
    labels = {i: 1 for i in range(n + 1)}
    bonds = [Bond(i, i + 1) for i in range(n)] + [Bond(n, 0)]
    size = n + 1
    omega = tuple(tuple((i + k) % size for i in range(size)) for k in range(size))
    return AffineDiagram(ident, labels, bonds, omega, range(size))


def _d_reversal(n: int, overrides: dict[int, int]) -> tuple[int, ...]:
    perm = list(range(n + 1))
    for i in range(2, n - 1):
        perm[i] = n - i
    for src, dst in overrides.items():
        perm[src] = dst
    return tuple(perm)


def _build_d(ident: DiagramId, n: int) -> AffineDiagram:
    labels = {0: 1, 1: 1, n - 1: 1, n: 1}
    labels.update({i: 2 for i in range(2, n - 1)})
    bonds = [Bond(0, 2), Bond(1, 2)]
    bonds += [Bond(i, i + 1) for i in range(2, n - 2)]
    bonds += [Bond(n - 2, n - 1), Bond(n - 2, n)]

    tip_swap = list(range(n + 1))
    tip_swap[0], tip_swap[1] = 1, 0
    tip_swap[n - 1], tip_swap[n] = n, n - 1
    if n % 2 == 0:
        eps_s = _d_reversal(n, {0: n - 1, n - 1: 0, 1: n, n: 1})
        eps_vs = _d_reversal(n, {0: n, n: 0, 1: n - 1, n - 1: 1})
        omega = (_identity(n + 1), tuple(tip_swap), eps_s, eps_vs)
    else:
        rho = _d_reversal(n, {0: n - 1, n - 1: 1, 1: n, n: 0})
        rho2 = tuple(rho[rho[i]] for i in range(n + 1))
        rho3 = tuple(rho[rho2[i]] for i in range(n + 1))
        omega = (_identity(n + 1), rho, rho2, rho3)
    return AffineDiagram(ident, labels, bonds, omega,
                         [0] + list(range(2, n - 1)) + [n - 1], {0: (1,), n - 1: (n,)})


def _build_e(ident: DiagramId, n: int) -> AffineDiagram:
    if n == 6:
        labels = {0: 1, 1: 2, 2: 3, 3: 2, 4: 1, 5: 2, 6: 1}
        bonds = [Bond(0, 1), Bond(1, 2), Bond(2, 3), Bond(3, 4), Bond(2, 5), Bond(5, 6)]
        rot = (4, 3, 2, 5, 6, 1, 0)
        rot2 = tuple(rot[rot[i]] for i in range(7))
        return AffineDiagram(ident, labels, bonds, (_identity(7), rot, rot2),
                             [0, 1, 2, 3, 4], {2: (5, 6)})
    if n == 7:
        labels = {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 1, 7: 2}
        bonds = [Bond(i, i + 1) for i in range(6)] + [Bond(3, 7)]
        flip = (6, 5, 4, 3, 2, 1, 0, 7)
        return AffineDiagram(ident, labels, bonds, (_identity(8), flip),
                             [0, 1, 2, 3, 4, 5, 6], {3: (7,)})
    labels = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 4, 7: 2, 8: 3}
    bonds = [Bond(i, i + 1) for i in range(7)] + [Bond(5, 8)]
    return AffineDiagram(ident, labels, bonds, (_identity(9),), [0, 1, 2, 3, 4, 5, 6, 7], {5: (8,)})


def _build_a_twisted(ident: DiagramId, base: int) -> AffineDiagram:
    if base % 2 == 0:
        n = base // 2
        multiple = {0: (4, 1)} if n == 1 else {0: (2, 1), n - 1: (2, n)}
        return _chain(ident, (1,) + (2,) * n, multiple)
    n = (base + 1) // 2
    if n == 2:
        # The twist of A3 degenerates to the three-node chain with both
        # arrows pointing outward, the shape of the twisted D family at its
        # smallest rank, so that family's builder makes it.
        return _FAMILIES[2, "D"][2](ident, 3)
    return _fork(ident, n, 1, n - 1)


# (e, family) -> (least base rank, greatest base rank or None when
# unbounded, builder of (ident, base rank)); in catalog order
_FAMILIES = {
    (1, "A"): (1, None, _build_a_untwisted),
    (1, "B"): (3, None, lambda ident, n: _fork(ident, n, 2, n)),
    (1, "C"): (2, None, lambda ident, n: _chain(
        ident, (1,) + (2,) * (n - 1) + (1,), {0: (2, 1), n - 1: (2, n - 1)}, flip=True)),
    (1, "D"): (4, None, _build_d),
    (1, "E"): (6, 8, _build_e),
    (1, "F"): (4, 4, lambda ident, n: _chain(ident, (1, 2, 3, 4, 2), {2: (2, 3)})),
    (1, "G"): (2, 2, lambda ident, n: _chain(ident, (1, 2, 3), {1: (3, 2)})),
    (2, "A"): (2, None, _build_a_twisted),
    (2, "D"): (3, None, lambda ident, n: _chain(
        ident, (1,) * n, {0: (2, 0), n - 2: (2, n - 1)}, flip=True)),
    (2, "E"): (6, 6, lambda ident, n: _chain(ident, (1, 2, 3, 2, 1), {2: (2, 2)})),
    (3, "D"): (4, 4, lambda ident, n: _chain(ident, (1, 2, 1), {1: (3, 1)})),
}


@lru_cache(maxsize=None)
def build(ident: DiagramId) -> AffineDiagram:
    """Build the diagram for ``ident`` (cached)."""
    _check_admissible(ident)
    return _FAMILIES[ident.e, ident.family][2](ident, ident.base_rank)


def build_spec(text: str) -> AffineDiagram:
    return build(parse_spec(text))


def catalog(max_rank: int = 12) -> list[AffineDiagram]:
    """All supported diagrams with base rank at most ``max_rank``, family
    by family in the order of ``_FAMILIES``, each by increasing rank."""
    return [
        build(DiagramId(e, family, n))
        for (e, family), (least, greatest, _builder) in _FAMILIES.items()
        for n in range(least, min(max_rank, greatest or max_rank) + 1)
    ]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_BOND_ASCII = {
    (2, "fwd"): "=>",
    (2, "back"): "<=",
    (3, "fwd"): "=3>",
    (3, "back"): "<3=",
    (4, "fwd"): "=4>",
    (4, "back"): "<4=",
    (4, "sym"): "<=>",
}
_BOND_UNICODE = {
    (2, "fwd"): "⇒",
    (2, "back"): "⇐",
    (3, "fwd"): "⇛",
    (3, "back"): "⇚",
    (4, "fwd"): "⟹",
    (4, "back"): "⟸",
    (4, "sym"): "⇔",
}


def render_kac(diagram: AffineDiagram, s: Sequence[int], unicode: bool = False) -> str:
    """Render a Kac vector along the diagram's layout.

    Off-chain nodes print in parentheses after their attachment point;
    bonds of multiplicity >= 2 print as arrows toward their tip.  Cyclic
    diagrams get a ``(cycle)`` suffix for the implied closing bond.
    """
    if len(s) != len(diagram.nodes):
        raise ValueError(
            f"{diagram.spec} needs {len(diagram.nodes)} coordinates, got {len(s)}"
        )
    table = _BOND_UNICODE if unicode else _BOND_ASCII
    out: list[str] = []
    for u, hung, right, bond in diagram.layout:
        out.append(str(s[u]))
        if hung:
            out.append(" (" + " ".join(str(s[i]) for i in hung) + ")")
        if bond is None:
            continue
        if bond.mult == 1:
            out.append(" ")
        else:
            direction = "sym" if bond.tip is None else ("fwd" if bond.tip == right else "back")
            out.append(table[(bond.mult, direction)])
    if diagram.cyclic:
        out.append(" (cycle)")
    return "".join(out)
