from itertools import combinations

import pytest

from kacscope.affine import Bond, build, catalog
from kacscope.dynkin import (
    UnsupportedSubdiagramError,
    classify_nodes,
    factors_type_string,
    finite_factor,
    nodes_of,
    sort_factors,
    total_root_count,
)
from kacscope.thomae import subset_tables


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 1, 2),
        ("A", 5, 30),
        ("B", 2, 8),
        ("B", 7, 98),
        ("D", 4, 24),
        ("D", 12, 264),
        ("E", 6, 72),
        ("E", 7, 126),
        ("E", 8, 240),
        ("F", 4, 48),
        ("G", 2, 12),
    ],
)
def test_root_counts(family, rank, count):
    assert finite_factor(family, rank).root_count == count


@pytest.mark.parametrize("name", ["D1", "A0", "B1", "C3", "E9", "F3", "G3", "H3"])
def test_finite_factor_refuses_a_shape_of_no_finite_type(name):
    """The classifier names ``C_k`` as ``B_k``, so ``C3`` is refused with the
    shapes that are no finite type."""
    with pytest.raises(ValueError, match=f"no finite Dynkin type {name}$"):
        finite_factor(name[0], int(name[1:]))


@pytest.mark.parametrize(
    "family,rank,expected",
    [
        # low-rank coincidences all funnel into one canonical name
        ("B", 1, (("A", 1),)),
        ("C", 1, (("A", 1),)),
        ("C", 2, (("B", 2),)),
        ("C", 5, (("B", 5),)),
        ("D", 2, (("A", 1), ("A", 1))),
        ("D", 3, (("A", 3),)),
        ("D", 4, (("D", 4),)),
        ("G", 2, (("G", 2),)),
    ],
)
def test_canonical_factors(family, rank, expected):
    """The classifier names each shape once: ``C_k`` as ``B_k``, and no
    shape as ``B1``, ``D2`` or ``D3``."""
    [(size, bonds)] = [(n, b) for f, r, n, b in _standard_shapes() if (f, r) == (family, rank)]
    got = classify_nodes(range(size), bonds)
    assert tuple((f.family, f.rank) for f in got) == expected


def test_type_string_formatting():
    assert factors_type_string(()) == "0"
    a2 = finite_factor("A", 2)
    a1 = finite_factor("A", 1)
    assert factors_type_string((a2, a1, a2)) == "2A2+A1"
    assert factors_type_string((a1, a1, a1)) == "3A1"
    mixed = (finite_factor("D", 5), finite_factor("A", 3))
    assert factors_type_string(mixed) == "D5+A3"


def check_display_order() -> int:
    """Every distinct factor tuple that ``Diagram.factors`` returns over the
    proper subsets of ``catalog(12)`` is in the display order, and
    ``sort_factors`` puts it back in that order from reversed; returns how
    many tuples there are."""
    seen = {d.factors(J) for d in catalog(12)
            for size in range(1, len(d.labels)) for J in combinations(d.labels, size)}
    for factors in seen:
        want = tuple(sorted(factors, key=lambda f: (-f.root_count, f.family, -f.rank)))
        assert factors == want, factors
        assert sort_factors(factors[::-1]) == want, factors
    return len(seen)


def test_sort_factors_orders_by_size():
    factors = [finite_factor("A", 1), finite_factor("D", 5), finite_factor("A", 3)]
    ordered = sort_factors(factors)
    assert [str(f) for f in ordered] == ["D5", "A3", "A1"]
    assert check_display_order() == 644


def _chain_bonds(mults):
    """The bonds of a chain 0-1-...-n with the given bond multiplicities."""
    return [Bond(i, i + 1, m) for i, m in enumerate(mults)]


def _bonds(adj):
    """The bonds of an adjacency mapping ``{u: [(v, mult), ...]}``, once each."""
    return [Bond(u, v, m) for u, nbrs in adj.items() for v, m in nbrs if u < v]


def test_classify_chains():
    assert classify_nodes((0,), []) == (finite_factor("A", 1),)
    assert classify_nodes((0, 1, 2), _chain_bonds([1, 1])) == (
        finite_factor("A", 3),
    )
    # a double bond at the end of a chain is a B diagram either way round
    assert classify_nodes((0, 1, 2), _chain_bonds([1, 2])) == (
        finite_factor("B", 3),
    )
    assert classify_nodes((0, 1, 2), _chain_bonds([2, 1])) == (
        finite_factor("B", 3),
    )
    assert classify_nodes((0, 1), _chain_bonds([3])) == (finite_factor("G", 2),)
    # F4: double bond in the middle of a 4-chain
    assert classify_nodes((0, 1, 2, 3), _chain_bonds([1, 2, 1])) == (
        finite_factor("F", 4),
    )


def test_classify_forked_shapes():
    # D5: chain of three with two tips on one end
    bonds = [Bond(0, 2), Bond(1, 2), Bond(2, 3), Bond(3, 4)]
    assert classify_nodes((0, 1, 2, 3, 4), bonds) == (finite_factor("D", 5),)
    # E6: fork two steps from each chain end
    bonds6 = _chain_bonds([1, 1, 1, 1]) + [Bond(2, 5)]
    assert classify_nodes((0, 1, 2, 3, 4, 5), bonds6) == (finite_factor("E", 6),)


def test_classify_disconnected_components():
    bonds = [Bond(0, 1), Bond(3, 4, 2)]
    got = classify_nodes((0, 1, 2, 3, 4), bonds)
    assert factors_type_string(got) == "B2+A2+A1"


@pytest.mark.parametrize(
    "nodes,adj",
    [
        # 3-cycle
        ((0, 1, 2), {0: [(1, 1), (2, 1)], 1: [(0, 1), (2, 1)], 2: [(0, 1), (1, 1)]}),
        # quadruple bond is not a finite diagram
        ((0, 1), {0: [(1, 4)], 1: [(0, 4)]}),
        # two double bonds on one chain
        ((0, 1, 2), {0: [(1, 2)], 1: [(0, 2), (2, 2)], 2: [(1, 2)]}),
    ],
)
def test_classify_rejects_non_finite_shapes(nodes, adj):
    with pytest.raises(UnsupportedSubdiagramError):
        classify_nodes(nodes, _bonds(adj))


def _cartan(nodes, bonds):
    """The Cartan matrix of the Dynkin diagram ``bonds`` on ``nodes``, rows
    and columns in the order of ``nodes``.  A multiple bond makes its
    ``tip`` the short root, or ``v`` when it has no tip, and the short
    root's row carries ``-mult``."""
    index = {u: k for k, u in enumerate(nodes)}
    cartan = [[2 * (k == m) for m in range(len(nodes))] for k in range(len(nodes))]
    for b in bonds:
        short = b.v if b.tip is None else b.tip
        long_ = b.u if short == b.v else b.v
        cartan[index[short]][index[long_]] = -b.mult
        cartan[index[long_]][index[short]] = -1
    return cartan


def _root_count(nodes, bonds):
    """|R| of the root system whose simple roots are ``nodes`` and whose
    Dynkin diagram is ``bonds``, independent of the shape classifier: the
    Cartan matrix is read from the bonds by :func:`_cartan` and the simple
    roots are closed under the simple reflections, as integer vectors in
    the basis of simple roots (Kac, *Infinite-Dimensional Lie Algebras*,
    ch. 1 and 4).  Each pairing reads only the nonzero entries of its row.
    The count does not depend on which end of a multiple bond without a
    tip is taken as short."""
    assert all(b.mult <= 3 for b in bonds), "a quadruple bond is not finite type"
    rank = len(nodes)
    rows = [[(m, a) for m, a in enumerate(row) if a] for row in _cartan(nodes, bonds)]
    todo = [tuple(int(k == m) for m in range(rank)) for k in range(rank)]
    roots = set(todo)
    while todo:
        beta = todo.pop()
        for k, row in enumerate(rows):
            pairing = 0
            for m, a in row:
                pairing += a * beta[m]
            if pairing:
                image = beta[:k] + (beta[k] - pairing,) + beta[k + 1:]
                if image not in roots:
                    roots.add(image)
                    todo.append(image)
                    assert len(roots) <= max(2 * rank * rank, 240), "not a finite root system"
    return len(roots)


def _fork_bonds(arms):
    """A star: hub 0 and one path per entry of ``arms``, of that length."""
    bonds, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds.append(Bond(prev, nxt))
            prev, nxt = nxt, nxt + 1
    return bonds


def _standard_shapes():
    """(family, rank, node count, bonds) of the connected Dynkin diagram of
    every finite type: A-D to rank 12, with both arrows of the B/C double
    bond, and E6-E8, F4 and G2.  D2 is two unbonded nodes."""
    for r in range(1, 13):
        yield "A", r, r, _chain_bonds([1] * (r - 1))
        end = [Bond(r - 2, r - 1, 2, r - 1)] if r > 1 else []
        yield "B", r, r, _chain_bonds([1] * (r - 2)) + end
        yield "C", r, r, _chain_bonds([1] * (r - 2)) + [Bond(b.u, b.v, 2, b.u) for b in end]
        if r >= 2:
            yield "D", r, r, ([] if r == 2 else _fork_bonds([1, 1, r - 3]))
    for arms, rank in (([1, 2, 2], 6), ([1, 2, 3], 7), ([1, 2, 4], 8)):
        yield "E", rank, rank, _fork_bonds(arms)
    yield "F", 4, 4, [Bond(0, 1), Bond(1, 2, 2, 2), Bond(2, 3)]
    yield "G", 2, 2, [Bond(0, 1, 3, 1)]


def check_root_system_oracle_on_every_finite_type():
    """The classifier on each shape, and ``_ROOT_COUNTS`` through
    ``finite_factor`` for each name the classifier gives (not ``C_k``, which
    it names ``B_k``, nor ``B1``, ``D2`` or ``D3``), agree with the
    reflection closure."""
    for family, rank, size, bonds in _standard_shapes():
        want = _root_count(range(size), bonds)
        assert total_root_count(classify_nodes(range(size), bonds)) == want, (family, rank)
        if family != "C" and rank >= {"B": 2, "D": 4}.get(family, 1):
            assert finite_factor(family, rank).root_count == want, (family, rank)


def test_root_system_oracle_on_every_finite_type():
    check_root_system_oracle_on_every_finite_type()


def _check_component(closure, graph, nodes, factor):
    """Assert that ``factor``, the one factor of the component ``nodes`` of
    ``graph``, counts the roots of its reflection closure, and return the
    component's shape.  The closure runs once per shape, kept in ``closure``
    under the component's bonds with nodes renumbered in order."""
    index = {u: k for k, u in enumerate(nodes)}
    bonds = tuple(
        Bond(index[b.u], index[b.v], b.mult, None if b.tip is None else index[b.tip])
        for b in graph.induced_bonds(set(nodes))
    )
    key = (len(nodes), bonds)
    if key not in closure:
        closure[key] = _root_count(range(len(nodes)), bonds)
    assert factor.root_count == closure[key], (graph.bonds, nodes)
    return key


def test_root_system_oracle_on_every_component_to_rank_16():
    """Every component that ``subset_tables`` classified on fresh builds of
    ``catalog(16)``, which are the proper connected node sets (see
    ``test_subset_tables_classify_each_connected_set_once``): the
    classifier's |R| equals the reflection closure's.  Those of rank <= 12
    are the 2,884 distinct components of the proper subsets of
    ``catalog(12)``."""
    closure: dict[tuple, int] = {}
    found = []  # (base rank, shape) of each component
    for named in catalog(16):
        d = build.__wrapped__(named.ident)
        subset_tables(d)
        found.extend((named.ident.base_rank, _check_component(closure, d, nodes_of(comp), factor))
                     for comp, factor in d._components.items())

    def tally(max_rank):
        shapes = [key for rank, key in found if rank <= max_rank]
        return len(shapes), len(set(shapes))

    assert (tally(12), tally(16)) == ((2_884, 156), (6_089, 238))


def test_root_system_oracle_on_the_contracted_graphs(rank10_sweep):
    """Every component that ``Diagram.factors`` memoised on the graphs that
    ``contract`` made in the rank-10 reduction sweep: the classifier's |R|
    equals the reflection closure's.  The 52 shapes are 48 up to the order
    of their bonds: a contraction stores the bonds it adds last."""
    closure: dict[tuple, int] = {}
    components = 0
    for _parent, _i, child in rank10_sweep[0]:
        for comp, factor in child._components.items():
            _check_component(closure, child, nodes_of(comp), factor)
        components += len(child._components)
    assert (components, len(closure)) == (4_787, 52)


# The affine Cartan matrices of the two diagrams with a quadruple bond, rows
# and columns in node order (Kac, *Infinite-Dimensional Lie Algebras*,
# Tables Aff 1 and Aff 2): the symmetric A1 and the twisted 2A2, whose arrow
# tip 1 is the short root and so carries the -4.
_QUADRUPLE = {
    "A1": ((Bond(0, 1, 4, None),), [[2, -2], [-2, 2]]),
    "2A2": ((Bond(0, 1, 4, 1),), [[2, -1], [-4, 2]]),
}


def test_labels_are_the_null_vector_of_the_cartan_matrix():
    """A·c = 0 on every diagram of ``catalog(40)``: the labels c are the
    null vector of the affine Cartan matrix A, read from the bonds by
    ``_cartan``, or written out above for the two quadruple bonds.  This
    ties every label of every builder to its bonds."""
    diagrams = catalog(40)
    for d in diagrams:
        if d.spec in _QUADRUPLE:
            bonds, cartan = _QUADRUPLE[d.spec]
            assert d.bonds == bonds, d.spec
        else:
            assert all(b.mult <= 3 for b in d.bonds), d.spec
            cartan = _cartan(d.nodes, d.bonds)
        c = [d.labels[u] for u in d.nodes]
        assert [sum(a * x for a, x in zip(row, c)) for row in cartan] == [0] * len(c), d.spec
    assert len(diagrams) == 238
