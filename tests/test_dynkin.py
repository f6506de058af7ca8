import pytest

from kacscope.affine import Bond, catalog
from kacscope.dynkin import (
    FiniteFactor,
    UnsupportedSubdiagramError,
    canonical_factors,
    classify_nodes,
    factors_type_string,
    nodes_of,
    sort_factors,
    total_root_count,
)


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
    assert FiniteFactor(family, rank).root_count == count


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
    got = canonical_factors(family, rank)
    assert tuple((f.family, f.rank) for f in got) == expected


def test_canonicalisation_preserves_root_counts():
    # B_n and C_n diagrams carry the same number of roots, and the
    # D_2 / D_3 splits are root-count preserving as well.
    assert total_root_count(canonical_factors("C", 4)) == 2 * 4 * 4
    assert total_root_count(canonical_factors("D", 2)) == 4
    assert total_root_count(canonical_factors("D", 3)) == 12


def test_type_string_formatting():
    assert factors_type_string(()) == "0"
    a2 = FiniteFactor("A", 2)
    a1 = FiniteFactor("A", 1)
    assert factors_type_string((a2, a1, a2)) == "2A2+A1"
    assert factors_type_string((a1, a1, a1)) == "3A1"
    mixed = (FiniteFactor("D", 5), FiniteFactor("A", 3))
    assert factors_type_string(mixed) == "D5+A3"


def test_sort_factors_orders_by_size():
    factors = [FiniteFactor("A", 1), FiniteFactor("D", 5), FiniteFactor("A", 3)]
    ordered = sort_factors(factors)
    assert [str(f) for f in ordered] == ["D5", "A3", "A1"]


def _chain_bonds(mults):
    """The bonds of a chain 0-1-...-n with the given bond multiplicities."""
    return [Bond(i, i + 1, m) for i, m in enumerate(mults)]


def _bonds(adj):
    """The bonds of an adjacency mapping ``{u: [(v, mult), ...]}``, once each."""
    return [Bond(u, v, m) for u, nbrs in adj.items() for v, m in nbrs if u < v]


def test_classify_chains():
    assert classify_nodes((0,), []) == (FiniteFactor("A", 1),)
    assert classify_nodes((0, 1, 2), _chain_bonds([1, 1])) == (
        FiniteFactor("A", 3),
    )
    # a double bond at the end of a chain is a B diagram either way round
    assert classify_nodes((0, 1, 2), _chain_bonds([1, 2])) == (
        FiniteFactor("B", 3),
    )
    assert classify_nodes((0, 1, 2), _chain_bonds([2, 1])) == (
        FiniteFactor("B", 3),
    )
    assert classify_nodes((0, 1), _chain_bonds([3])) == (FiniteFactor("G", 2),)
    # F4: double bond in the middle of a 4-chain
    assert classify_nodes((0, 1, 2, 3), _chain_bonds([1, 2, 1])) == (
        FiniteFactor("F", 4),
    )


def test_classify_forked_shapes():
    # D5: chain of three with two tips on one end
    bonds = [Bond(0, 2), Bond(1, 2), Bond(2, 3), Bond(3, 4)]
    assert classify_nodes((0, 1, 2, 3, 4), bonds) == (FiniteFactor("D", 5),)
    # E6: fork two steps from each chain end
    bonds6 = _chain_bonds([1, 1, 1, 1]) + [Bond(2, 5)]
    assert classify_nodes((0, 1, 2, 3, 4, 5), bonds6) == (FiniteFactor("E", 6),)


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


def _root_count(nodes, bonds):
    """|R| of the root system whose simple roots are ``nodes`` and whose
    Dynkin diagram is ``bonds``, independent of the shape classifier: the
    Cartan matrix is read from the bonds and the simple roots are closed
    under the simple reflections, as integer vectors in the basis of simple
    roots (Kac, *Infinite-Dimensional Lie Algebras*, ch. 1 and 4).  A
    multiple bond makes its ``tip`` the short root, or ``v`` when it has
    no tip; the count does not depend on that choice."""
    index = {u: k for k, u in enumerate(nodes)}
    rank = len(nodes)
    cartan = [[2 * (k == m) for m in range(rank)] for k in range(rank)]
    for b in bonds:
        assert b.mult <= 3, "a quadruple bond is not finite type"
        short = b.v if b.tip is None else b.tip
        long_ = b.u if short == b.v else b.v
        cartan[index[short]][index[long_]] = -b.mult
        cartan[index[long_]][index[short]] = -1
    todo = [tuple(int(k == m) for m in range(rank)) for k in range(rank)]
    roots = set(todo)
    while todo:
        beta = todo.pop()
        for k, row in enumerate(cartan):
            pairing = sum(a * c for a, c in zip(row, beta))
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


def test_root_system_oracle_on_every_finite_type():
    """``_ROOT_COUNTS`` through ``canonical_factors``, and the classifier on
    the same shape, agree with the reflection closure."""
    for family, rank, size, bonds in _standard_shapes():
        want = _root_count(range(size), bonds)
        assert total_root_count(canonical_factors(family, rank)) == want, (family, rank)
        assert total_root_count(classify_nodes(range(size), bonds)) == want, (family, rank)


def _check_component(closure, graph, nodes, factors):
    """Assert that ``factors`` of the component ``nodes`` of ``graph`` count
    the roots of its reflection closure.  The closure runs once per shape,
    kept in ``closure`` under the component's bonds with nodes renumbered
    in order."""
    index = {u: k for k, u in enumerate(nodes)}
    bonds = tuple(
        Bond(index[b.u], index[b.v], b.mult, None if b.tip is None else index[b.tip])
        for b in graph.induced_bonds(set(nodes))
    )
    key = (len(nodes), bonds)
    if key not in closure:
        closure[key] = _root_count(range(len(nodes)), bonds)
    assert total_root_count(factors) == closure[key], (graph.bonds, nodes)


def test_root_system_oracle_on_every_component_to_rank_12():
    """Every distinct connected component of every proper subset of every
    diagram in ``catalog(12)``: the classifier's |R| equals the reflection
    closure's."""
    closure: dict[tuple, int] = {}
    components = 0
    for d in catalog(12):
        full = d.node_mask
        seen = set()
        for J in range(1, full):
            seen.update(d.components(J))
        for comp in seen:
            nodes = nodes_of(comp)
            _check_component(closure, d, nodes, d.factors(nodes))
        components += len(seen)
    assert (components, len(closure)) == (2_884, 156)


def test_root_system_oracle_on_the_contracted_graphs(rank10_sweep):
    """Every component that ``Diagram.factors`` memoised on the graphs that
    ``contract`` made in the rank-10 reduction sweep: the classifier's |R|
    equals the reflection closure's.  The 52 shapes are 48 up to the order
    of their bonds: a contraction stores the bonds it adds last."""
    closure: dict[tuple, int] = {}
    components = 0
    for _parent, _key, child in rank10_sweep[0]:
        for comp, factors in child._components.items():
            _check_component(closure, child, nodes_of(comp), factors)
        components += len(child._components)
    assert (components, len(closure)) == (4_787, 52)
