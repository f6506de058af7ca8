"""Graph moves behind the positivity proof: contraction, balancing,
tip switches, the reduced class Z, and the quadratic form bookkeeping."""

from __future__ import annotations

import gzip
import itertools
import re
from pathlib import Path

import pytest

from kacscope import reductions
from kacscope.affine import Bond, Diagram, build_spec, catalog
from kacscope.dynkin import connected_components
from kacscope.ellreg import expected_classes
from kacscope.reductions import (
    GreekData,
    ReductionStep,
    balance_step,
    contract,
    contractible_pair,
    contraction_drop,
    graph_f,
    greek_decomposition,
    in_Z,
    match_case,
    reduce_to_z,
    runs_of,
    switch_sites,
    switch_step,
)
from kacscope.thomae import f_value, proper_subsets, subset_tables, zero_set_data

TRACE_GOLDEN = Path(__file__).parent / "golden" / "reduce_classical9.tsv.gz"
CASE_GOLDEN = Path(__file__).parent / "golden" / "match_case_classical10.tsv.gz"


def _acyclic(max_rank):
    return [d for d in catalog(max_rank) if not d.cyclic]


def _classical(max_rank):
    """The chain and fork families the reduction machinery is built for;
    exceptional diagrams are settled by their finite tables instead."""
    return [
        d for d in _acyclic(max_rank)
        if d.ident.family in "ABCD" and d.e in (1, 2)
    ]


def _nonempty_proper(d):
    nodes = list(d.nodes)
    for r in range(1, len(nodes)):
        for J in itertools.combinations(nodes, r):
            yield frozenset(J)


# ---------------------------------------------------------------------------
# graph_f agrees with the diagram-level evaluation


def test_graph_f_matches_f_value():
    for d in _acyclic(8):
        bare = Diagram(d.e, d.labels, d.bonds)
        for J in _nonempty_proper(d):
            assert graph_f(bare, J) == f_value(d, J)


# ---------------------------------------------------------------------------
# contraction


def test_contraction_concrete():
    d = build_spec("B6")
    J = frozenset({1, 2, 4})
    g = d
    pair = contractible_pair(g, J)
    assert pair == (5, 6)
    drop = contraction_drop(g, J, pair[0])
    g2 = contract(g, J, *pair)
    assert drop == 11
    assert graph_f(g, J) - graph_f(g2, J) == drop
    assert len(g2.nodes) == len(g.nodes) - 1


def test_contraction_drop_exact_everywhere():
    checked = 0
    for d in _acyclic(7):
        g = d
        for J in _nonempty_proper(d):
            pair = contractible_pair(g, J)
            if pair is None:
                continue
            i, j = pair
            assert i not in J and j not in J
            g2 = contract(g, J, i, j)
            assert graph_f(g, J) - graph_f(g2, J) == contraction_drop(g, J, i)
            assert contraction_drop(g, J, i) >= 0
            checked += 1
    assert checked > 200


def test_contraction_drop_rejects_node_in_J():
    with pytest.raises(ValueError, match="off-J nodes only"):
        contraction_drop(build_spec("D6"), frozenset({2}), 2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g, J: contract(g, J, 99, 0), id="contract"),
        pytest.param(lambda g, J: contract(g, frozenset({99}), 3, 4), id="contract_J"),
        pytest.param(lambda g, J: contraction_drop(g, J, 99), id="contraction_drop"),
        pytest.param(lambda g, J: switch_step(g, J, 99, 0, 1), id="switch_step"),
        pytest.param(lambda g, J: switch_step(g, frozenset({99}), 4, 5, 3), id="switch_step_J"),
        pytest.param(lambda g, J: greek_decomposition(g, frozenset({99})), id="greek_decomposition"),
        pytest.param(lambda g, J: runs_of(g, frozenset({99})), id="runs_of"),
        pytest.param(lambda g, J: contractible_pair(g, frozenset({99})), id="contractible_pair"),
        pytest.param(lambda g, J: in_Z(g, frozenset({99})), id="in_Z"),
        pytest.param(lambda g, J: switch_sites(g, frozenset({99})), id="switch_sites"),
        pytest.param(lambda g, J: match_case(g, frozenset({99})), id="match_case"),
    ],
)
def test_node_outside_the_graph_is_rejected(call):
    with pytest.raises(ValueError, match=re.escape("not a node subset: [99]")):
        call(build_spec("D6"), frozenset({1}))


def test_contracted_child_equals_a_fresh_build():
    """Every contraction ``reduce_to_z`` makes over the classical diagrams
    to rank 9 derives a child equal to the same graph built from scratch
    (the parent's labels without ``i``; its bonds not at ``i``, in stored
    order, then the added ones), masks included, and leaves the parent's
    masks as they were."""
    children = 0
    for d in _classical(9):
        for J in _nonempty_proper(d):
            g = d
            while (pair := contractible_pair(g, J)) is not None:
                i = pair[0]
                parent_masks = (list(g.neighbours), g.node_mask, g.interior_mask)
                child = contract(g, J, *pair)
                assert (list(g.neighbours), g.node_mask, g.interior_mask) == parent_masks

                kept = tuple(b for b in g.bonds if i not in (b.u, b.v))
                assert child.bonds[: len(kept)] == kept
                labels = {u: c for u, c in g.labels.items() if u != i}
                fresh = Diagram(g.e, labels, kept + child.bonds[len(kept):])
                assert list(child.labels.items()) == list(fresh.labels.items())
                assert child.bonds == fresh.bonds
                assert [child.neighbours[u] for u in child.nodes] == [
                    fresh.neighbours[u] for u in fresh.nodes]
                assert child.interior == fresh.interior
                assert child.label_sum == fresh.label_sum
                g = child
                children += 1
    assert children == 10_979


def test_contract_shares_one_child_and_checks_every_call():
    """Contracting the same node returns the same child, whatever ``J``, and
    for a degree-two node whichever neighbour is its partner: the child is
    memoised under ``i`` for a degree-two node and ``(i, j)`` for a fork,
    and no key holds a ``Bond``.  Every refusal of ``contract`` still fires
    once a child of that node exists."""
    named = build_spec("B6")
    g = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
    J = frozenset({1, 2, 4})
    child = contract(g, J, 5, 6)
    assert contract(g, J, 5, 6) is child
    assert contract(g, frozenset({0}), 5, 4) is child  # the same Bond(4, 6, 2) is added
    fork = contract(g, frozenset({5}), 2, 3)
    assert contract(g, frozenset({6}), 2, 3) is fork
    assert g._contractions == {5: child, (2, 3): fork}
    # node 1 is a fork whose tip 2 hangs by a double bond
    h = Diagram(1, {u: 1 for u in range(5)},
                [Bond(0, 1), Bond(1, 2, 2, 2), Bond(1, 3), Bond(3, 4)])
    refusals = [
        (lambda: contract(g, frozenset({5}), 5, 6), "off-J nodes only"),
        (lambda: contract(g, frozenset({4}), 5, 4), "off-J nodes only"),
        (lambda: contract(g, J, 5, 3), "nodes 5 and 3 are not adjacent"),
        (lambda: contract(g, frozenset({99}), 5, 6), re.escape("not a node subset: [99]")),
        (lambda: contract(g, frozenset({5}), 2, 0), "toward the interior"),
        (lambda: contract(g, J, 6, 5), "node 6 has degree 1"),
        (lambda: contract(h, frozenset({4}), 1, 3), "node 1 is not a plain fork"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError, match=message):
            call()
    assert g._contractions == {5: child, (2, 3): fork} and h._contractions == {}


def test_memoised_children_equal_a_fresh_build(rank10_sweep):
    """Every child ``contract`` memoises in the rank-10 sweep equals
    ``Diagram(e, labels, kept + added)`` built anew, with ``kept``
    the parent's bonds not at the deleted node ``i`` in stored order, masks
    included.  The added bonds each join two neighbours of ``i`` in the
    parent: one bond for a degree-two ``i``, keyed by ``i``, and one per tip
    of a fork keyed by ``(i, j)``, each ending at ``j``."""
    found, _contractions = rank10_sweep
    for parent, key, child in found:
        i = key if isinstance(key, int) else key[0]
        kept = tuple(b for b in parent.bonds if i not in (b.u, b.v))
        added = child.bonds[len(kept):]
        assert child.bonds[:len(kept)] == kept
        nbrs = parent.neighbours[i]
        assert all(nbrs >> b.u & nbrs >> b.v & 1 for b in added)
        if key == i:
            assert parent.degree(i) == 2 and len(added) == 1
        else:
            assert parent.degree(i) == 3 and len(added) == 2
            assert all(key[1] in (b.u, b.v) for b in added)
        labels = {u: c for u, c in parent.labels.items() if u != i}
        fresh = Diagram(parent.e, labels, kept + added)
        assert list(child.labels.items()) == list(fresh.labels.items())
        assert child.interior == fresh.interior
        assert child.label_sum == fresh.label_sum
        masks = [child.neighbours[u] for u in child.nodes]
        assert masks == [fresh.neighbours[u] for u in fresh.nodes]
        assert masks == [sum(1 << (b.v if b.u == u else b.u)
                             for b in fresh.bonds if u in (b.u, b.v)) for u in fresh.nodes]
        assert (child.node_mask, child.interior_mask) == (fresh.node_mask, fresh.interior_mask)
        assert child.interior_mask == sum(1 << u for u in fresh.nodes if fresh.degree(u) >= 2)
    assert len(found) == 1_194


def test_reduce_sweep_shares_its_contracted_graphs(rank10_sweep):
    """The 14,436 traces over the classical diagrams to rank 10 make 25,610
    contractions but leave 1,194 memoised children, each made once: a
    degree-two node reached from either neighbour gives one child.  By
    value there are 1,193 distinct (parent, key): 2A3 and 2D3 are the
    same graph under two names, and each builds its one child."""
    found, contractions = rank10_sweep
    assert contractions == 25_610
    assert len({id(child) for _parent, _key, child in found}) == len(found) == 1_194
    by_value = {(parent.e, tuple(parent.labels.items()), parent.bonds, key)
                for parent, key, _child in found}
    assert len(by_value) == 1_193


def _sorted_contractible_pair(graph, J):
    """The reference search: sort the bonds by (min, max) of their ends
    and take the first one where a contraction applies."""
    interior = graph.interior
    for b in sorted(graph.bonds, key=lambda b: (min(b.u, b.v), max(b.u, b.v))):
        u, v = min(b.u, b.v), max(b.u, b.v)
        if u in J or v in J:
            continue
        du, dv = graph.degree(u), graph.degree(v)
        if du == 2:
            return u, v
        if dv == 2:
            return v, u
        if u in interior and v in interior:
            return u, v
    return None


def test_contractible_pair_matches_sorted_oracle(monkeypatch):
    """The mask-level first-move query of the move table against the
    sorted search on every state that ``reduce_to_z`` visits over the
    classical diagrams to rank 9: each pass of its contraction loop and its
    final ``in_Z`` check."""
    first_move = reductions._first_move
    states = 0

    def checked(graph, J):
        nonlocal states
        pair = first_move(graph, J)
        nodes = frozenset(u for u in graph.nodes if J >> u & 1)
        assert pair == _sorted_contractible_pair(graph, nodes), (graph.bonds, sorted(nodes))
        states += 1
        return pair

    monkeypatch.setattr(reductions, "_first_move", checked)
    for d in _classical(9):
        for J in _nonempty_proper(d):
            reductions.reduce_to_z(d, J)
    assert states == 25_407


def _components_runs(graph, nodes):
    """The reference run split: ``dynkin.connected_components``, with a run
    interior when each of its nodes has two or more bonds."""
    inner, outer = [], []
    for comp in map(frozenset, connected_components(sorted(nodes), graph.bonds)):
        (inner if all(graph.degree(u) >= 2 for u in comp) else outer).append(comp)
    return inner, outer


def test_run_split_matches_connected_components(monkeypatch):
    """The mask run split and ``runs_of`` against a split built from
    ``connected_components``, on every (graph, J) that ``reduce_to_z``
    visits over the classical diagrams to rank 9, contracted graphs and
    balanced zero sets included."""
    visited = {}
    for name in ("_first_move", "_runs"):
        real = getattr(reductions, name)

        def recording(graph, J, real=real):
            visited[id(graph), J] = graph
            return real(graph, J)

        monkeypatch.setattr(reductions, name, recording)
    for d in _classical(9):
        for J in _nonempty_proper(d):
            reductions.reduce_to_z(d, J)
    monkeypatch.undo()
    for (_key, J), graph in visited.items():
        nodes = frozenset(u for u in graph.nodes if J >> u & 1)
        want = _components_runs(graph, nodes)
        assert runs_of(graph, nodes) == want, (graph.bonds, sorted(nodes))
        masks = tuple([sum(1 << u for u in run) for run in runs] for runs in want)
        assert reductions._runs(graph, J) == masks
    assert len(visited) == 18_289


def test_contract_memoises_each_validated_pair_once():
    """A repeated ``contract`` returns the same child, memoised once per
    graph and deleted degree-two node; every refusal raises on every call,
    before and after a valid call on the same graph, and leaves no memo
    entry."""
    named = build_spec("B6")
    g = Diagram(named.e, named.labels, named.bonds)  # a bare copy with empty memos
    J = frozenset({1, 2, 4})
    h = Diagram(1, {u: 1 for u in range(5)},
                [Bond(0, 1), Bond(1, 2, 2, 2), Bond(1, 3), Bond(3, 4)])
    refusals = [
        (lambda: contract(g, frozenset({5}), 5, 6), "off-J nodes only"),
        (lambda: contract(g, frozenset({6}), 5, 6), "off-J nodes only"),
        (lambda: contract(g, J, 5, 3), "nodes 5 and 3 are not adjacent"),
        (lambda: contract(g, J, 99, 5), re.escape("not a node subset: [99]")),
        (lambda: contract(g, frozenset({-1}), 5, 6), re.escape("not a node subset: [-1]")),
        (lambda: contract(h, frozenset({4}), 1, 3), "node 1 is not a plain fork"),
        (lambda: contract(h, frozenset({4}), 3, 4), "off-J nodes only"),
    ]
    for valid in (False, True):
        if valid:
            child = contract(g, J, 5, 6)
            assert contract(g, J, 5, 6) is child and contract(g, frozenset({0}), 5, 6) is child
            path = contract(h, frozenset({0}), 3, 4)
            assert path.bonds[-1] == Bond(1, 4)
        for call, message in refusals:
            with pytest.raises(ValueError, match=message):
                call()
    assert g._contractions == {5: child} and h._contractions == {3: path}


@pytest.mark.parametrize("spec", ["B6", "D7", "2A9"])
def test_contractible_pair_ignores_bond_order(spec):
    """Bonds stored last to first, every other one written high end first,
    give the same pairs as the built diagram."""
    d = build_spec(spec)
    shuffled = Diagram(d.e, d.labels, [
        Bond(b.v, b.u, b.mult, b.tip) if t % 2 else b
        for t, b in enumerate(reversed(d.bonds))
    ])
    assert any(b.u > b.v for b in shuffled.bonds)
    for J in _nonempty_proper(d):
        pair = contractible_pair(shuffled, J)
        assert pair == _sorted_contractible_pair(shuffled, J) == contractible_pair(d, J)


def test_induced_bonds_agree_with_reclassification():
    """The induced-bond check of ``reduce_to_z`` against the
    reclassification it replaced, after every contraction over the
    classical diagrams to rank 8, and on the same graph with one bond
    inside ``J`` dropped."""
    steps = tampered = 0
    for d in _classical(8):
        for J in _nonempty_proper(d):
            factors0, inside0 = d.factors(J), d.induced_bonds(J)
            g = d
            while (pair := contractible_pair(g, J)) is not None:
                g = contract(g, J, *pair)
                same_bonds = g.induced_bonds(J) == inside0
                assert same_bonds == (g.factors(J) == factors0)
                assert same_bonds, (d.spec, sorted(J), pair)
                steps += 1
                if inside0:
                    dropped = Diagram(g.e, g.labels, [b for b in g.bonds if b != inside0[0]])
                    assert dropped.induced_bonds(J) != inside0
                    assert dropped.factors(J) != factors0
                    tampered += 1
    assert (steps, tampered) == (4_569, 2_794)


@pytest.mark.parametrize("change", ["drop", "multiply"])
def test_reduce_to_z_catches_a_changed_bond_in_J(monkeypatch, change):
    real = reductions.contract

    def tampering(graph, J, i, j):
        g = real(graph, J, i, j)
        b = g.induced_bonds(J)[0]
        bonds = [c for c in g.bonds if c != b]
        if change == "multiply":
            bonds.append(Bond(b.u, b.v, b.mult + 1, b.v))
        return Diagram(g.e, g.labels, bonds)

    monkeypatch.setattr(reductions, "contract", tampering)
    with pytest.raises(AssertionError, match="root system of J"):
        reduce_to_z(build_spec("B6"), {1, 2, 4})


def test_reduce_to_z_catches_a_changed_label_in_J(monkeypatch):
    """A label inside ``J`` is invisible to the induced bonds but not to
    the recomputed ``f``: the predicted drop no longer matches."""
    real = reductions.contract

    def relabelling(graph, J, i, j):
        g = real(graph, J, i, j)
        labels = dict(g.labels)
        labels[min(J)] += 1
        return Diagram(g.e, labels, g.bonds)

    monkeypatch.setattr(reductions, "contract", relabelling)
    with pytest.raises(AssertionError, match="predicted drop"):
        reduce_to_z(build_spec("B6"), {1, 2, 4})


def test_contraction_preserves_zero_set_factors():
    d = build_spec("D7")
    J = frozenset({2, 5})
    g = d
    pair = contractible_pair(g, J)
    g2 = contract(g, J, *pair)
    # J is untouched: same induced subdiagram before and after
    _, cJ_before, _ = zero_set_data(d, J)
    assert sum(g2.labels[i] for i in J) == cJ_before


def test_arrows_never_reach_root_counts():
    """Reversing any arrow leaves every |R_J| unchanged, so the bonds that
    a contraction makes need no arrow."""
    reversed_arrows = 0
    for d in catalog(12):
        roots, _ = subset_tables(d)
        for t, b in enumerate(d.bonds):
            if b.mult < 2 or b.tip is None:
                continue
            flipped = Bond(b.u, b.v, b.mult, b.u if b.tip == b.v else b.v)
            bonds = d.bonds[:t] + (flipped,) + d.bonds[t + 1:]
            assert subset_tables(Diagram(d.e, d.labels, bonds))[0] == roots, (d.spec, b)
            reversed_arrows += 1
    assert reversed_arrows == 73


# ---------------------------------------------------------------------------
# balancing


def _run_sizes(graph, J):
    """Sizes of the interior runs of ``J``, descending."""
    return sorted((len(run) for run in runs_of(graph, J)[0]), reverse=True)


def test_balance_step_exact():
    checked = 0
    for d in _classical(9):
        g = d
        for J in _nonempty_proper(d):
            if contractible_pair(g, J) is not None:
                continue
            if in_Z(g, J):
                continue
            J2, drop = balance_step(g, J)
            assert drop >= 0
            assert graph_f(g, J) - graph_f(g, J2) == drop
            sizes, sizes2 = _run_sizes(g, J), _run_sizes(g, J2)
            assert sizes2[0] - sizes2[-1] < sizes[0] - sizes[-1]
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("spec", ["E6", "E7", "E8", "F4", "2E6"])
def test_balance_step_refuses_a_nonconstant_interior_label(spec):
    # its drop formula needs one interior label; on E7 with J = {1, 2, 3,
    # 5} it would predict a drop of 14 where f rises by 5
    d = build_spec(spec)
    for J in proper_subsets(d):
        with pytest.raises(ValueError, match="interior label is not constant"):
            balance_step(d, J)


def _e_shaped_tree():
    """The E7 chain 0..6 with a three-node arm 7-8-9 under node 3: its
    interior is a star centred at node 3."""
    bonds = [Bond(i, i + 1) for i in range(6)] + [Bond(3, 7), Bond(7, 8), Bond(8, 9)]
    return Diagram(1, {u: 1 for u in range(10)}, bonds)


def _path_out_of_order():
    """A path whose interior 1-3-2-4-5-6 does not increase along it."""
    walk = [0, 1, 3, 2, 4, 5, 6, 7]
    return Diagram(1, {u: 1 for u in walk}, [Bond(u, v) for u, v in zip(walk, walk[1:])])


@pytest.mark.parametrize(
    "graph,J",
    [
        pytest.param(lambda: build_spec("A8"), {0, 1, 2, 4}, id="cycle"),
        pytest.param(_e_shaped_tree, {1, 3, 4, 5}, id="star"),
        pytest.param(_path_out_of_order, {1, 2, 3, 5}, id="path-out-of-order"),
    ],
)
def test_balance_step_needs_an_increasing_interior_path(graph, J):
    """Each J has interior runs of sizes 3 and 1, so only the path check
    refuses it."""
    g, J = graph(), frozenset(J)
    assert _run_sizes(g, J) == [3, 1]
    with pytest.raises(ValueError, match="interior is not a path"):
        balance_step(g, J)


# ---------------------------------------------------------------------------
# the reduced class


def test_in_z_examples():
    g = build_spec("C5")
    # membership needs every off-J node to resist contraction, so sparse
    # zero sets are not yet terminal
    assert not in_Z(g, frozenset({2}))
    assert contractible_pair(g, frozenset({2})) is not None
    assert in_Z(g, frozenset({0, 2, 4}))
    assert in_Z(g, frozenset({1, 3, 5}))
    b6 = build_spec("B6")
    assert in_Z(b6, frozenset({3, 5}))
    assert not in_Z(b6, frozenset({3, 6}))


def test_reduce_to_z_rejects_exceptional():
    for spec in ("E7", "F4", "G2", "3D4", "2E6", "A4"):
        with pytest.raises(ValueError):
            reduce_to_z(build_spec(spec), {1})


def test_reduce_to_z_trace_shape():
    d = build_spec("B6")
    tr = reduce_to_z(d, {1, 2, 4})
    assert tr.spec == "B6"
    assert tr.f_start == graph_f(d, frozenset({1, 2, 4}))
    assert tr.f_final == graph_f(tr.final_graph, tr.final_J)
    assert tr.f_start == tr.f_final + sum(s.drop for s in tr.steps)
    assert in_Z(tr.final_graph, tr.final_J)


def _trace_line(tr) -> str:
    """One trace as a tab-separated line: spec, start, f_start, the steps
    (kind|detail|drop|f_after, joined by ';'), final J, f_final, the final
    labels and the final bonds as u-v*mult.  Arrow tips are left out."""
    g = tr.final_graph
    return "\t".join([
        tr.spec,
        ",".join(map(str, tr.start)),
        str(tr.f_start),
        ";".join(f"{s.kind}|{s.detail}|{s.drop}|{s.f_after}" for s in tr.steps),
        ",".join(map(str, sorted(tr.final_J))),
        str(tr.f_final),
        ",".join(f"{u}:{g.labels[u]}" for u in sorted(g.labels)),
        ",".join(f"{b.u}-{b.v}*{b.mult}" for b in g.bonds),
    ])


def test_reduce_to_z_everywhere_monotone():
    """Every starting zero set reduces to the terminal class with
    non-increasing f along the way, so positivity transfers backwards;
    and every trace equals its recorded line in ``TRACE_GOLDEN``."""
    with gzip.open(TRACE_GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    traces = 0
    for d in _classical(9):
        for J in _nonempty_proper(d):
            tr = reduce_to_z(d, J)
            assert _trace_line(tr) == golden[traces], (d.spec, sorted(J))
            traces += 1
            assert in_Z(tr.final_graph, tr.final_J), (d.spec, sorted(J))
            f = tr.f_start
            for step in tr.steps:
                assert step.drop >= 0, (d.spec, sorted(J), step)
                f -= step.drop
                assert f == step.f_after
            assert f == tr.f_final
            assert tr.f_final >= 0
            assert tr.f_start >= tr.f_final
    assert traces == len(golden) == 7_214


# ---------------------------------------------------------------------------
# switches


def test_switch_concrete_strict_drop():
    d = build_spec("D8")
    g = d
    J = frozenset({4, 5})
    sites = switch_sites(g, J)
    assert (6, 7, 5) in sites
    res = switch_step(g, J, 6, 7, 5)
    assert res.q == 1 and res.s == 1
    assert res.drop == 20
    assert not res.vexing
    assert graph_f(g, J) - graph_f(g, res.new_J) == 20
    assert res.new_J == (J - {5}) | {6}


@pytest.mark.parametrize("site, J", [((3, 5, 2), {2}), ((2, 4, 3), {3}), ((6, 7, 2), {2, 5})])
def test_switch_step_rejects_a_non_fork(site, J):
    """``i`` must be a fork with two pendant tips, ``j`` one of them and
    ``k`` its interior neighbour (on D8 the fork 6 has tips 7, 8 and
    interior neighbour 5, not 2)."""
    with pytest.raises(ValueError, match=re.escape(str(site))):
        switch_step(build_spec("D8"), frozenset(J), *site)


def test_switch_drop_formula_exact():
    """drop = 2(q + s - 1) * c^J on every site, including the negative
    q = 0, s = 0 corner where the move is a strict ascent."""
    seen_negative = 0
    seen_vexing = 0
    checked = 0
    for d in _classical(9):
        g = d
        for J in _nonempty_proper(d):
            c_up = g.label_sum - sum(g.labels[i] for i in J)
            for (i, j, k) in switch_sites(g, J):
                res = switch_step(g, J, i, j, k)
                if res is None:
                    continue
                assert res.drop == 2 * (res.q + res.s - 1) * c_up
                assert graph_f(g, J) - graph_f(g, res.new_J) == res.drop
                assert res.vexing == (res.q == 1 and res.s == 0)
                if res.drop < 0:
                    assert res.q == 0 and res.s == 0
                    seen_negative += 1
                if res.vexing:
                    assert res.drop == 0
                    # the stalled configurations still sit strictly inside
                    assert graph_f(g, J) > 0
                    seen_vexing += 1
                checked += 1
    assert checked > 500
    assert seen_negative > 0
    assert seen_vexing > 0


# ---------------------------------------------------------------------------
# the quadratic form decomposition


def test_greek_identity_small_sweep():
    checked = 0
    for d in _classical(9):
        g = d
        for J in _nonempty_proper(d):
            sizes = sorted({len(c) for c in runs_of(g, J)[0]})
            if len(sizes) > 2 or (len(sizes) == 2 and sizes[1] - sizes[0] != 1):
                continue
            data = greek_decomposition(g, J)
            assert data.f_via_form == graph_f(g, J), (d.spec, sorted(J))
            checked += 1
    assert checked > 3000


def test_greek_beta_matches_alpha_shift():
    """beta equals alpha recomputed with every run one node longer."""
    for d in _classical(8):
        g = d
        for J in _nonempty_proper(d):
            sizes = sorted({len(c) for c in runs_of(g, J)[0]})
            if len(sizes) > 2 or (len(sizes) == 2 and sizes[1] - sizes[0] != 1):
                continue
            data = greek_decomposition(g, J)
            q, a, b, c = data.q, data.a, data.b, data.c
            alpha_shift = (
                c * data.r_boundary + a * (q + 1) * q
                - (b * c * q + (q + 1) * data.c_boundary)
            )
            assert data.beta == alpha_shift


def test_greek_two_node_diagrams():
    for spec in ("A1", "2A2"):
        d = build_spec(spec)
        g = d
        for J in _nonempty_proper(d):
            data = greek_decomposition(g, J)
            assert data.x == 0 and data.y == 0
            assert data.f_via_form == graph_f(g, J)


@pytest.mark.parametrize("record, fields", [
    (GreekData, ("c", "q", "x", "y", "a", "b", "r_boundary", "c_boundary",
                 "alpha", "beta", "gamma")),
    (ReductionStep, ("kind", "detail", "drop", "f_after")),
])
def test_records_keep_their_fields_and_refuse_assignment(record, fields):
    """Built positionally, a record holds each value under its field name,
    in order; assigning to a field or deleting it raises."""
    value = record(*range(len(fields)))
    assert [getattr(value, name) for name in fields] == list(range(len(fields)))
    assert value == record(**dict(zip(fields, range(len(fields)))))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(range(len(fields)))


# ---------------------------------------------------------------------------
# closed-form cases


CASE_NAMES = {
    "2A-even terminal run",
    "C interior runs",
    "2D two terminal runs",
    "2A-odd fork run",
    "2A-odd one-tip run",
    "2A-odd interior runs",
    "B fork and terminal runs",
    "B one-tip and terminal runs",
    "B terminal run",
    "D two full forks",
    "D two half forks",
    "D one full fork",
    "D one half fork",
    "D interior runs",
}


def _case_line(d, J, m) -> str:
    """``m = match_case(d, J)`` as a tab-separated line: spec, J, then the
    case name, its params as name=value in order, alpha and gamma; or
    ``-`` when no case matches."""
    head = [d.spec, ",".join(map(str, sorted(J)))]
    if m is None:
        return "\t".join(head + ["-"])
    params = ",".join(f"{k}={v}" for k, v in m.params.items())
    return "\t".join(head + [m.name, params, str(m.alpha), str(m.gamma)])


def _write_golden(path, lines):
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


def test_case_names_are_closed():
    """Every case occurs on the classical diagrams to rank 10, and every
    result equals its recorded line in ``CASE_GOLDEN``."""
    with gzip.open(CASE_GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    seen = set()
    lines = 0
    for d in _classical(10):
        for J in _nonempty_proper(d):
            m = match_case(d, J)
            assert _case_line(d, J, m) == golden[lines], (d.spec, sorted(J))
            lines += 1
            if m is not None:
                seen.add(m.name)
    assert seen == CASE_NAMES
    assert lines == len(golden)


@pytest.mark.parametrize("spec, J", [("B6", {0, 2, 3, 4, 5, 6}), ("D8", {0, 2, 3, 4, 5, 6, 7})])
def test_cases_need_distinct_boundary_runs(spec, J):
    """A tip pattern whose two wanted runs are one and the same run is
    refused by the run step itself, before the counting identities (which
    refuse it too) are read."""
    d, J = build_spec(spec), frozenset(J)
    _name, wanted = reductions._pattern(d, J)
    assert [param for param, _tips, _offset in wanted] == ["p", "r"]
    outer = runs_of(d, J)[1]
    assert outer == [J]
    assert reductions._run_params(outer, wanted) is None
    assert match_case(d, J) is None


def test_cases_agree_with_decomposition():
    for d in _classical(9):
        g = d
        for J in _nonempty_proper(d):
            m = match_case(d, J)
            if m is None:
                continue
            data = greek_decomposition(g, J)
            assert m.alpha == data.alpha, (d.spec, sorted(J), m.name)
            assert m.gamma == data.gamma, (d.spec, sorted(J), m.name)
            # every matched instance is certified non-negative directly
            assert data.f_via_form >= 0


def test_2a3_and_2d3_are_one_graph():
    """2A3 is built as the 2D3 graph, so it has the same spine ends, the
    same case on every zero set and the same predicted classes."""
    a, d = build_spec("2A3"), build_spec("2D3")
    assert (a.labels, a.bonds, a.ends) == (d.labels, d.bonds, d.ends)
    matched = 0
    for J in _nonempty_proper(a):
        assert match_case(a, J) == match_case(d, J), sorted(J)
        matched += match_case(a, J) is not None
    assert matched == 1
    assert [(c.m, c.s) for c in expected_classes(a)] == [(c.m, c.s) for c in expected_classes(d)]


def test_no_case_without_spine_ends():
    """E6-E8, F4, G2, 3D4, 2E6 and untwisted A have no end record and
    match no case on any zero set."""
    plain = [d for d in catalog(8) if d.ends is None]
    assert {d.spec for d in plain} == {
        "E6", "E7", "E8", "F4", "G2", "3D4", "2E6", *(f"A{n}" for n in range(1, 9))}
    for d in plain:
        for J in proper_subsets(d):
            assert match_case(d, J) is None, (d.spec, sorted(J))


# ---------------------------------------------------------------------------
# cross-family comparisons on the same chain


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_chain_family_comparisons(n):
    A = build_spec(f"2A{2 * n}")
    C = build_spec(f"C{n}")
    D = build_spec(f"2D{n + 1}")
    nodes = range(n + 1)
    for r in range(1, n + 1):
        for J in map(frozenset, itertools.combinations(nodes, r)):
            fa, fc, fd = f_value(A, J), f_value(C, J), f_value(D, J)
            ra, _, _ = zero_set_data(A, J)
            rc, _, _ = zero_set_data(C, J)
            if n not in J:
                assert fa == fc + ra
            else:
                assert fc == fa + n
            if 0 not in J:
                assert 2 * fd == fa + ra
            else:
                assert fa == 2 * fd + n
            if 0 in J and n in J:
                assert fc == 2 * fd + 2 * n
            if 0 in J and n not in J:
                assert 2 * fd == fc + rc - n


if __name__ == "__main__":
    # Re-record TRACE_GOLDEN and CASE_GOLDEN (only with a change meant to
    # alter traces or case matches):
    #   PYTHONPATH=src python tests/test_reductions.py
    _write_golden(TRACE_GOLDEN, [
        _trace_line(reduce_to_z(d, J)) for d in _classical(9) for J in _nonempty_proper(d)
    ])
    _write_golden(CASE_GOLDEN, [
        _case_line(d, J, match_case(d, J)) for d in _classical(10) for J in _nonempty_proper(d)
    ])
