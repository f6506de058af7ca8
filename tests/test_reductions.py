"""Graph moves behind the positivity proof: contraction, balancing,
tip switches, the reduced class Z, and the quadratic form bookkeeping."""

from __future__ import annotations

import gzip
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kacscope import affine, reductions
from kacscope.affine import Bond, Diagram, build_spec, catalog
from kacscope.dynkin import connected_components, nodes_of
from kacscope.ellreg import expected_classes
from kacscope.reductions import (
    GreekData,
    ReductionStep,
    ReductionTrace,
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
from kacscope.thomae import ClassReport, f_value, proper_subsets, subset_tables, zero_set_data

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
        pytest.param(lambda g, J: reduce_to_z(g, J | {99}), id="reduce_to_z"),
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
                assert child.interior_mask == fresh.interior_mask
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
    found, _contractions, _finals = rank10_sweep
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
        assert child.label_sum == fresh.label_sum
        assert all(g.n_e == len(g.labels) - 1 for g in (parent, child, fresh))
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
    found, contractions, _finals = rank10_sweep
    assert contractions == 25_610
    assert len({id(child) for _parent, _key, child in found}) == len(found) == 1_194
    by_value = {(parent.e, tuple(parent.labels.items()), parent.bonds, key)
                for parent, key, _child in found}
    assert len(by_value) == 1_193


def _sorted_contractible_pair(graph, J):
    """The reference search: sort the bonds by (min, max) of their ends
    and take the first one where a contraction applies."""
    interior = {u for u in graph.nodes if graph.degree(u) >= 2}
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


def _spine_oracle(graph):
    """The interior's label, nodes and path verdict from the bonds alone:
    a node is interior when two bonds meet it, and the interior is that
    path when each consecutive pair is bonded and no other pair is."""
    degree = Counter(u for b in graph.bonds for u in (b.u, b.v))
    order = tuple(sorted(u for u in graph.labels if degree[u] >= 2))
    labels = {graph.labels[u] for u in order}
    label = None if len(labels) > 1 else next(iter(labels), 0)
    inside = {frozenset((b.u, b.v)) for b in graph.bonds if {b.u, b.v} <= set(order)}
    return label, order, inside == {frozenset(pair) for pair in zip(order, order[1:])}


def test_spine_and_bond_masks_match_oracles(rank10_sweep):
    """``_spine`` and ``_induced_bonds`` against their definitions on every
    diagram of ``catalog(12)`` and every memoised child of the reduce sweep:
    the spine both as first worked out and as read back from the memo (the
    sweep's children hold the one their traces filled), and the induced
    bonds on every single node, every bonded pair, the interior, the
    interior's complement and 40 seeded random node sets.  Each child is
    also made again from a copy of its parent whose spine is already
    worked out, and must work out its own."""
    rng = random.Random(23)
    graphs = catalog(12) + [child for _parent, _key, child in rank10_sweep[0]]
    for parent, key, _child in rank10_sweep[0]:
        i, j = key if isinstance(key, tuple) else (key, nodes_of(parent.neighbours[key])[0])
        fresh = Diagram(parent.e, parent.labels, parent.bonds)
        reductions._spine(fresh)
        child = contract(fresh, frozenset(), i, j)
        assert reductions._spine(child) == _spine_oracle(child), (parent.bonds, key)
    for g in graphs:
        assert reductions._spine(g) == reductions._spine(g) == _spine_oracle(g), g.bonds
        subsets = [{u} for u in g.nodes] + [{b.u, b.v} for b in g.bonds]
        subsets += [set(nodes_of(g.interior_mask)), set(nodes_of(g.node_mask & ~g.interior_mask))]
        subsets += [{u for u in g.nodes if rng.random() < 0.5} for _ in range(40)]
        for nodes in subsets:
            want = tuple(b for b in g.bonds if b.u in nodes and b.v in nodes)
            assert g._induced_bonds(g.mask_of(nodes)) == want, (g.bonds, sorted(nodes))
    assert len(graphs) == 70 + 1_194


def check_children_work_out_their_own_spine(max_rank):
    """Every child that one contraction makes of a fresh build of each
    classical diagram to ``max_rank``, its parent's spine worked out first,
    against the oracle; returns the number of children.  The cheap form, for
    ``tests/test_mutants.py``, of the fresh-parent part of
    :func:`test_spine_and_bond_masks_match_oracles`."""
    children = 0
    for d in _classical(max_rank):
        parent = affine.build.__wrapped__(d.ident)
        reductions._spine(parent)
        for i in parent.nodes:
            for j in nodes_of(parent.neighbours[i]):
                try:
                    child = reductions.contract(parent, frozenset(), i, j)
                except ValueError:  # not a move at i toward j
                    continue
                assert reductions._spine(child) == _spine_oracle(child), (d.spec, i, j)
                children += 1
    return children


@pytest.mark.parametrize("spec", ["E6", "F4"])
def test_nonconstant_interior_label_raises_before_and_after_the_memo(spec):
    """Every call raises, the ones after the spine memo is filled included."""
    d = build_spec(spec)
    g = Diagram(d.e, d.labels, d.bonds)
    assert g._spine is None
    for _ in range(2):
        for J in proper_subsets(g):
            for call in (greek_decomposition, balance_step):
                with pytest.raises(ValueError, match="interior label is not constant"):
                    call(g, J)
        assert g._spine is not None


def test_reduce_to_z_evaluates_f_once_per_state(monkeypatch):
    """One ``graph_f`` call for the start and one after each move: the
    independent recompute stays, and nothing else evaluates f."""
    calls = 0
    real = reductions.graph_f

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(reductions, "graph_f", counting)
    traces = 0
    for d in _classical(8):
        for J in _nonempty_proper(d):
            before = calls
            trace = reduce_to_z(d, J)
            assert calls - before == 1 + len(trace.steps), (d.spec, sorted(J))
            traces += 1
    assert traces > 3_000


def test_reduce_to_z_splits_j_once_and_sorts_no_factors(monkeypatch):
    """``reduce_to_z`` splits J into components once, at its start, and
    twice per balance step: in ``balance_step``, and once for the new J,
    whose split gives both the f recompute and the new run sizes.  The
    contractions and the final Z test split nothing, and no trace sorts
    factors."""
    counts = Counter()

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(Diagram, "components", counted("split", Diagram.components))
    monkeypatch.setattr(affine, "sort_factors", counted("sort", affine.sort_factors))
    traces = balanced = 0
    for d in _classical(8):
        for J in _nonempty_proper(d):
            counts.clear()
            trace = reduce_to_z(d, J)
            steps = sum(step.kind == "balance" for step in trace.steps)
            assert counts["split"] == 1 + 2 * steps, (d.spec, sorted(J))
            assert not counts["sort"], (d.spec, sorted(J))
            traces, balanced = traces + 1, balanced + (steps > 0)
    assert (traces, balanced) == (3_576, 95)


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


def check_a_changed_bond_in_J_is_caught(monkeypatch, change):
    """``reduce_to_z`` on B6 with J = {1, 2, 4} makes one contraction and
    passes; with ``contract`` tampered to ``change`` ("drop" or "multiply")
    the one bond inside J of each child, it raises at the induced-bond
    comparison.  The tampered bond is found from the bonds alone."""
    d, J = build_spec("B6"), {1, 2, 4}
    assert [step.kind for step in reduce_to_z(d, J).steps] == ["contract"]
    real = reductions.contract

    def tampering(graph, J, i, j):
        g = real(graph, J, i, j)
        b = next(c for c in g.bonds if c.u in J and c.v in J)
        bonds = [c for c in g.bonds if c != b]
        if change == "multiply":
            bonds.append(Bond(b.u, b.v, b.mult + 1, b.v))
        return Diagram(g.e, g.labels, bonds)

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "contract", tampering)
        try:
            reduce_to_z(d, J)
        except AssertionError as exc:
            assert "root system of J" in str(exc), exc
        else:
            raise AssertionError(f"reduce_to_z missed a bond inside J changed by {change!r}")


@pytest.mark.parametrize("change", ["drop", "multiply"])
def test_reduce_to_z_catches_a_changed_bond_in_J(monkeypatch, change):
    check_a_changed_bond_in_J_is_caught(monkeypatch, change)


def check_a_changed_label_in_J_is_caught(monkeypatch):
    """A label inside ``J`` is invisible to the induced bonds but not to
    the recomputed ``f``: on B6 with J = {1, 2, 4}, whose one contraction
    relabels a node of J, the contraction's predicted drop no longer
    matches."""
    real = reductions.contract

    def relabelling(graph, J, i, j):
        g = real(graph, J, i, j)
        labels = dict(g.labels)
        labels[min(J)] += 1
        return Diagram(g.e, labels, g.bonds)

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "contract", relabelling)
        try:
            reductions.reduce_to_z(build_spec("B6"), {1, 2, 4})
        except AssertionError as exc:
            assert "contraction of node 5: predicted drop 11," in str(exc), exc
        else:
            raise AssertionError("reduce_to_z missed a label inside J changed by a contraction")


def test_reduce_to_z_catches_a_changed_label_in_J(monkeypatch):
    check_a_changed_label_in_J_is_caught(monkeypatch)


def check_a_misreported_balance_drop_is_caught(monkeypatch):
    """On B7 with J = {2, 3, 4, 6} the trace is one balance step, of drop
    12, and no contraction; with ``balance_step`` reporting that drop one
    too high, the recomputed ``f`` no longer matches it."""
    d, J = build_spec("B7"), {2, 3, 4, 6}
    assert [(step.kind, step.drop) for step in reduce_to_z(d, J).steps] == [("balance", 12)]
    real = reductions.balance_step

    def misreporting(graph, J):
        new_J, drop = real(graph, J)
        return new_J, drop + 1

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "balance_step", misreporting)
        try:
            reductions.reduce_to_z(d, J)
        except AssertionError as exc:
            assert "balance step: predicted drop 13, got 12" in str(exc), exc
        else:
            raise AssertionError("reduce_to_z missed a balance drop reported one too high")


def test_reduce_to_z_catches_a_misreported_balance_drop(monkeypatch):
    check_a_misreported_balance_drop_is_caught(monkeypatch)


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
    (kind|text|drop|f_after, joined by ';'), final J, f_final, the final
    labels and the final bonds as u-v*mult.  Arrow tips are left out.  A
    contraction's text is ``removed node i``, and a balance step's is
    ``runs [..] -> [..]``, the interior run sizes, descending, of the J
    before it and of its new J.  Every balance step runs on the final
    graph, so both come from ``_sizes`` there."""
    g, J, steps = tr.final_graph, tr.start, []
    for s in tr.steps:
        if s.kind == "contract":
            text = f"removed node {s.move}"
        else:
            old, new = (reductions._sizes(g, g.components(g.mask_of(K))) for K in (J, s.move))
            text, J = f"runs {old} -> {new}", s.move
        steps.append(f"{s.kind}|{text}|{s.drop}|{s.f_after}")
    return "\t".join([
        tr.spec,
        ",".join(map(str, tr.start)),
        str(tr.f_start),
        ";".join(steps),
        ",".join(map(str, sorted(tr.final_J))),
        str(tr.f_final),
        ",".join(f"{u}:{g.labels[u]}" for u in sorted(g.labels)),
        ",".join(f"{b.u}-{b.v}*{b.mult}" for b in g.bonds),
    ])


def _replayed_child(g, i):
    """``g`` with the node ``i`` contracted away, rebuilt from ``i`` alone and
    not by ``contract``: a degree-two ``i`` becomes one bond between its two
    neighbours, of the higher multiplicity, or 4 when both are multiple; a
    fork hands its plain pendant tips, in stored order, to its one neighbour
    of degree >= 2.  The bonds not at ``i`` keep their stored order, and the
    added ones follow."""
    ends = [(b.v if b.u == i else b.u, b.mult) for b in g.bonds if i in (b.u, b.v)]
    assert len(ends) in (2, 3), (i, ends)
    if len(ends) == 2:
        (j, mj), (k, mk) = ends
        added = [Bond(min(j, k), max(j, k), 4 if min(mj, mk) > 1 else max(mj, mk))]
    else:
        hubs = [v for v, _ in ends if g.degree(v) >= 2]
        assert len(hubs) == 1, (i, ends)
        tips = [(t, m) for t, m in ends if t != hubs[0]]
        assert all(g.degree(t) == 1 and m == 1 for t, m in tips), (i, ends)
        added = [Bond(min(t, hubs[0]), max(t, hubs[0])) for t, _ in tips]
    kept = [b for b in g.bonds if i not in (b.u, b.v)]
    return Diagram(g.e, {u: c for u, c in g.labels.items() if u != i}, kept + added)


def _replay(d, J, tr):
    """Check the trace ``tr`` of ``(d, J)`` from its moves alone, with
    ``Diagram``, ``Bond`` and ``f_value``: each contraction is rebuilt by
    ``_replayed_child`` from an off-J node, each balance step takes its new
    J, f is recomputed after every step and must fall by the recorded drop,
    which is positive, to the recorded ``f_after``; the end must be the
    recorded final J, labels, bonds in stored order and f."""
    g, f = d, f_value(d, J)
    assert (tr.spec, tr.start, tr.f_start) == (d.spec, tuple(sorted(J)), f)
    for step in tr.steps:
        if step.kind == "contract":
            assert type(step.move) is int and step.move not in J, step
            g = _replayed_child(g, step.move)
        else:
            assert step.kind == "balance" and step.move == tuple(sorted(set(step.move))), step
            J = frozenset(step.move)
        new_f = f_value(g, J)
        assert (step.drop, step.f_after) == (f - new_f, new_f) and step.drop > 0, (d.spec, step)
        f = new_f
    assert (tr.final_J, tr.f_final) == (J, f), d.spec
    assert list(tr.final_graph.labels.items()) == list(g.labels.items()), d.spec
    assert tr.final_graph.bonds == g.bonds, d.spec


def check_traces_replay(max_rank):
    """Every trace ``reductions.reduce_to_z`` makes on ``_classical(max_rank)``
    passes ``_replay``.  Returns the traces, in order."""
    traces = []
    for d in _classical(max_rank):
        for J in _nonempty_proper(d):
            tr = reductions.reduce_to_z(d, J)
            _replay(d, J, tr)
            traces.append(tr)
    return traces


def test_reduce_to_z_everywhere_monotone():
    """Every starting zero set reduces to the terminal class with
    non-increasing f along the way, so positivity transfers backwards;
    every trace replays from its moves alone, which checks each drop and
    f value; and every trace equals its recorded line in ``TRACE_GOLDEN``."""
    with gzip.open(TRACE_GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    traces = check_traces_replay(9)
    assert len(traces) == len(golden) == 7_214
    for tr, line in zip(traces, golden):
        assert _trace_line(tr) == line, (tr.spec, tr.start)
        assert in_Z(tr.final_graph, tr.final_J), (tr.spec, tr.start)
        assert tr.f_final >= 0


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


def test_greek_boundary_label_sum_on_every_final_state(rank10_sweep):
    """``c_boundary``, read off ``c_J`` and the interior runs, is the label
    sum of the boundary runs on every final state of the reduce sweep, the
    two-node diagrams (c = 0, no interior) included."""
    finals, two_node = rank10_sweep[2], 0
    for g, J in finals:
        data = greek_decomposition(g, J)
        want = sum(g.labels[u] for run in runs_of(g, J)[1] for u in run)
        assert data.c_boundary == want, (g.bonds, sorted(J))
        if not g.interior_mask:
            assert (len(g.nodes), data.c) == (2, 0), (g.bonds, sorted(J))
            two_node += 1
    assert (len(finals), two_node) == (14_436, 48)


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
    (ReductionStep, ("kind", "move", "drop", "f_after")),
    (ClassReport, ("spec", "m", "s", "zero_set", "fixed_type", "fixed_dim", "bound", "f")),
    (ReductionTrace, ("spec", "start", "f_start", "steps", "final_graph", "final_J", "f_final")),
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


def test_class_report_derives_its_properties_and_refuses_assignment():
    """``tau``, ``holds`` and ``is_equality`` are read from ``m`` and
    ``bound``, and cannot be assigned, on a bound equal to 1/m, above it
    and below it."""
    for m, bound, holds in ((6, Fraction(1, 6), True), (6, Fraction(1, 4), True),
                            (6, Fraction(1, 7), False)):
        report = ClassReport("G2", m, (1, 1, 1), (), "0", 2, bound, 0)
        assert report.tau == Fraction(1, m)
        assert (report.holds, report.is_equality) == (holds, bound == Fraction(1, m))
        for name in ("tau", "holds", "is_equality"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)


# ---------------------------------------------------------------------------
# closed-form cases


# Hand-written closed forms of the fifteen end-state pairs at the base gap:
# pair -> (sL, q, sR) -> (alpha, gamma), with sL and sR the node counts of
# the two ends' runs.  They are the oracle for the base-gap matches of these
# pairs, which take alpha and gamma from greek_decomposition.
CASE_FORMS = {
    "light 0 / heavy 1": lambda sl, q, sr: ((q - 2 * sr) * (q - 2 * sr - 1), 0),
    "light 0 / light 0": lambda sl, q, sr: (0, 0),
    "heavy 1 / heavy 1": lambda sl, q, sr: (
        (sl - sr) ** 2 + (sl + sr - q) * (sl + sr - q + 1), (sl - sr) ** 2),
    "fork 2 / light 0": lambda sl, q, sr: ((2 * sl - q) * (2 * sl - q - 1), 0),
    "fork 1 / light 0": lambda sl, q, sr: (2 * (sl - q + 1) ** 2 + q, sl + 1),
    "fork 0 / light 0": lambda sl, q, sr: ((q - 1) * (q - 2), 0),
    "fork 2 / heavy 1": lambda sl, q, sr: (
        2 * (sl - sr) * (sl - sr - 1) + 2 * (sl + sr - q) ** 2, 2 * (sl - sr) * (sl - sr - 1)),
    "fork 0 / heavy 1": lambda sl, q, sr: (
        2 * (q - sr - 1) ** 2 + 2 * sr * (sr - 1), 2 * sr * (sr - 1)),
    "fork 2 / fork 2": lambda sl, q, sr: (
        2 * (sl - sr) ** 2 + 2 * (sl + sr - q) * (sl + sr - q - 1), 2 * (sl - sr) ** 2),
    # the two D half-fork forms read most simply in sL + 1 and sR + 1
    "fork 1 / fork 1": lambda sl, q, sr: (
        2 * (sl + 1 - q) ** 2 + 2 * (sr + 1 - q) ** 2 + 2 * q,
        2 * (sl - sr) ** 2 + 2 * (sl + sr + 2)),
    "fork 2 / fork 0": lambda sl, q, sr: (
        2 * ((sl - q + 1) ** 2 + (sl - 2) * (sl - 1) + (q - 2)), 2 * (sl - 1) ** 2),
    "fork 1 / fork 0": lambda sl, q, sr: (2 * (sl + 1 - q) ** 2 + (q - 1) ** 2 + 1, sl * sl + 2),
    "fork 0 / fork 0": lambda sl, q, sr: (2 * (q - 1) * (q - 2), 0),
}
# B's one-tip end has one form whether or not J holds the heavy end's node
CASE_FORMS["fork 1 / heavy 0"] = CASE_FORMS["fork 1 / heavy 1"] = lambda sl, q, sr: (
    2 * (sl - q) * (sl - q + 1) + (q - sr) ** 2 + 3 * sr * sr + 2 * sl + 2 * (1 - q) * (1 + sr),
    (2 * sr - sl - 1) ** 2 + 3 * sr)


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


def check_case_lines(max_rank):
    """Every ``match_case`` result on ``_classical(max_rank)`` equals its
    recorded line in ``CASE_GOLDEN``.  Returns the names seen and the
    recorded lines not compared."""
    with gzip.open(CASE_GOLDEN, "rt", encoding="utf-8") as fh:
        golden = {tuple(line.split("\t")[:2]): line for line in fh.read().splitlines()}
    seen = set()
    for d in _classical(max_rank):
        for J in _nonempty_proper(d):
            m = match_case(d, J)
            line = _case_line(d, J, m)
            assert line == golden.pop(tuple(line.split("\t")[:2]), None), (d.spec, sorted(J))
            if m is not None:
                seen.add(m.name)
    return seen, golden


def test_case_names_are_closed():
    """Every result on the classical diagrams to rank 10 equals its recorded
    line and no line is left over, every name is a pair of end states, and
    all fifteen pairs of ``CASE_FORMS`` occur."""
    seen, unread = check_case_lines(10)
    assert not unread
    states = reductions._END
    assert seen <= {f"{a} / {b}" for a in states for b in states}
    assert set(CASE_FORMS) <= seen


@pytest.mark.parametrize("spec, J", [("B6", {0, 2, 3, 4, 5, 6}), ("D8", {0, 2, 3, 4, 5, 6, 7})])
def test_cases_need_distinct_boundary_runs(monkeypatch, spec, J):
    """A member of Z whose one boundary run holds nodes of both spine ends
    is refused by the run step itself, before the counting identities (which
    refuse it too) are read."""
    d, J = build_spec(spec), frozenset(J)
    assert in_Z(d, J)
    outer = runs_of(d, J)[1]
    assert outer == [J]
    assert all(J & set(end.nodes) for end in d.ends)

    def unread(*args):
        raise AssertionError("the counting identities were read")

    monkeypatch.setattr(reductions, "zero_set_data", unread)
    assert match_case(d, J) is None


def test_match_case_checks_and_splits_j_at_most_twice(monkeypatch):
    """``match_case`` validates J into a mask, and splits it into
    components, at most twice per call."""
    counts = Counter()

    def counted(name):
        real = getattr(Diagram, name)

        def call(self, arg):
            counts[name] += 1
            return real(self, arg)
        return call

    for name in ("mask_of", "components"):
        monkeypatch.setattr(Diagram, name, counted(name))
    worst = Counter()
    for d in _classical(8):
        for J in _nonempty_proper(d):
            counts.clear()
            match_case(d, J)
            worst |= counts
    assert worst == {"mask_of": 2, "components": 2}


def _boundary(m):
    """A match's gap count beyond the base gap, and the boundary part of
    (|R_J|, c^J, n, c_J) from its name, its params, ``_END`` and ``_GAP``
    alone, with c^J and c_J in units of c/2."""
    p, (left, right) = m.params, m.name.split(" / ")
    holders = sum(int(state.split()[1]) > 0 for state in (left, right))
    # with no interior run the two ends share one gap, counted once
    extra = (p["gL"] + p["gR"] if p["x"] + p["y"] else p["gL"] + 1) - holders
    ends = zip(reductions._END[left](p["sL"]), reductions._END[right](p["sR"]), reductions._GAP)
    return extra, tuple(a + b + extra * g for a, b, g in ends)


def _f_from_match(d, m):
    """f from a match's name and params, ``_END``, ``_GAP`` and the interior
    label alone."""
    r_b, up_b, n_b, c_b = _boundary(m)[1]
    q, x, y, c = m.params["q"], m.params["x"], m.params["y"], reductions._spine(d)[0]
    r_j = r_b + q * (q - 1) * x + q * (q + 1) * y
    n = n_b + q * x + (q + 1) * y
    # c^J and c_J in units of c/2
    twice_f = c * (up_b + 2 * (x + y)) * r_j - n * c * (c_b + 2 * ((q - 1) * x + q * y))
    assert n == d.n_e and twice_f % 2 == 0, (d.spec, m)
    return twice_f // 2


def check_cases_agree_with_decomposition(max_rank):
    """On every match of ``_classical(max_rank)``, alpha and gamma equal
    GreekData's formulas on the boundary part rebuilt from the params:
    a = c*up_b/2, b = n_b, r_boundary = r_b and c_boundary = c*c_b/2; alpha,
    beta (alpha at q + 1) and gamma are each >= 0, and so is the form they
    give.  Returns the number of matches."""
    matches = 0
    for d in _classical(max_rank):
        c = reductions._spine(d)[0]
        for J in _nonempty_proper(d):
            m = match_case(d, J)
            if m is None:
                continue
            r_b, up_b, b, c_b = _boundary(m)[1]
            assert c * up_b % 2 == c * c_b % 2 == 0, (d.spec, m)
            a, c_boundary = c * up_b // 2, c * c_b // 2
            q, x, y = m.params["q"], m.params["x"], m.params["y"]
            alpha, beta = (c * r_b + a * k * (k - 1) - b * c * (k - 1) - k * c_boundary
                           for k in (q, q + 1))
            gamma = a * r_b - b * c_boundary
            assert (m.alpha, m.gamma) == (alpha, gamma), (d.spec, sorted(J), m)
            assert alpha >= 0 and beta >= 0 and gamma >= 0, (d.spec, sorted(J), m, beta)
            # every matched instance is certified non-negative directly
            assert c * x * y + alpha * x + beta * y + gamma >= 0, (d.spec, sorted(J), m)
            matches += 1
    return matches


def test_cases_agree_with_decomposition():
    assert check_cases_agree_with_decomposition(9) == 1_821


def check_end_table_coverage(max_rank):
    """Every nonempty member of Z on the classical diagrams to ``max_rank`` is
    matched, unless its diagram has two nodes or one boundary run holds
    nodes of both spine ends; on every match f from the params and the end
    table is ``f_value``, and a base-gap match of a ``CASE_FORMS`` pair has
    that pair's closed-form alpha and gamma.  Returns how many matched
    members have an interior run, how many do not, and how many are
    unmatched."""
    counts = Counter()
    for d in _classical(max_rank):
        for J in _nonempty_proper(d):
            if not in_Z(d, J):
                continue
            inner, outer = runs_of(d, J)
            m = match_case(d, J)
            if len(d.nodes) == 2 or any(all(run & set(end.nodes) for end in d.ends) for run in outer):
                assert m is None, (d.spec, sorted(J))
                counts["unmatched"] += 1
                continue
            assert m is not None, (d.spec, sorted(J))
            assert _f_from_match(d, m) == f_value(d, J), (d.spec, sorted(J), m)
            if m.name in CASE_FORMS and not _boundary(m)[0]:
                form = CASE_FORMS[m.name](m.params["sL"], m.params["q"], m.params["sR"])
                assert (m.alpha, m.gamma) == form, (d.spec, m)
            counts["inner" if inner else "no inner"] += 1
    return counts["inner"], counts["no inner"], counts["unmatched"]


def test_end_table_covers_z_to_rank_12():
    """Every nonempty member of Z with an interior run is matched on
    ``_classical(12)``, and the unmatched members are exactly the two-node
    zero sets and those with one run holding both ends."""
    assert check_end_table_coverage(12) == (5_366, 975, 104)


def test_every_equality_zero_set_is_matched():
    """Every nonempty zero set with f = 0 on ``_classical(12)`` is in Z and
    is matched, apart from the two-node base case 2A2 {1}; 14 of them are
    split forks."""
    found = []
    for d in _classical(12):
        r, c = subset_tables(d)
        for mask, (r_j, c_j) in enumerate(zip(r, c)):
            if mask and (d.label_sum - c_j) * r_j == d.n_e * c_j:
                J = frozenset(nodes_of(mask))
                assert in_Z(d, J), (d.spec, sorted(J))
                found.append((d.spec, sorted(J), match_case(d, J)))
    assert len(found) == 94
    assert [(spec, J) for spec, J, m in found if m is None] == [("2A2", [1])]
    assert sum("split" in m.name for _, _, m in found if m) == 14


def test_2a3_and_2d3_are_one_graph():
    """2A3 is built as the 2D3 graph, so it has the same spine ends, the
    same case on every zero set and the same predicted classes."""
    a, d = build_spec("2A3"), build_spec("2D3")
    assert (a.labels, a.bonds, a.ends) == (d.labels, d.bonds, d.ends)
    matched = 0
    for J in _nonempty_proper(a):
        assert match_case(a, J) == match_case(d, J), sorted(J)
        matched += match_case(a, J) is not None
    assert matched == 4
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
