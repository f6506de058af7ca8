"""Data that tests in more than one module share, built once per test run."""

from __future__ import annotations

import itertools

import pytest

from kacscope.affine import build, catalog
from kacscope.reductions import greek_decomposition, reduce_to_z


@pytest.fixture(scope="session")
def rank10_sweep():
    """The ``reduce-sweep`` benchmark's work on freshly built diagrams (fresh,
    so that no other test's contractions or components are counted):
    ``reduce_to_z`` and ``greek_decomposition`` of its final state for every
    nonempty proper J of each acyclic classical diagram to rank 10.

    Returns ``(parent, key, child)`` for every child that ``contract``
    memoised, found by walking each graph's ``_contractions``, the number
    of contractions the traces made, and each trace's final graph and J."""
    named = [build.__wrapped__(d.ident) for d in catalog(10)
             if not d.cyclic and d.ident.family in "ABCD" and d.e in (1, 2)]
    contractions, finals = 0, []
    for d in named:
        for size in range(1, len(d.nodes)):
            for J in map(frozenset, itertools.combinations(d.nodes, size)):
                trace = reduce_to_z(d, J)
                greek_decomposition(trace.final_graph, trace.final_J)
                contractions += sum(step.kind == "contract" for step in trace.steps)
                finals.append((trace.final_graph, trace.final_J))
    found, todo = [], list(named)
    while todo:
        parent = todo.pop()
        for key, child in parent._contractions.items():
            found.append((parent, key, child))
            todo.append(child)
    return found, contractions, finals
