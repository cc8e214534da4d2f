"""Answer sets and frontier cut-sets on arbitrary partial assignments.

``determined_reachable`` derives the answer set ``S`` from the PRESENT-pinned
edges alone; these properties hold it, and the cut-set built on it, to the
plain definition: a BFS of the whole graph restricted to PRESENT edges, then
the free arcs leaving ``S`` by ascending node id and CSR arc order, each
edge kept at its first arc.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.statuses import FREE, EdgeStatuses
from repro.queries._frontier import determined_reachable, frontier_cut_set
from repro.queries.traversal import reachable_mask


def _reference_cut_set(graph, statuses, sources):
    visited = reachable_mask(graph, statuses.present_mask(), sources)
    edges = []
    adj = graph.adjacency
    for node in np.flatnonzero(visited):
        for arc in range(adj.indptr[node], adj.indptr[node + 1]):
            edge = int(adj.arc_edge[arc])
            if statuses.values[edge] == FREE and edge not in edges:
                edges.append(edge)
    return np.asarray(edges, dtype=np.int64)


def _case(seed, directed, free_share):
    gen = np.random.default_rng(seed)
    # Up to 80 nodes, so S crosses the sliced/gathered arc paths.
    n = int(gen.integers(2, 80))
    cap = n * (n - 1) // (1 if directed else 2)
    m = int(gen.integers(1, min(cap, 4 * n) + 1))
    graph = erdos_renyi(n, m, rng=gen, directed=directed)
    # Each edge FREE with probability free_share, else PRESENT or ABSENT, so
    # PRESENT edges fall inside and outside S alike.
    values = np.where(
        gen.random(m) < free_share, FREE, gen.integers(0, 2, size=m)
    ).astype(np.int8)
    k = int(gen.integers(1, min(n, 4) + 1))
    sources = gen.choice(n, size=k, replace=False)
    return graph, EdgeStatuses(graph, values), sources


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    directed=st.booleans(),
    free_share=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    single=st.booleans(),
)
def test_answer_set_and_cut_match_bfs_reference(seed, directed, free_share, single):
    graph, statuses, sources = _case(seed, directed, free_share)
    sources = int(sources[0]) if single else sources
    expected = reachable_mask(graph, statuses.present_mask(), sources)
    got = determined_reachable(graph, statuses, sources)
    assert got.dtype == np.bool_
    np.testing.assert_array_equal(got, expected)
    cut = frontier_cut_set(graph, statuses, sources)
    np.testing.assert_array_equal(cut, _reference_cut_set(graph, statuses, sources))
    assert cut.dtype == np.int64


def test_deep_answer_set_on_a_long_pinned_path():
    # One fixpoint pass per step along a pinned path: S is 43 nodes deep.
    for directed in (True, False):
        n = 48
        graph = path_graph(n, prob=0.5, directed=directed)
        values = np.full(graph.n_edges, 1, dtype=np.int8)
        values[n - 5] = FREE
        statuses = EdgeStatuses(graph, values)
        got = determined_reachable(graph, statuses, 0)
        np.testing.assert_array_equal(
            got, reachable_mask(graph, statuses.present_mask(), 0)
        )
        assert got[: n - 4].all() and not got[n - 4 :].any()
        np.testing.assert_array_equal(
            frontier_cut_set(graph, statuses, 0), [n - 5]
        )


def test_undirected_cut_keeps_each_edge_at_its_first_arc():
    # Both ends of edge 0 -- 1 are in S once 1 -- 2 is pinned present from 2.
    from repro.graph.uncertain import UncertainGraph

    graph = UncertainGraph.from_edges(
        4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], directed=False
    )
    statuses = EdgeStatuses(graph).pin([1], [1])
    cut = frontier_cut_set(graph, statuses, [0, 2])
    np.testing.assert_array_equal(cut, [0, 2])
    np.testing.assert_array_equal(cut, _reference_cut_set(graph, statuses, [0, 2]))
