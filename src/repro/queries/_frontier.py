"""Shared frontier-style answer-set bookkeeping for cut-set queries.

All of the paper's worked applications maintain an answer set ``S`` of nodes
already known reachable from the query anchor through *determined-present*
edges; the cut-set is then the free edges leaving ``S`` (§V-E: ``C =
(U_{v in S} O_v) ∩ E_2``).  When every edge of ``C`` fails, the reachable
set is pinned to exactly ``S``, making the query value a computable constant
— this is what makes the construction a valid cut-set in the sense of
Definition 5.1.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.graph.statuses import FREE, PRESENT, EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.utils.arrays import gather_ranges

#: Answer sets of at most this many nodes gather their arcs slice by slice.
_SLICED_NODES = 32


def determined_reachable(
    graph: UncertainGraph,
    statuses: EdgeStatuses,
    sources: Union[int, Sequence[int]],
) -> np.ndarray:
    """Per-node mask of the answer set ``S``: reachable via PRESENT edges only.

    ``S`` grows only along PRESENT-pinned edges, and a recursion node
    usually pins a few dozen of those, so ``S`` is the fixpoint of marking
    the heads of pinned arcs whose tails are marked — one pass over those
    arcs per step of ``S``'s depth instead of a traversal of the whole graph.
    """
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[np.asarray(sources, dtype=np.int64)] = True
    pinned = np.flatnonzero(statuses.values == PRESENT)
    tails = graph.src[pinned]
    heads = graph.dst[pinned]
    if not graph.directed:
        tails, heads = np.concatenate((tails, heads)), np.concatenate((heads, tails))
    while True:
        fresh = heads[visited[tails] & ~visited[heads]]
        if fresh.size == 0:
            return visited
        visited[fresh] = True


def frontier_cut_set(
    graph: UncertainGraph,
    statuses: EdgeStatuses,
    sources: Union[int, Sequence[int]],
) -> np.ndarray:
    """Free edges leaving the answer set, in ascending node then CSR arc order.

    The order indexes the strata of Eq. (17); any fixed order is valid, and
    walking ``S``'s nodes by ascending id and each node's arcs in CSR order
    keeps it deterministic for a given graph and assignment.  An undirected
    edge with both ends in ``S`` shows up twice and is kept at its first
    arc; a directed edge has exactly one arc, so nothing repeats.
    """
    visited = determined_reachable(graph, statuses, sources)
    nodes = np.flatnonzero(visited)
    if nodes.size == 0:
        return np.empty(0, dtype=np.int64)
    adj = graph.adjacency
    if nodes.size <= _SLICED_NODES:
        # A stratum tree's answer sets hold a handful of nodes; concatenating
        # their CSR slices skips the range gather's ~12 µs fixed cost, which
        # adds up over the hundreds of recursion nodes of an RCSS call.
        indptr = adj.as_lists()[0]
        edges = np.concatenate(
            [adj.arc_edge[indptr[u] : indptr[u + 1]] for u in nodes.tolist()]
        )
    else:
        edges = adj.arc_edge[gather_ranges(adj.indptr[nodes], adj.indptr[nodes + 1])]
    edges = edges[statuses.values[edges] == FREE]
    if edges.size == 0 or graph.directed:
        return edges
    _, first_idx = np.unique(edges, return_index=True)
    return edges[np.sort(first_idx)]


def node_cut_set(
    graph: UncertainGraph,
    statuses: EdgeStatuses,
    node: int,
) -> np.ndarray:
    """Free edges leaving a single node (paper's distance-query answer set)."""
    adj = graph.adjacency
    edges = adj.arc_edge[adj.indptr[node] : adj.indptr[node + 1]]
    edges = edges[statuses.values[edges] == FREE]
    if edges.size == 0:
        return edges.astype(np.int64)
    _, first_idx = np.unique(edges, return_index=True)
    return edges[np.sort(first_idx)]


__all__ = ["determined_reachable", "frontier_cut_set", "node_cut_set"]
