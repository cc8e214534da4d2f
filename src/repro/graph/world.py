"""Possible worlds and vectorised world sampling.

A *possible world* (paper §II) is a deterministic graph obtained by flipping
one coin per edge.  The estimators never materialise graph objects per world;
they work with boolean *edge masks* over the parent
:class:`~repro.graph.uncertain.UncertainGraph`'s edge array, which the
traversal kernels apply to arcs lazily.  :class:`PossibleWorld` is a thin
user-facing wrapper for the public API and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import EstimatorError
from repro.graph.statuses import FREE, EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.rng import RngLike, resolve_rng

#: Upper bound on ``n_worlds * n_free`` random floats drawn per chunk.
_DEFAULT_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class PossibleWorld:
    """A single possible world: the parent graph plus an edge-presence mask."""

    graph: UncertainGraph
    edge_mask: np.ndarray

    @property
    def n_present_edges(self) -> int:
        return int(np.count_nonzero(self.edge_mask))

    def probability(self) -> float:
        """Probability of this world under the parent graph (Eq. 1)."""
        return self.graph.world_probability(self.edge_mask)

    def to_networkx(self):
        """Export the realised graph to networkx (edges present only)."""
        import networkx as nx

        out = nx.DiGraph() if self.graph.directed else nx.Graph()
        out.add_nodes_from(range(self.graph.n_nodes))
        keep = np.flatnonzero(self.edge_mask)
        for e in keep:
            out.add_edge(int(self.graph.src[e]), int(self.graph.dst[e]))
        return out


def sample_edge_masks(
    statuses: EdgeStatuses,
    n_worlds: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Sample ``n_worlds`` edge masks consistent with a partial assignment.

    Pinned edges keep their pinned status; free edges flip independent coins
    with their own probability.  Returns a boolean array of shape
    ``(n_worlds, m)``: one block of :func:`iter_mask_blocks` without the
    chunk budget.
    """
    if n_worlds < 0:
        raise EstimatorError("n_worlds must be non-negative")
    return _BlockSampler(statuses).block(resolve_rng(rng), n_worlds)


#: Pinned blocks of at most this many rows scatter their hits row by row.
_ROW_SCATTER_MAX = 6


class _BlockSampler:
    """Builds ``(rows, m)`` world blocks for one partial assignment.

    Every block draws ``gen.random((rows, n_free))`` — one uniform per free
    edge per world, free edges in ascending id order — and sets a free edge
    present where its uniform falls below the edge's probability; pinned
    edges copy their status.  A 2-D fancy scatter of the hits pays tens of
    µs of set-up, which dominates the one- and few-world blocks of a
    stratum tree's leaves, so short blocks scatter one row at a time
    instead (DESIGN.md §5).  Both give the same bits.
    """

    __slots__ = ("m", "base", "free", "probs")

    def __init__(self, statuses: EdgeStatuses) -> None:
        graph = statuses.graph
        self.m = graph.n_edges
        self.base = statuses.present_mask()
        # statuses.free_edges() without np.flatnonzero's Python wrapper,
        # which costs as much as a small block's construction.
        self.free = (statuses.values == FREE).nonzero()[0]
        # All free: the draw lines up with the edge array as it is.
        self.probs = graph.prob if self.free.size == self.m else graph.prob[self.free]

    def block(self, gen: np.random.Generator, rows: int) -> np.ndarray:
        m, free, probs = self.m, self.free, self.probs
        if free.size == m:
            return gen.random((rows, m)) < probs
        block = np.broadcast_to(self.base, (rows, m)).copy()
        if free.size == 0:
            return block
        hits = gen.random((rows, free.size)) < probs
        if rows <= _ROW_SCATTER_MAX:
            for r in range(rows):
                block[r][free] = hits[r]
        else:
            block[:, free] = hits
        return block


def iter_mask_blocks(
    statuses: EdgeStatuses,
    n_worlds: int,
    rng: RngLike = None,
    chunk_budget: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield ``(chunk, m)`` boolean mask blocks covering ``n_worlds`` worlds.

    This is the feed of the batched evaluation engine: estimators hand each
    block straight to :meth:`Query.evaluate_pairs
    <repro.queries.base.Query.evaluate_pairs>` so all worlds of a block are
    traversed in one BFS sweep.  Memory stays bounded by ``chunk_budget``
    floats (default: the module's ``_DEFAULT_CHUNK_BUDGET``, read per call)
    even for huge ``n_worlds`` on large graphs.  The random stream is
    identical to :func:`iter_edge_masks` for the same arguments, and each
    block draws ``gen.random((chunk, n_free))`` in order.
    """
    if n_worlds < 0:
        raise EstimatorError("n_worlds must be non-negative")
    if chunk_budget is None:
        chunk_budget = _DEFAULT_CHUNK_BUDGET
    gen = resolve_rng(rng)
    sampler = _BlockSampler(statuses)
    per_world = max(int(sampler.free.size), 1)
    chunk = max(1, min(n_worlds, chunk_budget // per_world))
    produced = 0
    while produced < n_worlds:
        take = min(chunk, n_worlds - produced)
        yield sampler.block(gen, take)
        produced += take


def iter_edge_masks(
    statuses: EdgeStatuses,
    n_worlds: int,
    rng: RngLike = None,
    chunk_budget: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield edge masks one world at a time, drawing randomness in chunks.

    Thin per-world view over :func:`iter_mask_blocks`; callers that can
    consume whole blocks should use that directly to hit the batched
    traversal kernels.
    """
    for block in iter_mask_blocks(statuses, n_worlds, rng, chunk_budget):
        for i in range(block.shape[0]):
            yield block[i]


def sample_world(
    graph: UncertainGraph,
    rng: RngLike = None,
    statuses: Optional[EdgeStatuses] = None,
) -> PossibleWorld:
    """Sample a single :class:`PossibleWorld` (user-facing convenience)."""
    if statuses is None:
        statuses = EdgeStatuses(graph)
    elif statuses.graph is not graph and statuses.graph.fingerprint() != graph.fingerprint():
        # Identity is the cheap common case; distinct objects with the same
        # content fingerprint (e.g. a zero-copy arena attachment of this very
        # graph) are equally valid — the statuses index into an identical
        # edge array.  Only a genuine content mismatch is a caller bug.
        raise EstimatorError("statuses belong to a different graph")
    mask = sample_edge_masks(statuses, 1, rng)[0]
    return PossibleWorld(graph, mask)


def sample_first_present(
    probs: np.ndarray,
    n_draws: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Sample the index of the first present edge, conditioned on ≥1 present.

    Given edge probabilities ``p_1..p_k``, draws from the distribution
    ``P[i] = p_i * prod_{j<i}(1 - p_j) / (1 - prod_j (1 - p_j))`` — Eq. (21)
    of the paper.  Used by focal sampling to sample directly from the
    complement of the all-fail stratum without rejection.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        raise EstimatorError("cannot sample the first present edge of an empty set")
    fail_prefix = np.concatenate(([1.0], np.cumprod(1.0 - probs[:-1])))
    weights = probs * fail_prefix
    total = weights.sum()
    if total <= 0.0:
        raise EstimatorError("all edges have probability zero; conditioning impossible")
    gen = resolve_rng(rng)
    return gen.choice(probs.size, size=n_draws, p=weights / total)


__all__ = [
    "PossibleWorld",
    "sample_edge_masks",
    "iter_mask_blocks",
    "iter_edge_masks",
    "sample_world",
    "sample_first_present",
]
