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
from repro.graph.statuses import EdgeStatuses
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
    ``(n_worlds, m)``.
    """
    if n_worlds < 0:
        raise EstimatorError("n_worlds must be non-negative")
    gen = resolve_rng(rng)
    graph = statuses.graph
    free = statuses.free_edges()
    base = statuses.present_mask()
    masks = np.broadcast_to(base, (n_worlds, graph.n_edges)).copy()
    if free.size and n_worlds:
        draws = gen.random((n_worlds, free.size))
        masks[:, free] = draws < graph.prob[free]
    return masks


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
    identical to :func:`iter_edge_masks` for the same arguments.
    """
    if chunk_budget is None:
        chunk_budget = _DEFAULT_CHUNK_BUDGET
    gen = resolve_rng(rng)
    graph = statuses.graph
    free = statuses.free_edges()
    base = statuses.present_mask()
    per_world = max(int(free.size), 1)
    chunk = max(1, min(n_worlds, chunk_budget // per_world))
    produced = 0
    probs = graph.prob[free]
    all_free = free.size == graph.n_edges
    while produced < n_worlds:
        take = min(chunk, n_worlds - produced)
        if all_free:
            # No pinned edges (free is 0..m-1 in order): draw the block
            # directly instead of scattering into a copied base — the draw
            # shape matches the general path, so the random stream does too.
            block = gen.random((take, graph.n_edges)) < probs
        else:
            block = np.broadcast_to(base, (take, graph.n_edges)).copy()
            if free.size:
                block[:, free] = gen.random((take, free.size)) < probs
        yield block
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
