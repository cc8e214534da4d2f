"""Partial edge-status assignments.

Stratified sampling works by *pinning* the status of a few edges — present
(``1``), absent (``0``) — while the rest stay undetermined (``*`` in the
paper's stratum tables, :data:`FREE` here).  :class:`EdgeStatuses` is the
mutable little workhorse that every estimator threads through its recursion:
it knows which edges are still free, the probability mass of its pinned
prefix, and how to fork itself cheaply for a child stratum.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.errors import StatusError
from repro.graph.uncertain import UncertainGraph

FREE: int = -1
ABSENT: int = 0
PRESENT: int = 1


class EdgeStatuses:
    """A partial assignment of edge statuses over an uncertain graph.

    Parameters
    ----------
    graph:
        The uncertain graph the statuses refer to.
    values:
        Optional ``int8`` array of length ``m`` with entries in
        ``{FREE, ABSENT, PRESENT}``; defaults to all-free.
    """

    __slots__ = ("graph", "values")

    def __init__(self, graph: UncertainGraph, values: Optional[np.ndarray] = None) -> None:
        self.graph = graph
        if values is None:
            values = np.full(graph.n_edges, FREE, dtype=np.int8)
        else:
            values = np.asarray(values, dtype=np.int8)
            if values.shape != (graph.n_edges,):
                raise StatusError("status vector must have one entry per edge")
            # int8 range check: FREE, ABSENT, PRESENT are consecutive.
            if values.size and not (values.min() >= FREE and values.max() <= PRESENT):
                raise StatusError("statuses must be FREE (-1), ABSENT (0) or PRESENT (1)")
        self.values = values

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def n_free(self) -> int:
        """Number of undetermined edges ``|E2|``."""
        return int(np.count_nonzero(self.values == FREE))

    def free_edges(self) -> np.ndarray:
        """Ids of undetermined edges, ascending."""
        return np.flatnonzero(self.values == FREE)

    def determined_edges(self) -> np.ndarray:
        """Ids of pinned edges ``E1``, ascending."""
        return np.flatnonzero(self.values != FREE)

    def present_mask(self) -> np.ndarray:
        """Boolean mask of edges pinned PRESENT."""
        return self.values == PRESENT

    def is_free(self, edge: int) -> bool:
        return self.values[edge] == FREE

    def signature(self) -> str:
        """Conditioning digest: a stable content key for the pinned statuses.

        ``""`` for the all-free assignment (the unconditioned root stratum —
        the common serving key stays short), otherwise a 16-hex blake2b of
        the status vector.  World-block caches append this to their
        ``(fingerprint, seed, path)`` keys so two estimators at the same
        stratum path with different conditioning can never collide.
        """
        if not np.any(self.values != FREE):
            return ""
        return hashlib.blake2b(self.values.tobytes(), digest_size=8).hexdigest()

    def pinned_probability(self) -> float:
        """Probability that a random world agrees with the pinned statuses.

        The product over pinned edges of ``p_e`` (if PRESENT) or ``1 - p_e``
        (if ABSENT) — the ``pi_i`` factors of Eqs. (7), (12) and (17) compose
        multiplicatively down a recursion via this quantity.
        """
        p = self.graph.prob
        v = self.values
        present = v == PRESENT
        absent = v == ABSENT
        out = 1.0
        if present.any():
            out *= float(np.prod(p[present]))
        if absent.any():
            out *= float(np.prod(1.0 - p[absent]))
        return out

    # ------------------------------------------------------------------ #
    # mutation / forking
    # ------------------------------------------------------------------ #

    def pin(self, edges: Sequence[int], statuses: Sequence[int]) -> "EdgeStatuses":
        """Pin ``edges`` to ``statuses`` in place (edges must be free); returns self."""
        edges = np.asarray(edges, dtype=np.int64)
        statuses = np.asarray(statuses, dtype=np.int8)
        if edges.shape != statuses.shape:
            raise StatusError("edges and statuses must have equal length")
        if edges.size:
            if np.any(self.values[edges] != FREE):
                raise StatusError("cannot re-pin an already-determined edge")
            if not (statuses.min() >= ABSENT and statuses.max() <= PRESENT):
                raise StatusError("pinned statuses must be ABSENT or PRESENT")
            self.values[edges] = statuses
        return self

    def child(self, edges: Sequence[int], statuses: Sequence[int]) -> "EdgeStatuses":
        """Return a copy with ``edges`` additionally pinned to ``statuses``."""
        return self.copy().pin(edges, statuses)

    def copy(self) -> "EdgeStatuses":
        # A copy of a vector that already passed the range check needs none.
        out = EdgeStatuses.__new__(EdgeStatuses)
        out.graph = self.graph
        out.values = self.values.copy()
        return out

    def release(self, edges: Sequence[int]) -> "EdgeStatuses":
        """Un-pin ``edges`` back to FREE in place; returns self."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size:
            self.values[edges] = FREE
        return self

    # ------------------------------------------------------------------ #
    # dunder conveniences
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # noqa: D105
        pinned = self.graph.n_edges - self.n_free
        return f"EdgeStatuses(pinned={pinned}/{self.graph.n_edges})"

    def __eq__(self, other: object) -> bool:  # noqa: D105
        if not isinstance(other, EdgeStatuses):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.values, other.values)


__all__ = ["EdgeStatuses", "FREE", "ABSENT", "PRESENT"]
