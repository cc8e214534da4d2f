"""BSS-II: basic class-II stratified sampling (paper §IV-A).

The class-II stratification (Table II) splits the space into only ``r + 1``
strata for ``r`` selected edges — stratum 0 fails them all; stratum ``i``
fails the first ``i - 1`` and fixes edge ``i`` present, leaving the rest
free — so ``r`` can be large (the paper uses 50 or even 100).  Unbiased
(Theorem 4.2), variance no larger than NMC under proportional allocation
(Theorem 4.3).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro import audit as _audit
from repro import telemetry as _telemetry
from repro.core.allocation import estimator_allocation, validate_estimator_allocation
from repro.core.base import (
    ChildJob,
    Estimator,
    NodeExpansion,
    Plan,
    PlanNode,
    sample_mean_pair,
)
from repro.core.result import WorldCounter
from repro.core.selection import EdgeSelection, RandomSelection
from repro.core.stratify import class2_strata, class2_stratum_statuses
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query
from repro.rng import StratumRng, child_rng
from repro.utils.validation import check_positive_int


class BSS2(Estimator):
    """Basic class-II stratified sampling estimator.

    Parameters
    ----------
    r:
        Number of stratification edges (``r + 1`` strata); paper default 50.
    selection, allocation:
        As in :class:`~repro.core.bss1.BSS1`.
    """

    def __init__(
        self,
        r: int = 50,
        selection: Optional[EdgeSelection] = None,
        allocation: str = "ceil",
    ) -> None:
        check_positive_int(r, "r")
        self.r = int(r)
        self.selection = selection if selection is not None else RandomSelection()
        self.allocation = validate_estimator_allocation(allocation)

    @property
    def name(self) -> str:  # noqa: D102
        return f"BSSII{self.selection.code}"

    def _estimate_pair(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        r = min(self.r, statuses.n_free)
        if r == 0:
            return sample_mean_pair(graph, query, statuses, n_samples, rng, counter)
        edges = self.selection.select(graph, query, statuses, r, rng)
        pin_counts, pis = class2_strata(graph.prob[edges])
        allocations = estimator_allocation(self.allocation, pis, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, allocations=allocations,
            n_samples=n_samples, edges=edges,
            selection_sorted=self.selection.sorted_output,
            n_edges=graph.n_edges,
        )
        trc = _telemetry.split(
            counter, rng, pis=pis, allocations=allocations, n_samples=n_samples
        )
        node = PlanNode()
        for stratum, (pins, pi, n_i) in enumerate(zip(pin_counts, pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            pinned = class2_stratum_statuses(stratum, r)
            child = statuses.child(edges[: pins], pinned)
            _telemetry.enter_child(counter, trc, stratum, pi)
            node.add(pi, sample_mean_pair(
                graph, query, child, int(n_i), child_rng(rng, stratum), counter
            ))
            _telemetry.exit_child(counter, trc)
        return node

    def _expand_node(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        state: Any,
        n_samples: int,
        rng: StratumRng,
        counter: WorldCounter,
    ) -> Optional[NodeExpansion]:
        r = min(self.r, statuses.n_free)
        if r == 0:
            return None
        edges = self.selection.select(graph, query, statuses, r, rng)
        pin_counts, pis = class2_strata(graph.prob[edges])
        allocations = estimator_allocation(self.allocation, pis, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, allocations=allocations,
            n_samples=n_samples, edges=edges,
            selection_sorted=self.selection.sorted_output,
            n_edges=graph.n_edges,
        )
        _telemetry.split(
            counter, rng, pis=pis, allocations=allocations, n_samples=n_samples
        )
        children = []
        for stratum, (pins, pi, n_i) in enumerate(zip(pin_counts, pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            pinned = class2_stratum_statuses(stratum, r)
            child = statuses.child(edges[: int(pins)], pinned)
            children.append(
                ChildJob(float(pi), child.values, None, int(n_i), stratum, kind="mc")
            )
        return NodeExpansion((0.0, 0.0), (0.0, 0.0), children)


__all__ = ["BSS2"]
