"""BSS-I: basic class-I stratified sampling (paper §III-A, Algorithm 1).

Pick ``r`` edges, enumerate all ``2^r`` status combinations as strata,
allocate the budget proportionally (``N_i = ⌈pi_i N⌉``), sample each stratum
independently, and recombine with the stratum weights (Eq. 8).  Unbiased
(Theorem 3.1) with variance no larger than NMC under proportional allocation
(Theorem 3.2).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro import audit as _audit
from repro import telemetry as _telemetry
from repro.core.allocation import (
    estimator_allocation,
    validate_estimator_allocation,
)
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
from repro.core.stratify import class1_strata
from repro.errors import EstimatorError
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query
from repro.rng import StratumRng, child_rng
from repro.utils.validation import check_positive_int

#: 2^r strata become unmanageable quickly; the paper uses r = 5.
MAX_CLASS1_R = 16


class BSS1(Estimator):
    """Basic class-I stratified sampling estimator.

    Parameters
    ----------
    r:
        Number of stratification edges (``2^r`` strata); paper default 5.
    selection:
        Edge-selection strategy; defaults to RM (random).
    allocation:
        ``"ceil"`` (paper) or ``"exact"`` — see
        :func:`repro.core.allocation.proportional_allocation` — or
        ``"neyman-adaptive"``: proportional ceiling normally, but inside an
        adaptive run's main phase the root split is sized by the pilot
        round's ledger variances (:mod:`repro.adaptive.allocation`).
    """

    def __init__(
        self,
        r: int = 5,
        selection: Optional[EdgeSelection] = None,
        allocation: str = "ceil",
    ) -> None:
        check_positive_int(r, "r")
        if r > MAX_CLASS1_R:
            raise EstimatorError(
                f"class-I stratification is limited to r <= {MAX_CLASS1_R} "
                f"(2^r strata); got r={r}.  Use the class-II estimators for large r."
            )
        self.r = int(r)
        self.selection = selection if selection is not None else RandomSelection()
        self.allocation = validate_estimator_allocation(allocation)

    @property
    def name(self) -> str:  # noqa: D102
        return f"BSSI{self.selection.code}"

    def _allocate(self, pis, n_samples: int, rng) -> np.ndarray:
        """This node's allocation under the configured method."""
        return estimator_allocation(self.allocation, pis, n_samples, rng)

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
        stratum_statuses, pis = class1_strata(graph.prob[edges])
        allocations = self._allocate(pis, n_samples, rng)
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
        for index, (row, pi, n_i) in enumerate(zip(stratum_statuses, pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            child = statuses.child(edges, row)
            _telemetry.enter_child(counter, trc, index, pi)
            node.add(pi, sample_mean_pair(
                graph, query, child, int(n_i), child_rng(rng, index), counter
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
        stratum_statuses, pis = class1_strata(graph.prob[edges])
        allocations = self._allocate(pis, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, allocations=allocations,
            n_samples=n_samples, edges=edges,
            selection_sorted=self.selection.sorted_output,
            n_edges=graph.n_edges,
        )
        _telemetry.split(
            counter, rng, pis=pis, allocations=allocations, n_samples=n_samples
        )
        children = [
            ChildJob(
                float(pi), statuses.child(edges, row).values, None,
                int(n_i), index, kind="mc",
            )
            for index, (row, pi, n_i) in enumerate(
                zip(stratum_statuses, pis, allocations)
            )
            if pi > 0.0 and n_i > 0
        ]
        return NodeExpansion((0.0, 0.0), (0.0, 0.0), children)


__all__ = ["BSS1", "MAX_CLASS1_R"]
