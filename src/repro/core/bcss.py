"""BCSS: basic cut-set stratified sampling (paper §V-B, Algorithm 3).

Improves focal sampling by *stratifying* the complement of the all-fail
stratum: stratum ``i`` fixes the first existing cut-set edge to be edge
``i`` (Table III).  The budget is allocated by the conditional probabilities
``pi^cd`` of Eq. (21) and the strata recombined with the unconditional
``pi^c`` of Eq. (17), plus the analytic ``pi_0 u_0`` term (Eq. 19).
Unbiased (Theorem 5.4); variance no larger than FS (Theorem 5.5), and no
larger than BSS-II when ``r = |C|`` (Theorem 5.6).
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
    pair_of,
    sample_mean_pair,
)
from repro.core.focal import require_cut_set
from repro.core.result import WorldCounter
from repro.core.stratify import cutset_strata, cutset_stratum_statuses
from repro.graph.statuses import ABSENT, EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query
from repro.rng import StratumRng, child_rng


class BCSS(Estimator):
    """Basic cut-set stratified sampling estimator.

    Parameters
    ----------
    allocation:
        ``"ceil"`` (paper, Algorithm 3 line 6) or ``"exact"``.
    """

    name = "BCSS"

    def __init__(self, allocation: str = "ceil") -> None:
        self.allocation = validate_estimator_allocation(allocation)

    def _estimate_pair(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        cut_query = require_cut_set(query)
        state = cut_query.cut_initial_state(graph)
        cut = cut_query.cut_set(graph, statuses, state)
        if cut.size == 0:
            return pair_of(query, cut_query.cut_constant(graph, statuses, state))
        pi0, pis, pcds = cutset_strata(graph.prob[cut])
        child0 = statuses.child(cut, np.full(cut.size, ABSENT, dtype=np.int8))
        u0 = cut_query.cut_constant(graph, child0, state)
        num, den = pair_of(query, u0)
        node = PlanNode((num * pi0, den * pi0))
        allocations = estimator_allocation(self.allocation, pcds, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, pi0=pi0, allocations=allocations,
            alloc_weights=pcds, n_samples=n_samples,
        )
        trc = _telemetry.split(
            counter, rng, pis=pis, pi0=pi0, allocations=allocations,
            n_samples=n_samples,
        )
        for i, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            k = i + 1
            child = statuses.child(cut[:k], cutset_stratum_statuses(k))
            _telemetry.enter_child(counter, trc, i, pi)
            node.add(pi, sample_mean_pair(
                graph, query, child, int(n_i), child_rng(rng, i), counter
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
        cut_query = require_cut_set(query)
        cut_state = cut_query.cut_initial_state(graph)
        cut = cut_query.cut_set(graph, statuses, cut_state)
        if cut.size == 0:
            return NodeExpansion(
                pair_of(query, cut_query.cut_constant(graph, statuses, cut_state)),
                (0.0, 0.0),
                [],
            )
        pi0, pis, pcds = cutset_strata(graph.prob[cut])
        child0 = statuses.child(cut, np.full(cut.size, ABSENT, dtype=np.int8))
        u0 = cut_query.cut_constant(graph, child0, cut_state)
        base_num, base_den = pair_of(query, u0)
        base_num *= pi0
        base_den *= pi0
        allocations = estimator_allocation(self.allocation, pcds, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, pi0=pi0, allocations=allocations,
            alloc_weights=pcds, n_samples=n_samples,
        )
        _telemetry.split(
            counter, rng, pis=pis, pi0=pi0, allocations=allocations,
            n_samples=n_samples,
        )
        children = []
        for i, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            k = i + 1
            child = statuses.child(cut[:k], cutset_stratum_statuses(k))
            children.append(
                ChildJob(float(pi), child.values, None, int(n_i), i, kind="mc")
            )
        return NodeExpansion((base_num, base_den), (0.0, 0.0), children)


__all__ = ["BCSS"]
