"""RSS-II: recursive class-II stratified sampling (paper §IV-B).

BSS-II used as a recursive building block: each recursion stratifies ``r``
fresh free edges into ``r + 1`` strata, allocates ``N_i = ⌈pi_i' N⌉`` and
recurses inside each stratum until the budget or the free edges run out.
Note that stratum ``i`` pins only ``i`` edges (stratum 0 pins all ``r``), so
children see different numbers of remaining free edges.  Unbiased, variance
no larger than BSS-II.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro import audit as _audit
from repro import telemetry as _telemetry
from repro.core.allocation import (
    estimator_allocation,
    plan_allocation,
    validate_estimator_allocation,
    validate_budget_policy,
)
from repro.core.base import (
    ChildJob,
    Estimator,
    NodeExpansion,
    Plan,
    PlanNode,
    residual_mixture_pair,
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


class RSS2(Estimator):
    """Recursive class-II stratified sampling estimator.

    Parameters
    ----------
    r:
        Edges stratified per recursion level (``r + 1`` children); paper
        default 50.
    tau:
        Recursion stops when the local budget falls below ``tau`` (paper
        default 10).
    selection, allocation:
        As in :class:`~repro.core.bss1.BSS1`.
    budget_policy:
        ``"guard"`` (default) / ``"pool"`` / ``"literal"``; see
        :class:`~repro.core.rss1.RSS1`.  Under ``"literal"``, ``r = 50``
        with ``tau = 10`` evaluates up to ``r + 1`` worlds at *every* node
        with a double-digit budget, multiplying the nominal sample size
        several-fold.
    """

    def __init__(
        self,
        r: int = 50,
        tau: int = 10,
        selection: Optional[EdgeSelection] = None,
        allocation: str = "ceil",
        budget_policy: str = "guard",
    ) -> None:
        check_positive_int(r, "r")
        check_positive_int(tau, "tau")
        self.r = int(r)
        self.tau = int(tau)
        self.selection = selection if selection is not None else RandomSelection()
        self.allocation = validate_estimator_allocation(allocation)
        self.budget_policy = validate_budget_policy(budget_policy)

    @property
    def name(self) -> str:  # noqa: D102
        return f"RSSII{self.selection.code}"

    def _should_stop(self, statuses: EdgeStatuses, n_samples: int) -> bool:
        if n_samples < self.tau or statuses.n_free < self.r:
            return True
        return (
            self.budget_policy == "guard"
            and n_samples < min(self.r, statuses.n_free) + 1
        )

    def _split(self, graph, query, statuses, n_samples, rng, counter):
        """One recursion node's class-II stratification (one selection draw)."""
        edges = self.selection.select(graph, query, statuses, self.r, rng)
        pin_counts, pis = class2_strata(graph.prob[edges])

        def child_for(stratum: int) -> EdgeStatuses:
            pins = int(pin_counts[stratum])
            pinned = class2_stratum_statuses(stratum, pins if stratum == 0 else stratum)
            return statuses.child(edges[:pins], pinned)

        if self.budget_policy == "pool":
            plan = plan_allocation(pis, n_samples)
            allocations = plan.stratum_alloc
        else:
            plan = None
            allocations = estimator_allocation(self.allocation, pis, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, n_samples=n_samples, plan=plan,
            allocations=None if plan is not None else allocations,
            edges=edges, selection_sorted=self.selection.sorted_output,
            n_edges=graph.n_edges,
        )
        trc = _telemetry.split(
            counter, rng, pis=pis, allocations=allocations, n_samples=n_samples
        )
        return pis, child_for, plan, allocations, trc

    def _estimate_pair(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        if self._should_stop(statuses, n_samples):
            return sample_mean_pair(graph, query, statuses, n_samples, rng, counter)
        pis, child_for, plan, allocations, trc = self._split(
            graph, query, statuses, n_samples, rng, counter
        )
        node = PlanNode()
        for stratum, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            _telemetry.enter_child(counter, trc, stratum, pi)
            node.add(pi, self._estimate_pair(
                graph, query, child_for(stratum), int(n_i),
                child_rng(rng, stratum), counter,
            ))
            _telemetry.exit_child(counter, trc)
        if plan is not None and plan.residual_n:
            node.add(float(pis[plan.residual].sum()), residual_mixture_pair(
                graph, query, child_for, pis, plan.residual, plan.residual_n,
                rng, counter,
            ))
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
        if self._should_stop(statuses, n_samples):
            return None
        pis, child_for, plan, allocations, _ = self._split(
            graph, query, statuses, n_samples, rng, counter
        )
        children = [
            ChildJob(float(pi), child_for(stratum).values, None, int(n_i), stratum)
            for stratum, (pi, n_i) in enumerate(zip(pis, allocations))
            if pi > 0.0 and n_i > 0
        ]
        tail = (0.0, 0.0)
        if plan is not None and plan.residual_n:
            res_num, res_den = residual_mixture_pair(
                graph, query, child_for, pis, plan.residual, plan.residual_n,
                rng, counter,
            )
            weight = float(pis[plan.residual].sum())
            tail = (weight * res_num, weight * res_den)
        return NodeExpansion((0.0, 0.0), tail, children)


__all__ = ["RSS2"]
