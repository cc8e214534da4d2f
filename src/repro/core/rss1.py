"""RSS-I: recursive class-I stratified sampling (paper §III-B, Algorithm 2).

BSS-I applied recursively inside every stratum: each recursion picks ``r``
fresh free edges, splits the local budget ``N_i = ⌈pi_i N⌉`` and recurses
until the budget drops below ``tau`` or fewer than ``r`` free edges remain,
at which point plain Monte-Carlo finishes the job.  Unbiased, with variance
no larger than BSS-I (Theorem 3.3); with ``r = 1`` and random selection this
is exactly the paper's state-of-the-art baseline ``RSSIR1`` (Jin et al.,
PVLDB'11).
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
from repro.core.bss1 import MAX_CLASS1_R
from repro.core.result import WorldCounter
from repro.core.selection import EdgeSelection, RandomSelection
from repro.core.stratify import class1_strata
from repro.errors import EstimatorError
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query
from repro.rng import StratumRng, child_rng
from repro.utils.validation import check_positive_int


class RSS1(Estimator):
    """Recursive class-I stratified sampling estimator.

    Parameters
    ----------
    r:
        Edges stratified per recursion level (``2^r`` children); paper
        default 5.
    tau:
        Recursion stops when the local budget falls below ``tau`` (paper
        default 10).
    selection, allocation:
        As in :class:`~repro.core.bss1.BSS1`.
    budget_policy:
        How the recursion spends its budget at nodes whose budget is
        smaller than the stratum count (``2^r``):

        * ``"guard"`` (default) — do not stratify such nodes; finish them
          with plain Monte Carlo.  Keeps evaluated worlds at ~N (the
          paper's "same complexity as NMC" property) and never exceeds
          NMC's variance at any node.
        * ``"pool"`` — budget-true plan
          (:func:`repro.core.allocation.plan_allocation`): strata worth at
          least one expected sample are allocated individually, the rest
          pooled into one unbiased mixture draw.  Allows deeper recursion
          at exact budget, but integer rounding at tiny node budgets can
          cost variance (quantified in ``benchmarks/test_ablations.py``).
        * ``"literal"`` — Algorithm 2 verbatim: ceiling allocation at
          every node; can evaluate several times N worlds.
    """

    def __init__(
        self,
        r: int = 5,
        tau: int = 10,
        selection: Optional[EdgeSelection] = None,
        allocation: str = "ceil",
        budget_policy: str = "guard",
    ) -> None:
        check_positive_int(r, "r")
        check_positive_int(tau, "tau")
        if r > MAX_CLASS1_R:
            raise EstimatorError(f"class-I stratification is limited to r <= {MAX_CLASS1_R}")
        self.r = int(r)
        self.tau = int(tau)
        self.selection = selection if selection is not None else RandomSelection()
        self.allocation = validate_estimator_allocation(allocation)
        self.budget_policy = validate_budget_policy(budget_policy)

    @property
    def name(self) -> str:  # noqa: D102
        if self.r == 1 and self.selection.code == "R":
            return "RSSIR1"
        return f"RSSI{self.selection.code}"

    def _should_stop(self, statuses: EdgeStatuses, n_samples: int) -> bool:
        if n_samples < self.tau or statuses.n_free < self.r:
            return True
        return self.budget_policy == "guard" and n_samples < 2**self.r

    def _split(self, graph, query, statuses, n_samples, rng, counter):
        """One recursion node's stratification: edges, weights, allocations.

        Consumes exactly one selection draw from ``rng``; shared by the
        sequential recursion and the parallel node expansion so both see
        the same strata.
        """
        edges = self.selection.select(graph, query, statuses, self.r, rng)
        stratum_statuses, pis = class1_strata(graph.prob[edges])

        def child_for(index: int) -> EdgeStatuses:
            return statuses.child(edges, stratum_statuses[index])

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
        for index, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            _telemetry.enter_child(counter, trc, index, pi)
            node.add(pi, self._estimate_pair(
                graph, query, child_for(index), int(n_i), child_rng(rng, index), counter
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
            ChildJob(float(pi), child_for(index).values, None, int(n_i), index)
            for index, (pi, n_i) in enumerate(zip(pis, allocations))
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


__all__ = ["RSS1"]
