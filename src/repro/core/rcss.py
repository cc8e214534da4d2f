"""RCSS: recursive cut-set stratified sampling (paper §V-C, Algorithm 4).

The best estimator in every experiment of the paper.  Each recursion asks
the query for a fresh cut-set relative to the current partial assignment
(driven by an evolving *answer set* — paper §V-E), pins its all-fail stratum
analytically, and recurses inside each "first existing cut edge" stratum
with budget ``N_i = ⌈pi_i^cd N⌉``.  Recursion ends when the budget drops
below ``tau_samples``, when fewer than ``tau_edges`` free edges remain, or
when the cut-set is empty — at which point plain Monte-Carlo finishes
(Algorithm 4 lines 4–9).
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
    pair_of,
    residual_mixture_pair,
    sample_mean_pair,
)
from repro.core.focal import require_cut_set
from repro.core.result import WorldCounter
from repro.core.stratify import cutset_strata, cutset_stratum_statuses
from repro.graph.statuses import ABSENT, EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import CutSetQuery, Query
from repro.rng import StratumRng, child_rng
from repro.utils.validation import check_positive_int


class RCSS(Estimator):
    """Recursive cut-set stratified sampling estimator.

    Parameters
    ----------
    tau_samples:
        Stop recursing when the local budget falls below this (paper
        ``tau_1 = 10``).
    tau_edges:
        Stop recursing when fewer free edges than this remain (paper
        ``tau_2 = 10``).
    allocation:
        ``"ceil"`` (paper) or ``"exact"``.
    budget_policy:
        ``"guard"`` (default) / ``"pool"`` / ``"literal"``; see
        :class:`~repro.core.rss1.RSS1`.  Cut-sets grow with the answer-set
        frontier, so the literal Algorithm 4 evaluates up to ``|C|`` worlds
        per recursion node regardless of its budget.
    """

    name = "RCSS"

    def __init__(
        self,
        tau_samples: int = 10,
        tau_edges: int = 10,
        allocation: str = "ceil",
        budget_policy: str = "guard",
    ) -> None:
        check_positive_int(tau_samples, "tau_samples")
        check_positive_int(tau_edges, "tau_edges")
        self.tau_samples = int(tau_samples)
        self.tau_edges = int(tau_edges)
        self.allocation = validate_estimator_allocation(allocation)
        self.budget_policy = validate_budget_policy(budget_policy)

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
        return self._recurse(graph, cut_query, statuses, state, n_samples, rng, counter)

    def _initial_state(self, graph: UncertainGraph, query: Query) -> Any:
        return require_cut_set(query).cut_initial_state(graph)

    def _run_subtree(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        state: Any,
        n_samples: int,
        rng,
        counter: WorldCounter,
    ) -> Plan:
        # Resume mid-recursion with the answer-set state the decomposition
        # recorded, instead of rebuilding the root state.
        return self._recurse(
            graph, require_cut_set(query), statuses, state, n_samples, rng, counter
        )

    def _recurse(
        self,
        graph: UncertainGraph,
        query: CutSetQuery,
        statuses: EdgeStatuses,
        state: Any,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        cut = query.cut_set(graph, statuses, state)
        if cut.size == 0 and query.exact_when_cut_empty:
            # An empty cut-set pins the value (Definition 5.1 with C = {}):
            # return the constant exactly instead of burning samples on it.
            return pair_of(query, query.cut_constant(graph, statuses, state))
        if statuses.n_free == 0:
            return query.evaluate_pair(graph, statuses.present_mask())
        stop = (
            n_samples < self.tau_samples
            or statuses.n_free < self.tau_edges
            or cut.size == 0
        )
        if self.budget_policy == "guard" and n_samples < cut.size:
            stop = True
        if stop:
            return sample_mean_pair(graph, query, statuses, n_samples, rng, counter)
        pi0, pis, pcds = cutset_strata(graph.prob[cut])
        child0 = statuses.child(cut, np.full(cut.size, ABSENT, dtype=np.int8))
        u0 = query.cut_constant(graph, child0, state)
        num, den = pair_of(query, u0)
        node = PlanNode((num * pi0, den * pi0))

        def child_for(index: int) -> EdgeStatuses:
            k = index + 1
            return statuses.child(cut[:k], cutset_stratum_statuses(k))

        if self.budget_policy == "pool":
            plan = plan_allocation(pcds, n_samples)
            allocations = plan.stratum_alloc
        else:
            plan = None
            allocations = estimator_allocation(self.allocation, pcds, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, pi0=pi0, n_samples=n_samples, plan=plan,
            allocations=None if plan is not None else allocations,
            alloc_weights=pcds,
        )
        trc = _telemetry.split(
            counter, rng, pis=pis, pi0=pi0, allocations=allocations,
            n_samples=n_samples,
        )
        for i, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            child_state = query.cut_advance(graph, state, int(cut[i]))
            _telemetry.enter_child(counter, trc, i, pi)
            node.add(pi, self._recurse(
                graph, query, child_for(i), child_state, int(n_i),
                child_rng(rng, i), counter,
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
        # Mirrors one node of _recurse exactly: same cut, same guards, same
        # analytic pi_0 u_0 term, same residual pooling — only the per-child
        # recursions are emitted as jobs instead of being descended into.
        cut_query = require_cut_set(query)
        cut = cut_query.cut_set(graph, statuses, state)
        if cut.size == 0 and cut_query.exact_when_cut_empty:
            return NodeExpansion(
                pair_of(query, cut_query.cut_constant(graph, statuses, state)),
                (0.0, 0.0),
                [],
            )
        if statuses.n_free == 0:
            return NodeExpansion(
                query.evaluate_pair(graph, statuses.present_mask()), (0.0, 0.0), []
            )
        stop = (
            n_samples < self.tau_samples
            or statuses.n_free < self.tau_edges
            or cut.size == 0
        )
        if self.budget_policy == "guard" and n_samples < cut.size:
            stop = True
        if stop:
            return None
        pi0, pis, pcds = cutset_strata(graph.prob[cut])
        child0 = statuses.child(cut, np.full(cut.size, ABSENT, dtype=np.int8))
        u0 = cut_query.cut_constant(graph, child0, state)
        base_num, base_den = pair_of(query, u0)
        base_num *= pi0
        base_den *= pi0

        def child_for(index: int) -> EdgeStatuses:
            k = index + 1
            return statuses.child(cut[:k], cutset_stratum_statuses(k))

        if self.budget_policy == "pool":
            plan = plan_allocation(pcds, n_samples)
            allocations = plan.stratum_alloc
        else:
            plan = None
            allocations = estimator_allocation(self.allocation, pcds, n_samples, rng)
        _audit.check_split(
            self.name, rng, pis=pis, pi0=pi0, n_samples=n_samples, plan=plan,
            allocations=None if plan is not None else allocations,
            alloc_weights=pcds,
        )
        _telemetry.split(
            counter, rng, pis=pis, pi0=pi0, allocations=allocations,
            n_samples=n_samples,
        )
        children = []
        for i, (pi, n_i) in enumerate(zip(pis, allocations)):
            if pi <= 0.0 or n_i <= 0:
                continue
            child_state = cut_query.cut_advance(graph, state, int(cut[i]))
            children.append(
                ChildJob(float(pi), child_for(i).values, child_state, int(n_i), i)
            )
        tail = (0.0, 0.0)
        if plan is not None and plan.residual_n:
            res_num, res_den = residual_mixture_pair(
                graph, query, child_for, pis, plan.residual, plan.residual_n,
                rng, counter,
            )
            weight = float(pis[plan.residual].sum())
            tail = (weight * res_num, weight * res_den)
        return NodeExpansion((base_num, base_den), tail, children)


__all__ = ["RCSS"]
