"""The naive Monte-Carlo baseline (paper §II).

Draw ``N`` possible worlds from the full distribution, average the query
evaluation function.  Unbiased; variance given by Eq. (5).  Every other
estimator in this package exists to beat its variance at the same cost.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import audit as _audit
from repro.core.base import Estimator, Plan, chunk_budget, sample_mean_pair
from repro.core.result import WorldCounter
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query


class NMC(Estimator):
    """Naive Monte-Carlo estimator ``(1/N) * sum phi_q(G_i)``."""

    name = "NMC"

    def _parallel_chunks(self, n_samples: int) -> Optional[List[int]]:
        # NMC has no stratum tree; under the parallel engine the budget is
        # split into fixed-size chunks (a function of N alone) whose means
        # recombine with weights n_i / N.
        return chunk_budget(n_samples)

    def _estimate_pair(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        before = counter.worlds
        pair = sample_mean_pair(graph, query, statuses, n_samples, rng, counter)
        ctx = _audit.active()
        if ctx is not None:
            ctx.check_world_budget(
                counter.worlds - before, n_samples,
                where=self.name, path=getattr(rng, "path", None),
            )
        return pair


__all__ = ["NMC"]
