"""Worker side of the parallel engine (process pool and thread pool).

Process pool: each worker is initialised once (:func:`init_worker`) — it
attaches the shared-memory graph arena and keeps the estimator, the query
and the root ``SeedSequence`` in module globals.  Every job then ships only
its partial assignment, local budget and stratum path — a few hundred bytes
plus one ``int8`` status vector.  :func:`run_jobs` is the pool task entry:
one pool task evaluates a whole *batch* of coalesced jobs, so small
subtrees do not each pay the submit/pickle round trip.

Thread pool: :func:`run_jobs_local` evaluates the same batches in-process
against the driver's own graph object — zero-copy sharing with no arena,
no spawn, no pickling.  Audit/trace contexts are installed per *thread*
(:func:`repro.audit.activate_local` / :func:`repro.telemetry.activate_local`)
so worker threads never stomp the driver's process-wide context.

Both sides keep persistent per-worker scratch: the frontier kernels draw
their visited-word buffers from :func:`repro.kernels.visited_scratch`,
which is thread-local and survives across every job a worker (process or
thread) evaluates.

Jobs are self-describing (:class:`Job`): ``kind == "subtree"`` re-enters the
estimator's own recursion via :meth:`Estimator._run_subtree`; ``kind ==
"mc"`` runs plain :func:`~repro.core.base.sample_mean_pair` (the leaves of
the single-level BSS/BCSS stratifications, which must *not* be
re-stratified).  The job's RNG is rebuilt from the root sequence and the
stratum path, so the numbers drawn are identical to what any other process
— or thread, or the sequential path-keyed recursion — would draw for that
subtree.  :func:`evaluate_job` sweeps one job's leaves in its own
:class:`~repro.core.base.LeafBatch`; the inline driver path calls
:func:`plan_job` for all its jobs under one shared batch instead.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import audit as _audit
from repro import telemetry as _telemetry
from repro.core.base import Estimator, LeafBatch, Pair, Plan, fold, sample_mean_pair
from repro.graph import worldsource as _worldsource
from repro.core.result import WorldCounter
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.parallel.arena import ArenaSpec, attach_graph
from repro.queries.base import Query
from repro.rng import StratumRng


class Job(NamedTuple):
    """One unit of parallel work: a recursion subtree or an MC leaf.

    ``weight`` is the job's absolute stratum weight (the product of the
    ``pi`` factors along its path) — bookkeeping only, used to anchor the
    worker's :class:`WorldCounter` and trace spans; never folded into the
    returned pair (the reduction applies the per-level ``pi`` itself).
    """

    kind: str
    values: np.ndarray
    state: Any
    n_samples: int
    path: Tuple[int, ...]
    weight: float = 1.0


def plan_job(
    graph: UncertainGraph,
    estimator: Estimator,
    query: Query,
    root: np.random.SeedSequence,
    job: Job,
    counter: WorldCounter,
) -> Plan:
    """Plan one job under its path-keyed stream; the caller holds the batch."""
    rng = StratumRng(root, job.path)
    statuses = EdgeStatuses(graph, job.values)
    if job.kind == "mc":
        return sample_mean_pair(graph, query, statuses, job.n_samples, rng, counter)
    return estimator._run_subtree(  # noqa: SLF001 - engine-internal hook
        graph, query, statuses, job.state, job.n_samples, rng, counter
    )


def evaluate_job(
    graph: UncertainGraph,
    estimator: Estimator,
    query: Query,
    root: np.random.SeedSequence,
    job: Job,
    counter: WorldCounter,
) -> Pair:
    """Evaluate one job: plan it, sweep its leaves in one batch, fold."""
    with LeafBatch(graph, query):
        plan = plan_job(graph, estimator, query, root, job, counter)
    return fold(plan)


_STATE: Dict[str, Any] = {}


def init_worker(
    spec: ArenaSpec,
    estimator: Estimator,
    query: Query,
    root: np.random.SeedSequence,
    audit_enabled: bool = False,
    trace_enabled: bool = False,
) -> None:
    """Pool initializer: attach the arena, stash the run-wide objects."""
    _STATE["graph"] = attach_graph(spec)
    _STATE["estimator"] = estimator
    _STATE["query"] = query
    _STATE["root"] = root
    _STATE["audit"] = bool(audit_enabled)
    _STATE["trace"] = bool(trace_enabled)


JobResult = Tuple[float, float, int, Dict[str, Any]]


def _run_one(
    graph: UncertainGraph,
    estimator: Estimator,
    query: Query,
    root: np.random.SeedSequence,
    job: Job,
    audit_enabled: bool,
    trace_enabled: bool,
    *,
    thread_local: bool,
    source: Any = None,
) -> JobResult:
    """Evaluate one job under fresh per-job audit/trace contexts.

    ``thread_local`` selects the context installation: process-wide for
    spawn-pool workers (each owns its interpreter), per-thread for
    thread-pool workers (all share the driver's interpreter, whose
    process-wide contexts must stay untouched).  ``source`` is the world
    source the job's leaves pull mask blocks from (thread pool only — a
    cached source never crosses a process boundary).
    """
    counter = WorldCounter(depth=len(job.path), weight=job.weight)
    ctx = _audit.AuditContext(estimator.name) if audit_enabled else None
    tctx = (
        _telemetry.TraceContext(estimator.name, base_path=job.path)
        if trace_enabled
        else None
    )
    audit_install = _audit.activate_local if thread_local else _audit.activate
    trace_install = _telemetry.activate_local if thread_local else _telemetry.activate
    ws_install = (
        _worldsource.activate_local if thread_local else _worldsource.activate
    )
    started = time.perf_counter()
    with audit_install(ctx), trace_install(tctx), ws_install(source):
        num, den = evaluate_job(graph, estimator, query, root, job, counter)
    elapsed = time.perf_counter() - started
    # ``seconds`` ships unconditionally (one perf_counter pair per job, not
    # per world) so the driver can derive pool utilisation for the metrics
    # registry without requiring tracing.
    payload: Dict[str, Any] = {"stats": counter.stats(), "seconds": elapsed}
    if ctx is not None:
        payload["audit"] = ctx.worker_payload()
    if tctx is not None:
        payload["trace"] = tctx.worker_payload(elapsed, job.path)
    return float(num), float(den), counter.worlds, payload


def run_job(job: Job) -> JobResult:
    """Spawn-pool task entry point (single job).

    Returns ``(num, den, worlds_evaluated, payload)``; the payload always
    carries ``"stats"`` (the worker counter's recursion diagnostics for the
    driver to merge) and, when the corresponding layer is on, ``"audit"``
    (per-job check counters and consumed stratum paths — the cross-process
    half of the stream-reuse invariant) and ``"trace"`` (the job's spans,
    convergence events and wall-clock).
    """
    return _run_one(
        _STATE["graph"], _STATE["estimator"], _STATE["query"], _STATE["root"],
        job, bool(_STATE.get("audit")), bool(_STATE.get("trace")),
        thread_local=False,
    )


def run_jobs(jobs: Sequence[Job]) -> List[JobResult]:
    """Spawn-pool task entry point for a coalesced batch of jobs.

    One pool task, one pickle round trip, ``len(jobs)`` job evaluations —
    the fat-task form the driver's ``min_worlds_per_job`` coalescing emits.
    Per-job contexts and payloads are kept separate so the driver absorbs
    each job exactly as if it had been shipped alone.
    """
    return [run_job(job) for job in jobs]


def run_jobs_local(
    graph: UncertainGraph,
    estimator: Estimator,
    query: Query,
    root: np.random.SeedSequence,
    jobs: Sequence[Job],
    audit_enabled: bool,
    trace_enabled: bool,
    source: Any = None,
) -> List[JobResult]:
    """Thread-pool task entry point for a coalesced batch of jobs.

    Runs against the driver's own graph object — zero-copy, no arena —
    with per-thread audit/trace/world-source contexts.  Under the
    ``native`` kernel backend the frontier sweeps release the GIL, so
    several of these run genuinely concurrently.
    """
    return [
        _run_one(
            graph, estimator, query, root, job, audit_enabled, trace_enabled,
            thread_local=True, source=source,
        )
        for job in jobs
    ]


__all__ = [
    "Job",
    "JobResult",
    "evaluate_job",
    "init_worker",
    "plan_job",
    "run_job",
    "run_jobs",
    "run_jobs_local",
]
