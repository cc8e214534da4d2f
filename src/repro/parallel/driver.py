"""Parallel driver: decompose the recursion, fan out, reduce exactly.

:func:`estimate_parallel` is the engine behind
``Estimator.estimate(..., n_workers=...)``.  It walks the top of the
stratified recursion *in the driver process* (largest-budget nodes first,
via :meth:`Estimator._expand_node`) until at least ``tasks_per_worker *
n_workers`` leaf jobs exist, ships the leaves to a spawn-based
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers attach the
shared-memory graph arena, and reduces the returned ``(num, den)`` pairs
bottom-up through the recorded expansion tree.

Two properties make the result bit-identical for every ``n_workers >= 1``:

* every node draws from a stream keyed by its stratum path
  (:class:`~repro.rng.StratumRng`), so *what* a subtree computes is
  independent of where and when it runs, and of how deep the driver chose
  to expand;
* the reduction replays the sequential accumulation order exactly —
  ``head``, then ``pi_i * child_i`` in stratum order, then ``tail`` — so
  expanding a node one level deeper changes no floating-point rounding.
  The expansion tree is made of the recursion's own
  :class:`~repro.core.base.PlanNode` objects and reduced by the same
  :func:`~repro.core.base.fold`.

The decomposition depth (``tasks_per_worker``) therefore affects load
balance only, never the estimate.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import audit as _audit
from repro import kernels as _kernels
from repro import metrics as _metrics
from repro import telemetry as _telemetry
from repro.core.base import Estimator, LeafBatch, Pair, PlanNode, fold
from repro.graph import worldsource as _worldsource
from repro.core.result import EstimateResult, WorldCounter
from repro.errors import EstimatorError
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.parallel.arena import GraphArena
from repro.parallel.worker import (
    Job,
    JobResult,
    init_worker,
    plan_job,
    run_jobs,
    run_jobs_local,
)
from repro.queries.base import Query
from repro.rng import RngLike, StratumRng, root_seed_sequence

#: Recognised execution backends for the worker pool.
POOL_BACKENDS: Tuple[str, ...] = ("auto", "thread", "process")


def resolve_backend(backend: str = "auto") -> str:
    """Resolve an executor backend name to ``"thread"`` or ``"process"``.

    ``"auto"`` picks ``"thread"`` when the active kernel backend is
    ``native`` — the numba kernels release the GIL, so threads scale and
    skip all spawn/pickle cost — and ``"process"`` otherwise (pure-Python
    sweeps hold the GIL, so only processes buy parallelism).
    """
    backend = str(backend).strip().lower()
    if backend not in POOL_BACKENDS:
        raise EstimatorError(
            f"unknown parallel backend {backend!r}; choose from {POOL_BACKENDS}"
        )
    if backend != "auto":
        return backend
    return "thread" if _kernels.active_backend() == "native" else "process"


class _Leaf:
    """A scheduled job; ``node`` is set instead when the leaf got expanded.

    ``result`` is the job's pair — or, on the inline path, its unswept
    plan — and :meth:`pair` folds whichever is set.
    """

    __slots__ = ("job", "result", "node")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.result: Any = None
        self.node: Optional[PlanNode] = None

    def pair(self) -> Pair:
        if self.node is not None:
            return fold(self.node)
        if self.result is None:
            raise EstimatorError("parallel reduction saw an unevaluated job")
        return fold(self.result)


def _decompose(
    estimator: Estimator,
    graph: UncertainGraph,
    query: Query,
    n_samples: int,
    root: np.random.SeedSequence,
    target: int,
    counter: WorldCounter,
) -> Tuple[_Leaf, List[_Leaf]]:
    """Expand the recursion until ``target`` leaf jobs exist.

    Returns the root leaf (head of the reduction tree) and the flat list of
    unexpanded leaves that still need evaluation.  Expansion order is
    largest-budget-first so the slowest subtrees split before small ones;
    thanks to path-keyed streams the order cannot change the estimate.
    """
    root_leaf = _Leaf(
        Job("subtree", EdgeStatuses(graph).values, estimator._initial_state(graph, query),
            n_samples, ())
    )
    heap: List[Tuple[int, int, _Leaf]] = [(-n_samples, 0, root_leaf)]
    settled: List[_Leaf] = []
    seq = 1
    while heap and len(heap) + len(settled) < target:
        _, _, leaf = heapq.heappop(heap)
        job = leaf.job
        # Anchor the shared counter at this node so depth / analytic-mass
        # diagnostics match what the sequential recursion would record.
        counter.rebase(len(job.path), job.weight)
        expansion = estimator._expand_node(  # noqa: SLF001 - engine hook
            graph, query, EdgeStatuses(graph, job.values), job.state,
            job.n_samples, StratumRng(root, job.path), counter,
        )
        if expansion is None:
            settled.append(leaf)
            continue
        ctx = _audit.active()
        if ctx is not None:
            ctx.check_children_order(
                [child.index for child in expansion.children], path=job.path
            )
        node = PlanNode(tuple(expansion.head))
        leaf.node = node
        for child in expansion.children:
            child_job = Job(
                child.kind,
                np.asarray(child.values, dtype=np.int8),
                child.state,
                int(child.n_samples),
                job.path + (int(child.index),),
                job.weight * float(child.pi),
            )
            child_leaf = _Leaf(child_job)
            node.add(float(child.pi), child_leaf)
            if child.kind == "subtree":
                heapq.heappush(heap, (-child_job.n_samples, seq, child_leaf))
                seq += 1
            else:
                # "mc" leaves are terminal by construction: re-expanding
                # them would re-stratify what the parent already stratified.
                settled.append(child_leaf)
        # The tail is already weighted, and ``1.0 * x`` is exactly ``x``.
        node.add(1.0, tuple(expansion.tail))
    settled.extend(entry[2] for entry in heap)
    return root_leaf, settled


def _coalesce(leaves: List[_Leaf], min_worlds_per_job: int) -> List[List[_Leaf]]:
    """Group the scheduled leaves into pool tasks (order-preserving).

    With ``min_worlds_per_job <= 1`` every leaf is its own task (the
    historical one-job-per-subtree shipping).  Otherwise consecutive leaves
    are batched until a task carries at least ``min_worlds_per_job`` worlds
    of budget; an undersized tail is folded into the previous task, so every
    emitted task meets the threshold whenever any does.  Grouping is pure
    packaging — per-job budgets, paths and streams are untouched — which is
    exactly what :meth:`repro.audit.AuditContext.check_coalesce` certifies.
    """
    if min_worlds_per_job <= 1:
        return [[leaf] for leaf in leaves]
    groups: List[List[_Leaf]] = []
    current: List[_Leaf] = []
    budget = 0
    for leaf in leaves:
        current.append(leaf)
        budget += max(1, leaf.job.n_samples)
        if budget >= min_worlds_per_job:
            groups.append(current)
            current = []
            budget = 0
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def _absorb(
    leaf: _Leaf,
    result: JobResult,
    counter: WorldCounter,
    ctx: Optional[_audit.AuditContext],
    tctx: Optional[_telemetry.TraceContext],
) -> float:
    """Fold one job's result tuple back into the driver-side state.

    Returns the job's worker-side wall-clock seconds (``0.0`` for results
    from older payloads) so the caller can sum pool busy time.
    """
    num, den, worlds, payload = result
    leaf.result = (num, den)
    counter.add(worlds)
    counter.merge_stats(payload.get("stats"))
    if ctx is not None and payload.get("audit") is not None:
        ctx.absorb_worker(payload["audit"])
    if tctx is not None and payload.get("trace") is not None:
        tctx.absorb_worker(payload["trace"])
    return float(payload.get("seconds", 0.0))


def _record_pool_metrics(
    executor: str, n_workers: int, n_jobs: int, wall: float, busy: float
) -> None:
    """Publish one pool run's counters/gauges to the active registry."""
    reg = _metrics.active()
    if reg is None:
        return
    label = (executor,)
    reg.inc("repro_pool_jobs_total", float(n_jobs), labels=label)
    reg.observe("repro_pool_seconds", wall, labels=label)
    reg.set("repro_pool_workers", float(n_workers), labels=label)
    utilisation = busy / (wall * n_workers) if wall > 0 and n_workers else 0.0
    reg.set("repro_pool_utilisation", min(1.0, utilisation), labels=label)


def _run_pool(
    estimator: Estimator,
    graph: UncertainGraph,
    query: Query,
    root: np.random.SeedSequence,
    groups: List[List[_Leaf]],
    n_workers: int,
    counter: WorldCounter,
    n_jobs: int,
    source: Any = None,
) -> None:
    """Evaluate job groups on a spawn pool sharing the graph via an arena.

    ``source`` is accepted for signature parity with the thread pool but
    never shipped: a :class:`~repro.graph.worldsource.CachedWorldSource`
    holds a lock-bearing cache, so worker processes always sample fresh —
    bit-identical to cached replay by the world-source contract.
    """
    ctx = _audit.active()
    tctx = _telemetry.active()
    started = time.perf_counter()
    offsets: List[float] = []
    with GraphArena(graph) as arena:
        executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=get_context("spawn"),
            initializer=init_worker,
            initargs=(
                arena.spec, estimator, query, root,
                ctx is not None, tctx is not None,
            ),
        )
        try:
            futures = [
                (group, executor.submit(run_jobs, [leaf.job for leaf in group]))
                for group in groups
            ]
            if tctx is not None:
                # Completion offsets (seconds since pool start) feed the
                # queue-depth / utilisation metrics; list.append is atomic,
                # so the executor's callback thread can write directly.
                for _, future in futures:
                    future.add_done_callback(
                        lambda _f: offsets.append(time.perf_counter() - started)
                    )
            busy = 0.0
            for group, future in futures:
                for leaf, result in zip(group, future.result()):
                    busy += _absorb(leaf, result, counter, ctx, tctx)
        except BrokenProcessPool as exc:
            raise EstimatorError(
                "parallel worker pool crashed (a worker process died); "
                "rerun with n_workers=0 to use the sequential path"
            ) from exc
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
    wall = time.perf_counter() - started
    if tctx is not None:
        tctx.record_parallel(n_workers, n_jobs, wall, sorted(offsets))
    _record_pool_metrics("process", n_workers, n_jobs, wall, busy)


def _run_thread_pool(
    estimator: Estimator,
    graph: UncertainGraph,
    query: Query,
    root: np.random.SeedSequence,
    groups: List[List[_Leaf]],
    n_workers: int,
    counter: WorldCounter,
    n_jobs: int,
    source: Any = None,
) -> None:
    """Evaluate job groups on an in-process thread pool (zero-copy sharing).

    No arena, no spawn, no pickling: worker threads traverse the driver's
    own graph arrays directly.  Real concurrency requires the ``native``
    kernel backend (whose sweeps release the GIL); with pure-Python kernels
    the pool still returns bit-identical results, just without speedup.
    Worker threads install their audit/trace contexts thread-locally, so
    the driver's process-wide contexts are never touched from a pool
    thread; payload absorption happens here, on the driver thread, exactly
    as in the process pool.
    """
    ctx = _audit.active()
    tctx = _telemetry.active()
    started = time.perf_counter()
    offsets: List[float] = []
    with ThreadPoolExecutor(
        max_workers=n_workers, thread_name_prefix="repro-worker"
    ) as executor:
        futures = [
            (
                group,
                executor.submit(
                    run_jobs_local,
                    graph, estimator, query, root,
                    [leaf.job for leaf in group],
                    ctx is not None, tctx is not None, source,
                ),
            )
            for group in groups
        ]
        if tctx is not None:
            for _, future in futures:
                future.add_done_callback(
                    lambda _f: offsets.append(time.perf_counter() - started)
                )
        busy = 0.0
        for group, future in futures:
            for leaf, result in zip(group, future.result()):
                busy += _absorb(leaf, result, counter, ctx, tctx)
    wall = time.perf_counter() - started
    if tctx is not None:
        tctx.record_parallel(n_workers, n_jobs, wall, sorted(offsets))
    _record_pool_metrics("thread", n_workers, n_jobs, wall, busy)


def estimate_parallel(
    estimator: Estimator,
    graph: UncertainGraph,
    query: Query,
    n_samples: int,
    rng: RngLike = None,
    n_workers: int = 1,
    tasks_per_worker: int = 4,
    backend: str = "auto",
    min_worlds_per_job: int = 0,
    audit: bool = False,
    trace: Any = None,
    source: Optional[_worldsource.WorldSource] = None,
) -> EstimateResult:
    """Run ``estimator`` with the recursion fanned out over a worker pool.

    ``backend`` selects the executor: ``"process"`` is the spawn pool with
    the shared-memory graph arena; ``"thread"`` is an in-process
    :class:`~concurrent.futures.ThreadPoolExecutor` sharing the graph
    arrays zero-copy (it scales only under the GIL-releasing ``native``
    kernel backend); ``"auto"`` (default) follows the active kernel backend
    (see :func:`resolve_backend`).  ``min_worlds_per_job`` coalesces small
    leaf jobs into fatter pool tasks — pure packaging, certified
    budget-conserving under auditing — so tiny subtrees do not each pay the
    per-task round trip.

    ``n_workers=1`` runs the identical decomposition in-process (no pool,
    no arena) — useful as the bit-exact reference for the pooled runs and
    as the cheap path on single-core machines.  With ``audit=True`` every
    decomposition, worker job and the final reduction run under invariant
    auditing (:mod:`repro.audit`): workers ship their check counters and
    consumed stratum paths back with each result, so a stream consumed by
    two different workers is caught in the driver.  ``trace`` follows
    :func:`repro.telemetry.resolve_tracer`: workers build one trace context
    per job and ship its spans back with the job result; the driver merges
    them into one recursion tree and adds pool-level metrics (utilisation,
    per-job wall-clock, completion offsets).

    ``source`` installs a :class:`~repro.graph.worldsource.WorldSource` for
    the run: inline (``n_workers=1``) and thread-pool leaves pull their mask
    blocks through it (a cached source replays the path-keyed leaf streams),
    while process-pool workers always sample fresh — the source holds
    unpicklable state and fresh draws are bit-identical by contract.

    Estimates are bit-identical across every ``(backend, n_workers,
    tasks_per_worker, min_worlds_per_job, source)`` combination for a fixed
    seed: path-keyed streams fix what each subtree computes, and the
    reduction replays the sequential accumulation order exactly.
    """
    if n_workers < 1:
        raise EstimatorError(f"estimate_parallel needs n_workers >= 1, got {n_workers}")
    if tasks_per_worker < 1:
        raise EstimatorError(
            f"tasks_per_worker must be >= 1, got {tasks_per_worker}"
        )
    if min_worlds_per_job < 0:
        raise EstimatorError(
            f"min_worlds_per_job must be >= 0, got {min_worlds_per_job}"
        )
    pool_backend = resolve_backend(backend)
    query.validate(graph)
    root = root_seed_sequence(rng)
    counter = WorldCounter()
    target = tasks_per_worker * n_workers
    ctx = _audit.AuditContext(estimator.name) if audit else None
    tctx = _telemetry.resolve_tracer(trace, estimator.name)
    n_tasks = 0
    with _audit.activate(ctx), _telemetry.activate(tctx), \
            _worldsource.activate(source):
        root_leaf, leaves = _decompose(
            estimator, graph, query, n_samples, root, target, counter
        )
        if n_workers == 1:
            started = time.perf_counter()
            offsets: List[float] = []
            # Inline jobs share one leaf batch: every job is planned, then
            # all their leaves are swept together (job times cover planning).
            with LeafBatch(graph, query):
                for leaf in leaves:
                    counter.rebase(len(leaf.job.path), leaf.job.weight)
                    t0 = time.perf_counter()
                    leaf.result = plan_job(
                        graph, estimator, query, root, leaf.job, counter
                    )
                    if tctx is not None:
                        elapsed = time.perf_counter() - t0
                        tctx.record_job(leaf.job.path, elapsed, os.getpid())
                        offsets.append(time.perf_counter() - started)
            wall = time.perf_counter() - started
            if tctx is not None:
                tctx.record_parallel(1, len(leaves), wall, offsets)
            _record_pool_metrics("inline", 1, len(leaves), wall, wall)
            n_tasks = len(leaves)
        elif leaves:
            groups = _coalesce(leaves, int(min_worlds_per_job))
            n_tasks = len(groups)
            if ctx is not None:
                ctx.check_coalesce(
                    [[leaf.job.n_samples for leaf in group] for group in groups],
                    [leaf.job.n_samples for leaf in leaves],
                    path=(),
                )
            run = _run_thread_pool if pool_backend == "thread" else _run_pool
            run(
                estimator, graph, query, root, groups, n_workers, counter,
                len(leaves), source=source,
            )
        num, den = root_leaf.pair()
        if ctx is not None:
            ctx.check_result(num, den, query.conditional, path=())
    result = EstimateResult.from_pair(
        num, den, n_samples, counter.worlds, estimator.name,
        n_workers=n_workers, n_jobs=len(leaves), n_tasks=n_tasks,
        backend=pool_backend if n_workers > 1 else "sequential",
        **counter.stats(),
    )
    if ctx is not None:
        result.audit = ctx.report
    if tctx is not None:
        result.trace = tctx.finish(
            numerator=num, denominator=den, n_samples=int(n_samples),
            n_worlds=counter.worlds, seed=int(rng) if isinstance(rng, int) else None,
            n_workers=n_workers,
        )
    return result


__all__ = ["POOL_BACKENDS", "estimate_parallel", "resolve_backend"]
