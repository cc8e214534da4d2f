"""Estimator base machinery.

All eight estimators share the same skeleton: recursively split the sample
budget across strata, and at the leaves run plain Monte-Carlo over the free
edges of a partial assignment (:func:`sample_mean_pair`).  Everything is
expressed in *pair* (numerator, denominator) form so conditional queries
(Eq. 22) and ordinary expectation/threshold queries flow through one code
path — see :mod:`repro.queries.base`.

Plan, then sweep
----------------
Once the recursion has fixed a leaf's conditioning and budget, the leaves
are independent, so an estimate runs in two phases.  The *plan* phase walks
the recursion exactly as the paper's algorithms do — same selection and
allocation draws, same audit and telemetry hooks — and at each leaf draws
that leaf's mask blocks from its stream at the position the recursion has
reached, registering them with the estimate's :class:`LeafBatch` instead of
traversing them.  The recursion returns a :data:`Plan`: a
:class:`PlanNode` tree (``head``, then ``+= w_i * term_i`` in order) whose
leaves are :class:`Leaf` handles.  The *sweep* phase lays all leaves'
worlds side by side and runs one :meth:`Query.evaluate_pairs` over them
(flushing early when the pending worlds reach the sampling chunk budget);
:func:`fold` then reduces the tree in the recursion's own float order.
Each leaf sums its ``(leaf, source block)`` segments block by block, so
every estimate is bit-identical to evaluating the leaves one by one.

Parallel execution
------------------
:meth:`Estimator.estimate` accepts ``n_workers``: with the default
``None``/``0`` the historical single-stream sequential path runs untouched;
any ``n_workers >= 1`` routes through :mod:`repro.parallel`, which fans the
top levels of the recursion out over a process pool.  Estimators cooperate
with the engine through three small hooks:

* :meth:`Estimator._expand_node` — split one recursion node into its child
  stratum jobs (plus any analytic contribution), mirroring exactly what the
  sequential recursion would do at that node under path-keyed RNG;
* :meth:`Estimator._run_subtree` — evaluate a whole subtree job inside a
  worker (overridden by estimators that thread extra state, e.g. RCSS's
  answer set);
* :meth:`Estimator._parallel_chunks` — optional budget chunking for flat
  estimators (NMC, ANMC) that have no stratum tree to split.

The invariant tying them together: expanding a node and evaluating the
resulting children must produce the same estimate as evaluating the node as
one subtree, because every node draws from a stream keyed by its stratum
path (:class:`repro.rng.StratumRng`) rather than by execution order.  The
driver reduces its expansion tree with the same :func:`fold`.
"""

from __future__ import annotations

import math
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro import audit as _audit
from repro import metrics as _metrics
from repro import telemetry as _telemetry
from repro.errors import EstimatorError
from repro.graph import world as _world
from repro.graph import worldsource as _worldsource
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.queries.base import Query
from repro.queries.batch import as_mask_block
from repro.core.result import EstimateResult, WorldCounter
from repro.rng import RngLike, StratumRng, resolve_rng, spawn_rngs

Pair = Tuple[float, float]

#: Smallest budget worth its own task under parallel budget chunking.
MIN_PARALLEL_CHUNK = 64

#: Largest number of chunks a single flat node splits into.
MAX_PARALLEL_FANOUT = 16


def pair_of(query: Query, value: float) -> Pair:
    """The (numerator, denominator) contribution of a deterministic value.

    Matches :meth:`Query.evaluate_pair`: for conditional queries an infinite
    value contributes ``(0, 0)`` — the paper's "``u_0 = infinity``, do not add
    ``pi_0 u_0``" rule (§V-E).
    """
    if query.conditional and math.isinf(value):
        return 0.0, 0.0
    return float(value), 1.0


# --------------------------------------------------------------------------- #
# plans: what a recursion returns before its leaves are swept
# --------------------------------------------------------------------------- #


class PlanNode:
    """One recursion node awaiting its leaves.

    Folds as ``head``, then ``+= w * term`` for every ``(w, term)`` in
    :attr:`terms` order — the children in stratum order, then any residual
    pool — which is the sequential recursion's accumulation order exactly.
    ``head`` holds what was accumulated before the child loop (RCSS's and
    BCSS's analytic ``pi_0 u_0`` term).
    """

    __slots__ = ("head", "terms")

    def __init__(self, head: Pair = (0.0, 0.0)) -> None:
        self.head = head
        self.terms: List[Tuple[float, Any]] = []

    def add(self, weight: float, term: "Plan") -> None:
        self.terms.append((weight, term))


class Leaf:
    """A sampling leaf registered with a :class:`LeafBatch`.

    Accumulates the partial sums of its ``(leaf, source block)`` segments as
    the batch sweeps them; :meth:`pair` is the leaf's mean once the batch has
    finished.  ``path`` is the telemetry span path, captured at plan time.
    """

    __slots__ = (
        "n_samples", "num", "den", "where", "audit_path",
        "path", "kind", "pi", "seconds",
    )

    def __init__(self, n_samples: int, rng: RngLike, where: str) -> None:
        self.n_samples = int(n_samples)
        self.num = 0.0
        self.den = 0.0
        self.where = where
        self.audit_path = getattr(rng, "path", None)
        self.path: Tuple[int, ...] = ()
        self.kind = "leaf"
        self.pi: Optional[float] = None
        self.seconds = 0.0

    def pair(self) -> Pair:
        return self.num / self.n_samples, self.den / self.n_samples


#: A recursion result: a ready pair, a leaf handle, a node of further plans,
#: or anything else with a ``pair()`` method (the parallel driver's jobs).
Plan = Union[Pair, PlanNode, Leaf]


def fold(plan: Any) -> Pair:
    """Reduce a plan to its ``(num, den)`` pair in the recursion's float order."""
    if isinstance(plan, tuple):
        return plan
    if not isinstance(plan, PlanNode):
        return plan.pair()
    num, den = plan.head
    for weight, term in plan.terms:
        sub_num, sub_den = fold(term)
        num += weight * sub_num
        den += weight * sub_den
    return num, den


class _BatchSlot(threading.local):
    # Per thread, like the audit/trace/world-source slots: pool worker
    # threads and the serving dispatch thread each plan their own
    # estimates, and an estimate never spans threads.
    batch: Optional["LeafBatch"] = None


_BATCH = _BatchSlot()


class LeafBatch:
    """Deferred evaluation of every sampling leaf of one estimate.

    Used as a context manager: while open it is the current thread's batch,
    and :func:`sample_mean_pair` / :func:`residual_mixture_pair` register
    their worlds here and return :class:`Leaf` handles.  Pending worlds are
    stacked and evaluated in one :meth:`Query.evaluate_pairs` call whenever
    they reach the sampling chunk budget (``chunk_budget // m`` worlds,
    so the stacked boolean block stays as small as one sampling chunk) and
    once more on exit, after which every leaf's pair is final: its audit
    check and telemetry leaf record run then, in registration order.
    Blocks are swept in the order they were pushed, so each leaf adds up
    its segments in its own block order.
    """

    def __init__(self, graph: UncertainGraph, query: Query) -> None:
        self.graph = graph
        self.query = query
        self.limit = max(1, _world._DEFAULT_CHUNK_BUDGET // max(graph.n_edges, 1))
        self.trc = _telemetry.active()
        self.leaves: List[Leaf] = []
        self._pending: List[Tuple[Leaf, Any]] = []
        self._rows = 0
        self._outer: Optional[LeafBatch] = None

    def __enter__(self) -> "LeafBatch":
        self._outer = _BATCH.batch
        _BATCH.batch = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _BATCH.batch = self._outer
        if exc_type is None:
            self.finish()

    def leaf(
        self, n_samples: int, rng: RngLike, where: str, *,
        index: Optional[int] = None, kind: str = "leaf", pi: Optional[float] = None,
    ) -> Leaf:
        """Register a new leaf; its span path is the current node's (+ ``index``)."""
        leaf = Leaf(n_samples, rng, where)
        if self.trc is not None:
            path = self.trc.current_path(rng)
            leaf.path = path if index is None else path + (int(index),)
            leaf.kind = kind
            leaf.pi = pi
        self.leaves.append(leaf)
        return leaf

    def push(self, leaf: Leaf, block: Any) -> None:
        """Queue one source block of ``leaf``; sweep once the budget is reached.

        A cache replay carrying its kernel layout (``edge_words``, only ever
        memoised for blocks of 64 worlds or more) already fills whole words;
        it is swept on its own, after what is pending, so the layout is used
        instead of being unpacked into a stack and packed again.
        """
        alone = getattr(block, "edge_words", None) is not None
        if alone:
            self.flush()
        self._pending.append((leaf, block))
        self._rows += int(block.shape[0])
        if alone or self._rows >= self.limit:
            self.flush()

    def flush(self) -> None:
        """Evaluate every pending block in one sweep and credit the segments."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        rows = self._rows
        self._rows = 0
        if len(pending) == 1:
            # Pass a lone block through untouched: cache replays keep their
            # attached kernel layout and skip the repack.
            masks = pending[0][1]
        else:
            masks = np.concatenate(
                [as_mask_block(self.graph, block) for _, block in pending]
            )
        trc = self.trc
        started = time.perf_counter() if trc is not None else 0.0
        nums, dens = self.query.evaluate_pairs(self.graph, masks)
        share = (time.perf_counter() - started) / rows if trc is not None else 0.0
        start = 0
        for leaf, block in pending:
            stop = start + int(block.shape[0])
            seg_nums = nums[start:stop]
            seg_dens = dens[start:stop]
            leaf.num += float(seg_nums.sum())
            leaf.den += float(seg_dens.sum())
            if trc is not None:
                trc.leaf_block(leaf.path, seg_nums, seg_dens)
                seconds = share * (stop - start)
                leaf.seconds += seconds
                trc.leaf_swept(leaf.path, seconds)
            start = stop

    def finish(self) -> None:
        """Sweep what is pending, then audit and record every leaf."""
        self.flush()
        ctx = _audit.active()
        trc = self.trc
        for leaf in self.leaves:
            if ctx is not None:
                mean_num, mean_den = leaf.pair()
                ctx.check_pair(mean_num, mean_den, where=leaf.where, path=leaf.audit_path)
            if trc is not None:
                trc.leaf_done(
                    leaf.path, leaf.n_samples, leaf.n_samples, leaf.seconds,
                    kind=leaf.kind, pi=leaf.pi,
                )


def _deferred(graph: UncertainGraph, query: Query, register) -> Plan:
    """Register a leaf with this thread's open batch, or sweep it right away.

    ``register(batch)`` draws the leaf's worlds and returns its handle.  A
    leaf for another graph or query than the open batch sweeps is never
    mixed into it.
    """
    batch = _BATCH.batch
    if batch is not None and batch.graph is graph and batch.query is query:
        return register(batch)
    with LeafBatch(graph, query) as own:
        leaf = register(own)
    return leaf.pair()


def sample_mean_pair(
    graph: UncertainGraph,
    query: Query,
    statuses: EdgeStatuses,
    n_samples: int,
    rng: RngLike,
    counter: Optional[WorldCounter] = None,
) -> Plan:
    """Plain Monte-Carlo mean of the query pair under a partial assignment.

    This is the terminal step of every recursion (Algorithm 2 lines 3–7,
    Algorithm 4 lines 5–9) and the whole of NMC.  Worlds come from the
    active :class:`~repro.graph.worldsource.WorldSource` — fresh draws via
    :func:`repro.graph.world.iter_mask_blocks` by default, cache replay
    under a serving engine — and are drawn *now*, at the stream position
    the recursion has reached.  Inside an estimate (an open
    :class:`LeafBatch`) the traversal is deferred to the batch's sweep and
    a :class:`Leaf` handle is returned; called on its own, the leaf is
    swept immediately and its ``(mean_num, mean_den)`` pair returned.
    Either way each source block's worlds are summed as one segment, so
    same-seed estimates match the historical per-world loop exactly.
    """
    if n_samples <= 0:
        raise EstimatorError("sample_mean_pair needs a positive sample count")
    return _deferred(
        graph, query,
        lambda batch: _sample_leaf(batch, statuses, n_samples, rng, counter),
    )


def _sample_leaf(
    batch: LeafBatch,
    statuses: EdgeStatuses,
    n_samples: int,
    rng: RngLike,
    counter: Optional[WorldCounter],
) -> Leaf:
    leaf = batch.leaf(n_samples, rng, "sample_mean_pair")
    trc = batch.trc
    mark = time.perf_counter() if trc is not None else 0.0
    for block in _worldsource.active().blocks(statuses, n_samples, rng):
        if trc is not None:
            # Charge drawing the block, not the sweeps a push may trigger.
            leaf.seconds += time.perf_counter() - mark
        batch.push(leaf, block)
        if trc is not None:
            mark = time.perf_counter()
    if counter is not None:
        counter.add(n_samples)
    return leaf


def residual_mixture_pair(
    graph: UncertainGraph,
    query: Query,
    child_for,
    weights: np.ndarray,
    indices: np.ndarray,
    n_draws: int,
    rng: RngLike,
    counter: Optional[WorldCounter] = None,
) -> Plan:
    """Mean query pair over draws from a mixture of strata.

    Used by the budget-true allocation plan
    (:func:`repro.core.allocation.plan_allocation`): strata too small to
    deserve individual samples are pooled, a stratum index is drawn with
    probability proportional to its weight, and one world is sampled inside
    it (``child_for(index)`` builds the pinned statuses).  The mixture of
    the strata *is* their union, so the mean is an unbiased estimate of the
    pair conditioned on that union.

    Draws are grouped by stratum index and each group's masks are sampled in
    a single :func:`~repro.graph.world.sample_edge_masks` call; every group
    gets its own ``SeedSequence`` child stream (in ascending stratum order),
    so the randomness is keyed to the *plan* — which strata were drawn how
    often — rather than to the order of a per-draw loop.  Like
    :func:`sample_mean_pair`, the draws happen now and the pooled block is
    one deferred leaf of the open :class:`LeafBatch` (swept immediately when
    none is open).
    """
    if n_draws <= 0 or indices.size == 0:
        raise EstimatorError("residual mixture needs draws and strata")
    return _deferred(
        graph, query,
        lambda batch: _residual_leaf(
            batch, graph, child_for, weights, indices, n_draws, rng, counter
        ),
    )


def _residual_leaf(
    batch: LeafBatch,
    graph: UncertainGraph,
    child_for,
    weights: np.ndarray,
    indices: np.ndarray,
    n_draws: int,
    rng: RngLike,
    counter: Optional[WorldCounter],
) -> Leaf:
    started = time.perf_counter() if batch.trc is not None else 0.0
    gen = resolve_rng(rng)
    local = weights[indices].astype(np.float64)
    total = float(local.sum())
    if not np.isfinite(total) or total <= 0.0:
        # A zero-mass pool has no mixture to draw from; dividing by it
        # would silently turn the whole estimate into NaN.
        raise EstimatorError("residual mixture strata have zero total weight")
    draws = gen.choice(indices, size=n_draws, p=local / total)
    groups = np.unique(draws)
    masks = np.empty((n_draws, graph.n_edges), dtype=bool)
    source = _worldsource.active()
    for index, stream in zip(groups, spawn_rngs(gen, groups.size)):
        rows = np.flatnonzero(draws == index)
        masks[rows] = source.masks(child_for(int(index)), rows.size, stream)
    # The pooled strata hang off the node as one residual pseudo-child at
    # path + (RESIDUAL_INDEX,) with the pool's combined local weight.
    leaf = batch.leaf(
        n_draws, rng, "residual_mixture_pair",
        index=_telemetry.RESIDUAL_INDEX, kind="residual", pi=total,
    )
    if batch.trc is not None:
        leaf.seconds = time.perf_counter() - started
    batch.push(leaf, masks)
    if counter is not None:
        counter.add(n_draws)
    return leaf


class ChildJob(NamedTuple):
    """One child of an expanded recursion node (parallel decomposition).

    Attributes
    ----------
    pi:
        The stratum weight this child's pair is multiplied by on the way
        back up (the ``pi_i`` of Eqs. 8/13/19, or ``n_i / N`` for budget
        chunks).
    values:
        The child's edge-status vector (``int8``, see
        :class:`~repro.graph.statuses.EdgeStatuses`).
    state:
        Opaque estimator state threaded into the child (RCSS answer set);
        must be picklable when shipped to a worker process.
    n_samples:
        The child's local sample budget.
    index:
        The child's stratum index — the path component keying its RNG
        stream.  Must match the index the sequential recursion would pass to
        :func:`repro.rng.child_rng` for this child.
    kind:
        ``"subtree"`` — evaluate with the estimator's own recursion
        (:meth:`Estimator._run_subtree`); ``"mc"`` — evaluate with plain
        :func:`sample_mean_pair` (the leaves of the single-level
        BSS/BCSS stratifications).
    """

    pi: float
    values: np.ndarray
    state: Any
    n_samples: int
    index: int
    kind: str = "subtree"


class NodeExpansion(NamedTuple):
    """Result of expanding one recursion node for parallel execution.

    The driver turns an expanded node into a :class:`PlanNode` and
    :func:`fold` reduces it as ``head``, then ``+= pi_i * child_i`` in
    children-list order, then ``+= tail`` — the *exact* float
    accumulation order of the sequential recursion, so a node evaluated
    as one subtree and the same node expanded one level deeper produce
    bit-identical pairs.  ``head`` holds contributions accumulated before
    the child loop (RCSS's analytic ``pi_0 u_0`` term); ``tail`` holds
    contributions accumulated after it (residual-mixture pools).  Both are
    weighted by local stratum weights but *not* by the node's own
    accumulated weight, which the driver applies hierarchically.
    """

    head: Pair
    tail: Pair
    children: List[ChildJob]


class Estimator(ABC):
    """Interface shared by all estimators.

    Subclasses implement :meth:`_estimate_pair`, the (possibly recursive)
    pair-valued core; :meth:`estimate` wraps it with validation, RNG
    resolution and result packaging.
    """

    #: Human-readable estimator name; overridden per subclass.
    name: str = "abstract"

    @abstractmethod
    def _estimate_pair(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Plan:
        """Plan the estimate of ``(E[num], E[den])`` conditioned on ``statuses``.

        Runs under the estimate's open :class:`LeafBatch`, so sampling
        leaves come back as deferred :class:`Leaf` handles; returns a pair,
        a leaf, or a :class:`PlanNode` combining them (see :func:`fold`).
        """

    def _evaluate(
        self,
        graph: UncertainGraph,
        query: Query,
        statuses: EdgeStatuses,
        n_samples: int,
        rng: np.random.Generator,
        counter: WorldCounter,
    ) -> Pair:
        """Plan the recursion, sweep all its leaves in one batch, fold."""
        with LeafBatch(graph, query):
            plan = self._estimate_pair(graph, query, statuses, n_samples, rng, counter)
        return fold(plan)

    # ------------------------------------------------------------------ #
    # parallel-execution hooks (see repro.parallel)
    # ------------------------------------------------------------------ #

    def _initial_state(self, graph: UncertainGraph, query: Query) -> Any:
        """Opaque state of the recursion root (RCSS overrides)."""
        return None

    def _parallel_chunks(self, n_samples: int) -> Optional[List[int]]:
        """Budget chunking for flat estimators; ``None`` disables it.

        The split must be a deterministic function of ``n_samples`` alone —
        never of the worker count — so that chunk streams are identical for
        every ``n_workers``.
        """
        return None

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
        """Split one recursion node into child jobs, or ``None`` for a leaf.

        Called only by the parallel driver, always with a
        :class:`~repro.rng.StratumRng` keyed to the node's stratum path.
        Implementations must consume the node stream exactly as the
        path-keyed sequential recursion does (edge selection first, residual
        draws after) and emit children whose ``index`` matches the stream
        the recursion would derive for them.  The default splits the budget
        per :meth:`_parallel_chunks`.
        """
        chunks = self._parallel_chunks(n_samples)
        if not chunks or len(chunks) < 2:
            return None
        ctx = _audit.active()
        if ctx is not None:
            ctx.check_budget_split(chunks, n_samples, path=rng.path)
        # Budget chunks are an engine artifact, not statistical strata:
        # telemetry-only split (counter=None keeps the extras stats clean).
        _telemetry.split(
            None, rng, pis=[n_i / n_samples for n_i in chunks],
            allocations=chunks, n_samples=n_samples,
        )
        children = [
            ChildJob(n_i / n_samples, statuses.values, state, int(n_i), i)
            for i, n_i in enumerate(chunks)
        ]
        return NodeExpansion((0.0, 0.0), (0.0, 0.0), children)

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
        """Plan one subtree job (inside a worker or inline).

        Applies :meth:`_parallel_chunks` recursively under path-keyed RNG —
        matching :meth:`_expand_node`'s default — then falls through to
        :meth:`_estimate_pair`.  The caller holds the :class:`LeafBatch`.
        """
        if isinstance(rng, StratumRng):
            chunks = self._parallel_chunks(n_samples)
            if chunks and len(chunks) >= 2:
                ctx = _audit.active()
                if ctx is not None:
                    ctx.check_budget_split(chunks, n_samples, path=rng.path)
                trc = _telemetry.split(
                    None, rng, pis=[n_i / n_samples for n_i in chunks],
                    allocations=chunks, n_samples=n_samples,
                )
                node = PlanNode()
                for i, n_i in enumerate(chunks):
                    share = n_i / n_samples
                    _telemetry.enter_child(None, trc, i, share)
                    node.add(share, self._run_subtree(
                        graph, query, statuses, state, int(n_i), rng.child(i), counter
                    ))
                    _telemetry.exit_child(None, trc)
                return node
        return self._estimate_pair(graph, query, statuses, n_samples, rng, counter)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def estimate(
        self,
        graph: UncertainGraph,
        query: Query,
        n_samples: int,
        rng: RngLike = None,
        n_workers: Optional[int] = None,
        tasks_per_worker: int = 4,
        backend: str = "auto",
        min_worlds_per_job: int = 0,
        audit: Optional[bool] = None,
        trace: Any = None,
        target_ci: Optional[float] = None,
        confidence: float = 0.95,
        source: Optional[_worldsource.WorldSource] = None,
    ) -> EstimateResult:
        """Run the estimator with a total budget of ``n_samples`` worlds.

        Parameters
        ----------
        graph:
            The uncertain graph.
        query:
            The query evaluation function.
        n_samples:
            Total sample size ``N``; must be positive.  Ceiling allocation
            may evaluate slightly more worlds (reported in the result).
        rng:
            Seed / generator; see :mod:`repro.rng`.
        n_workers:
            ``None`` or ``0`` (default) — the historical sequential path,
            bit-identical to previous releases.  Any value ``>= 1`` routes
            through the parallel engine (:mod:`repro.parallel`) with
            path-keyed RNG: results are then bit-identical across *all*
            worker counts for a fixed seed (``n_workers=1`` runs the same
            decomposition in-process without a pool).
        tasks_per_worker:
            Decomposition depth target for the parallel engine: the
            recursion is split until at least ``tasks_per_worker *
            n_workers`` subtree jobs exist (affects load balance only, never
            results).
        backend:
            Executor for the parallel engine: ``"process"`` (spawn pool +
            shared-memory arena), ``"thread"`` (in-process pool sharing the
            graph zero-copy; scales only under the GIL-releasing ``native``
            kernel backend), or ``"auto"`` (default — thread when the
            active kernel backend is ``native``, process otherwise).
            Never changes results, only speed.
        min_worlds_per_job:
            Coalescing threshold for the parallel engine: consecutive leaf
            jobs are batched into one pool task until the task carries at
            least this many worlds of budget (``0``/``1`` — one job per
            task).  Pure packaging; audited to conserve the budget.
        audit:
            ``None`` (default) — honour the ``REPRO_AUDIT`` environment
            variable; ``True``/``False`` force invariant auditing on or off
            for this call.  When auditing is active every internal contract
            (stratum mass conservation, allocation budgets, pair sanity, RNG
            stream uniqueness) is checked and any violation raises
            :class:`repro.audit.AuditError`; the check counters are attached
            to the result as ``result.audit``.  The flag is resolved once
            per call — with auditing off the estimate runs the historical
            zero-overhead path.
        trace:
            ``None`` (default) — honour the ``REPRO_TRACE`` environment
            variable; ``True``/``False`` force structured tracing on or
            off; a :class:`repro.telemetry.Tracer` instance is used as-is
            (with its exporters).  When tracing is active every recursion
            node records a span (stratum path, ``pi_i``, allocated budget,
            worlds, wall-clock, variance-ledger moments) plus per-block
            convergence events; the finished
            :class:`~repro.telemetry.TraceReport` is attached as
            ``result.trace``.  Tracing never changes the random stream, so
            same-seed estimates are bit-identical with tracing on or off.
        target_ci:
            ``None`` (default) — spend the whole ``n_samples`` budget.  A
            positive half-width routes through the adaptive engine
            (:mod:`repro.adaptive`): the run proceeds in geometrically
            growing rounds and stops as soon as the running CI at
            ``confidence`` is at most ``target_ci`` — ``n_samples``
            becomes the *ceiling* the run may spend.  Adaptive runs
            always execute with ``n_workers >= 1`` path-keyed streams, so
            a fixed seed gives bit-identical results for every requested
            worker count; the adaptive diagnostics land in
            ``result.extras`` (see
            :data:`repro.core.diagnostics.ADAPTIVE_EXTRAS`).
        confidence:
            Confidence level of ``target_ci`` (0.90 / 0.95 / 0.99); only
            consulted in adaptive mode.
        source:
            ``None`` (default) — sample fresh worlds
            (:data:`repro.graph.worldsource.FRESH`).  A
            :class:`~repro.graph.worldsource.WorldSource` instance is
            installed for the duration of the call and every leaf pulls its
            mask blocks through it; with
            :class:`~repro.graph.worldsource.CachedWorldSource` the
            replayable path-keyed streams (all parallel-engine leaves, i.e.
            any ``n_workers >= 1``) are served from a world-block cache.
            Never changes results — a fixed seed is bit-identical fresh or
            cached — only where the worlds' bytes come from.

        Returns
        -------
        EstimateResult
        """
        reg = _metrics.active()
        if reg is None:
            return self._estimate_impl(
                graph, query, n_samples, rng, n_workers, tasks_per_worker,
                backend, min_worlds_per_job, audit, trace, target_ci,
                confidence, source,
            )
        t0 = time.perf_counter()
        try:
            result = self._estimate_impl(
                graph, query, n_samples, rng, n_workers, tasks_per_worker,
                backend, min_worlds_per_job, audit, trace, target_ci,
                confidence, source,
            )
        except Exception:
            reg.inc("repro_estimate_errors_total", labels=(self.name,))
            raise
        labels = (self.name,)
        reg.inc("repro_estimates_total", labels=labels)
        reg.inc("repro_estimate_worlds_total", float(result.n_worlds), labels=labels)
        reg.observe("repro_estimate_seconds", time.perf_counter() - t0, labels=labels)
        return result

    def _estimate_impl(
        self,
        graph: UncertainGraph,
        query: Query,
        n_samples: int,
        rng: RngLike = None,
        n_workers: Optional[int] = None,
        tasks_per_worker: int = 4,
        backend: str = "auto",
        min_worlds_per_job: int = 0,
        audit: Optional[bool] = None,
        trace: Any = None,
        target_ci: Optional[float] = None,
        confidence: float = 0.95,
        source: Optional[_worldsource.WorldSource] = None,
    ) -> EstimateResult:
        """The real :meth:`estimate` body, behind the metrics wrapper.

        Kept separate so the wrapper above is nothing but one ``active()``
        check on the metrics-off path: metrics never touch the RNG stream
        or the accumulation order, only observe the finished result.
        Adaptive rounds call back into :meth:`estimate`, so with metrics on
        each round shows up as its own ``repro_estimates_total`` increment.
        """
        if n_samples <= 0:
            raise EstimatorError(f"n_samples must be positive, got {n_samples}")
        if n_workers is not None and n_workers < 0:
            raise EstimatorError(f"n_workers must be >= 0, got {n_workers}")
        if target_ci is not None:
            if not target_ci > 0.0:
                raise EstimatorError(f"target_ci must be positive, got {target_ci}")
            from repro.adaptive.engine import estimate_adaptive

            return estimate_adaptive(
                self, graph, query, int(n_samples),
                target_ci=float(target_ci), confidence=float(confidence),
                rng=rng, n_workers=n_workers, tasks_per_worker=tasks_per_worker,
                backend=backend, min_worlds_per_job=int(min_worlds_per_job),
                audit=audit, trace=trace, source=source,
            )
        audit_enabled = _audit.env_enabled() if audit is None else bool(audit)
        tctx = _telemetry.resolve_tracer(trace, self.name)
        if n_workers:
            from repro.parallel.driver import estimate_parallel

            return estimate_parallel(
                self, graph, query, int(n_samples), rng,
                n_workers=int(n_workers), tasks_per_worker=tasks_per_worker,
                backend=backend, min_worlds_per_job=int(min_worlds_per_job),
                audit=audit_enabled, trace=tctx if tctx is not None else False,
                source=source,
            )
        query.validate(graph)
        gen = resolve_rng(rng)
        counter = WorldCounter()
        if not audit_enabled and tctx is None and source is None:
            num, den = self._evaluate(
                graph, query, EdgeStatuses(graph), int(n_samples), gen, counter
            )
            return EstimateResult.from_pair(
                num, den, int(n_samples), counter.worlds, self.name,
                **counter.stats(),
            )
        ctx = _audit.AuditContext(self.name) if audit_enabled else None
        with _audit.activate(ctx), _telemetry.activate(tctx), \
                _worldsource.activate(source):
            num, den = self._evaluate(
                graph, query, EdgeStatuses(graph), int(n_samples), gen, counter
            )
            if ctx is not None:
                ctx.check_result(num, den, query.conditional, path=())
        result = EstimateResult.from_pair(
            num, den, int(n_samples), counter.worlds, self.name, **counter.stats()
        )
        if ctx is not None:
            result.audit = ctx.report
        if tctx is not None:
            result.trace = tctx.finish(
                numerator=num, denominator=den, n_samples=int(n_samples),
                n_worlds=counter.worlds,
                seed=int(rng) if isinstance(rng, int) else None,
            )
        return result

    def __call__(self, graph, query, n_samples, rng=None) -> float:
        """Convenience: run :meth:`estimate` and return the point value."""
        return self.estimate(graph, query, n_samples, rng).value

    def __repr__(self) -> str:  # noqa: D105
        return f"{type(self).__name__}(name={self.name!r})"


def chunk_budget(
    n_samples: int,
    min_chunk: int = MIN_PARALLEL_CHUNK,
    max_fanout: int = MAX_PARALLEL_FANOUT,
    align: int = 1,
) -> Optional[List[int]]:
    """Split a flat sample budget into near-even chunks for parallel fan-out.

    Deterministic in ``n_samples`` alone.  ``align`` keeps every chunk but
    the last a multiple of the given value (ANMC's antithetic pairs must not
    straddle a chunk boundary).  Returns ``None`` when the budget is too
    small to be worth splitting.
    """
    if n_samples < 2 * min_chunk:
        return None
    n_chunks = min(max_fanout, n_samples // min_chunk)
    if n_chunks < 2:
        return None
    base = n_samples // n_chunks
    if align > 1:
        base -= base % align
        base = max(base, align)
    chunks = [base] * (n_chunks - 1)
    last = n_samples - base * (n_chunks - 1)
    if last <= 0:
        return None
    chunks.append(last)
    return chunks


__all__ = [
    "Estimator",
    "Pair",
    "Plan",
    "PlanNode",
    "Leaf",
    "LeafBatch",
    "fold",
    "ChildJob",
    "NodeExpansion",
    "MIN_PARALLEL_CHUNK",
    "MAX_PARALLEL_FANOUT",
    "chunk_budget",
    "pair_of",
    "sample_mean_pair",
    "residual_mixture_pair",
]
