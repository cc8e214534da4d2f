"""The tracing context, report, and module-level instrumentation hooks.

Mirrors the audit layer (:mod:`repro.audit`) exactly in its activation
pattern: one module-global :func:`active` check per recursion node when
tracing is off, an installed :class:`TraceContext` when it is on.  Tracing
is enabled by

* the environment variable ``REPRO_TRACE=1`` (checked once per
  :meth:`~repro.core.base.Estimator.estimate` call),
* ``estimate(..., trace=True)``, or
* passing a :class:`Tracer` instance explicitly (``trace=Tracer(...)``),
  optionally carrying exporters that receive the finished report.

When ``REPRO_TRACE_FILE`` names a path, every env-enabled trace is appended
to it as JSON lines (one run = one ``meta`` line followed by its spans,
convergence events and parallel metrics) for ``repro-trace`` to render.

Stratum paths are derived from the path-keyed RNG when the recursion runs
under the parallel engine (:class:`repro.rng.StratumRng`) and from an
enter/exit stack maintained by the instrumented recursion loops otherwise,
so sequential and parallel runs of the same estimate produce the same tree.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.variance import DEFAULT_CONFIDENCE, ratio_variance, z_score
from repro.errors import ReproError
from repro.telemetry.spans import Ledger, Span, RESIDUAL_INDEX, resolve_weights, sort_key

#: Environment variable enabling tracing for every estimate in the process.
TRACE_ENV = "REPRO_TRACE"

#: Environment variable naming a JSONL file env-enabled traces append to.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: Version of the trace-file schema (the ``schema`` field of ``meta`` lines).
#: v2: convergence events track the ratio estimand (``mean = num/den`` with a
#: delta-method CI) instead of the numerator alone, and carry a
#: ``half_width`` at the run's confidence level next to the 95% ``ci95``.
TRACE_SCHEMA_VERSION = 2

#: Convergence events kept per run; later blocks are counted, not stored.
MAX_EVENTS = 4096

#: The 95% z-score, kept for the schema-stable ``ci95`` event field.
_Z95 = z_score(0.95)

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"", "0", "false", "no", "off"})


def env_enabled() -> bool:
    """Whether ``REPRO_TRACE`` requests tracing (re-read on every call)."""
    raw = os.environ.get(TRACE_ENV, "").strip().lower()
    if raw in _FALSY:
        return False
    if raw in _TRUTHY:
        return True
    raise ReproError(
        f"cannot parse {TRACE_ENV}={raw!r}; use 1/true/yes/on or 0/false/no/off"
    )


class TraceReport:
    """The finished trace of one estimate: spans, events, parallel metrics.

    Attached to :attr:`repro.core.result.EstimateResult.trace` and written
    to trace files via :meth:`to_records`.  The variance-decomposition
    helpers reconstruct the paper's stratified variance from the ledger:
    :meth:`estimated_variance` is ``sum w^2 sigma_hat^2 / n`` over sampling
    leaves, the quantity Theorems 3.2/4.3/5.5 order across estimators.
    """

    __slots__ = ("estimator", "meta", "spans", "events", "parallel")

    def __init__(
        self,
        estimator: str,
        meta: Dict[str, Any],
        spans: Dict[Tuple[int, ...], Span],
        events: List[Dict[str, Any]],
        parallel: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.estimator = estimator
        self.meta = meta
        self.spans = spans
        self.events = events
        self.parallel = parallel

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def sorted_spans(self) -> List[Span]:
        return [self.spans[p] for p in sorted(self.spans, key=sort_key)]

    def leaf_spans(self) -> List[Span]:
        return [s for s in self.sorted_spans() if s.ledger is not None]

    def estimated_variance(self) -> float:
        """Estimated variance of the numerator estimate (ledger-based)."""
        return sum(s.variance_contribution() for s in self.leaf_spans())

    def estimated_variance_den(self) -> float:
        """Estimated variance of the denominator estimate (zero when flat)."""
        return sum(s.variance_contribution_den() for s in self.leaf_spans())

    def estimated_covariance(self) -> float:
        """Estimated covariance of the ``(num, den)`` estimate pair."""
        return sum(s.covariance_contribution() for s in self.leaf_spans())

    def estimated_ratio_variance(self) -> float:
        """Delta-method variance of the reported ``num/den`` estimate.

        For unconditional queries (``den == 1``) the denominator variance
        and covariance vanish and this equals :meth:`estimated_variance`.
        ``inf`` when the recorded denominator is zero.
        """
        numerator = float(self.meta.get("numerator", 0.0))
        denominator = float(self.meta.get("denominator", 0.0))
        return ratio_variance(
            numerator,
            denominator,
            self.estimated_variance(),
            self.estimated_variance_den(),
            self.estimated_covariance(),
            1,
        )

    def ci_half_width(self, confidence: float = DEFAULT_CONFIDENCE) -> float:
        """Half-width of the estimate's CI at ``confidence`` (delta method)."""
        return z_score(confidence) * self.estimated_ratio_variance() ** 0.5

    def variance_shares(self) -> Dict[Tuple[int, ...], float]:
        """Each leaf's fraction of :meth:`estimated_variance` (0 when flat)."""
        total = self.estimated_variance()
        if total <= 0.0:
            return {s.path: 0.0 for s in self.leaf_spans()}
        return {s.path: s.variance_contribution() / total for s in self.leaf_spans()}

    def total_seconds(self) -> float:
        root = self.spans.get(())
        if root is not None and root.wall_seconds() > 0:
            return root.wall_seconds()
        return sum(s.wall_seconds() for s in self.spans.values() if len(s.path) <= 1)

    def to_records(self) -> List[Dict[str, Any]]:
        """The run as trace-file records: meta, spans, events, parallel."""
        records: List[Dict[str, Any]] = [dict(self.meta, type="meta")]
        for span in self.sorted_spans():
            records.append(dict(span.to_dict(), type="span"))
        for event in self.events:
            records.append(dict(event, type="conv"))
        if self.parallel is not None:
            records.append(dict(self.parallel, type="parallel"))
        return records

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "TraceReport":
        """Rebuild a report from trace-file records (one run's worth)."""
        meta: Dict[str, Any] = {}
        spans: Dict[Tuple[int, ...], Span] = {}
        events: List[Dict[str, Any]] = []
        parallel: Optional[Dict[str, Any]] = None
        for record in records:
            kind = record.get("type")
            body = {k: v for k, v in record.items() if k != "type"}
            if kind == "meta":
                meta = body
            elif kind == "span":
                span = Span.from_dict(body)
                spans[span.path] = span
            elif kind == "conv":
                events.append(body)
            elif kind == "parallel":
                parallel = body
        resolve_weights(spans)
        return cls(meta.get("estimator", "estimator"), meta, spans, events, parallel)

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"TraceReport(estimator={self.estimator!r}, spans={self.n_spans}, "
            f"events={len(self.events)})"
        )


class TraceContext:
    """The live tracing state of one estimate (public alias: ``Tracer``).

    One context is created per :meth:`Estimator.estimate` call, plus one per
    job inside each pool worker; worker contexts are serialised
    (:meth:`worker_payload`) and merged back into the driver's context
    (:meth:`absorb_worker`) alongside the job's result, piggybacking on the
    existing payload channel of the parallel engine.
    """

    def __init__(
        self,
        estimator: str = "estimator",
        base_path: Tuple[int, ...] = (),
        exporters: Optional[Sequence[Any]] = None,
        confidence: float = DEFAULT_CONFIDENCE,
    ) -> None:
        self.estimator = estimator
        self.confidence = float(confidence)
        self._z = z_score(confidence)
        self.base_path = tuple(int(i) for i in base_path)
        self._stack: List[int] = list(self.base_path)
        self._frames: List[Tuple[float, float]] = []
        self.spans: Dict[Tuple[int, ...], Span] = {}
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self.worker_jobs: List[Dict[str, Any]] = []
        self.parallel: Optional[Dict[str, Any]] = None
        self.exporters: List[Any] = list(exporters or [])
        self.auto_file: Optional[str] = None
        self.report: Optional[TraceReport] = None
        self._started = time.perf_counter()
        # running whole-run convergence accumulators (world-level stream)
        self._cum_n = 0
        self._cum_num = 0.0
        self._cum_sq = 0.0
        self._cum_den = 0.0
        self._cum_den_sq = 0.0
        self._cum_cross = 0.0

    # ------------------------------------------------------------------ #
    # span tree
    # ------------------------------------------------------------------ #

    def current_path(self, rng: Any = None) -> Tuple[int, ...]:
        """The node path: from the path-keyed RNG, else the enter/exit stack."""
        path = getattr(rng, "path", None)
        if path is not None:
            return tuple(path)
        return tuple(self._stack)

    def _span(self, path: Tuple[int, ...]) -> Span:
        span = self.spans.get(path)
        if span is None:
            span = Span(path)
            self.spans[path] = span
        return span

    def record_split(
        self,
        rng: Any,
        *,
        pis,
        pi0: float = 0.0,
        allocations=None,
        n_samples: int = 0,
    ) -> None:
        """Record one recursion node's stratification on its span."""
        path = self.current_path(rng)
        # Re-anchor the enter/exit stack at this node's absolute path.  A
        # path-keyed RNG carries the truth; the stack may be stale when
        # several jobs share one context (the inline single-worker engine
        # path), and a mismatch would make exit_child write its ``pi`` onto
        # the wrong absolute span.  With a plain Generator ``current_path``
        # already returned the stack, so this is a no-op for sequential runs.
        self._stack = list(path)
        span = self._span(path)
        span.kind = "split"
        span.pi0 = float(pi0)
        span.n_strata = len(pis)
        span.n_samples = int(n_samples)
        span.pis = tuple(float(p) for p in pis)
        if allocations is not None:
            span.allocations = tuple(int(a) for a in allocations)

    def enter_child(self, index: int, pi: float) -> None:
        self._stack.append(int(index))
        self._frames.append((time.perf_counter(), float(pi)))

    def exit_child(self) -> None:
        t0, pi = self._frames.pop()
        span = self._span(tuple(self._stack))
        self._stack.pop()
        span.pi = pi
        span.seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # leaves, ledger and convergence
    # ------------------------------------------------------------------ #

    def leaf_block(self, path: Tuple[int, ...], nums, dens) -> None:
        """Fold one evaluated world block into the leaf's ledger + events.

        Events track the *ratio* estimand ``sum(num) / sum(den)`` — the
        quantity the estimate actually reports (Eq. 22 for conditional
        queries; for unconditional ones ``den == 1`` and this reduces to
        the numerator mean) — with a delta-method CI.  ``ci95`` is always
        the 95% half-width; ``half_width`` is at the run's confidence.
        """
        self._span(path).ensure_ledger().add_arrays(nums, dens)
        self._cum_n += int(nums.size)
        self._cum_num += float(nums.sum())
        self._cum_sq += float((nums * nums).sum())
        self._cum_den += float(dens.sum())
        self._cum_den_sq += float((dens * dens).sum())
        self._cum_cross += float((nums * dens).sum())
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        n = self._cum_n
        mean_num = self._cum_num / n
        mean_den = self._cum_den / n
        var_num = max(0.0, self._cum_sq / n - mean_num * mean_num)
        var_den = max(0.0, self._cum_den_sq / n - mean_den * mean_den)
        cov = self._cum_cross / n - mean_num * mean_den
        variance = ratio_variance(mean_num, mean_den, var_num, var_den, cov, n)
        se = variance**0.5
        self.events.append(
            {
                "worlds": n,
                "mean": mean_num / mean_den if mean_den else float("nan"),
                "ci95": _Z95 * se,
                "half_width": self._z * se,
                "den": mean_den,
            }
        )

    def leaf_swept(self, path: Tuple[int, ...], seconds: float) -> None:
        """Charge a leaf's share of a fused sweep to its enclosing spans.

        Leaves are traversed together after the recursion has been planned
        (:class:`repro.core.base.LeafBatch`), outside the enter/exit timing
        of their spans; this adds the leaf's worlds-share of the sweep to
        the inclusive ``seconds`` of every span on its path that this
        context timed, so the profile still sums to the wall-clock.
        """
        for depth in range(len(self.base_path) + 1, len(path) + 1):
            span = self.spans.get(tuple(path[:depth]))
            if span is not None and span.seconds > 0.0:
                span.seconds += seconds

    def leaf_done(
        self,
        path: Tuple[int, ...],
        n_samples: int,
        worlds: int,
        seconds: float,
        *,
        kind: str = "leaf",
        pi: Optional[float] = None,
    ) -> None:
        """Finalise a sampling leaf's span after its blocks were recorded."""
        span = self._span(path)
        if span.kind is None or span.kind == "leaf":
            span.kind = kind
        span.n_samples += int(n_samples)
        span.worlds += int(worlds)
        span.self_seconds += float(seconds)
        if pi is not None:
            span.pi = float(pi)

    def record_leaf_arrays(
        self,
        rng: Any,
        nums,
        dens,
        n_samples: int,
        seconds: float,
        *,
        index: Optional[int] = None,
        pi: Optional[float] = None,
        kind: str = "leaf",
    ) -> None:
        """One-shot leaf recorded from already-evaluated pair arrays.

        Used by the estimators that batch-evaluate all their worlds at once
        (FS's complement stratum, ANMC's mirrored block) instead of going
        through :func:`repro.core.base.sample_mean_pair`.
        """
        path = self.current_path(rng)
        if index is not None:
            path = path + (int(index),)
        self.leaf_block(path, nums, dens)
        self.leaf_done(path, n_samples, int(nums.size), seconds, kind=kind, pi=pi)

    # ------------------------------------------------------------------ #
    # parallel engine plumbing
    # ------------------------------------------------------------------ #

    def record_job(self, path: Sequence[int], seconds: float, pid: int) -> None:
        """Record one evaluated job's wall-clock (driver- or worker-side)."""
        self.worker_jobs.append(
            {"path": [int(i) for i in path], "seconds": float(seconds), "pid": int(pid)}
        )

    def record_parallel(
        self,
        n_workers: int,
        n_jobs: int,
        pool_seconds: float,
        completion_offsets: Optional[Sequence[float]] = None,
    ) -> None:
        """Summarise the pool run: utilisation, queue depth, chunk timings."""
        busy = sum(job["seconds"] for job in self.worker_jobs)
        utilisation = None
        if pool_seconds > 0.0 and n_workers > 0:
            utilisation = busy / (pool_seconds * n_workers)
        self.parallel = {
            "n_workers": int(n_workers),
            "n_jobs": int(n_jobs),
            "pool_seconds": float(pool_seconds),
            "busy_seconds": busy,
            "utilisation": utilisation,
            "max_pending": int(n_jobs),
            "completion_offsets": [
                float(t) for t in (completion_offsets or [])
            ],
            "jobs": list(self.worker_jobs),
        }

    def worker_payload(self, job_seconds: float, path: Sequence[int]) -> dict:
        """Picklable trace a pool worker ships back with its job result."""
        return {
            "spans": [span.to_dict() for span in self.spans.values()],
            "events": list(self.events),
            "events_dropped": self.events_dropped,
            "job": {
                "path": [int(i) for i in path],
                "seconds": float(job_seconds),
                "pid": os.getpid(),
            },
        }

    def absorb_worker(self, payload: Dict[str, Any]) -> None:
        """Merge a worker context's payload into the driver context."""
        for data in payload["spans"]:
            incoming = Span.from_dict(data)
            existing = self.spans.get(incoming.path)
            if existing is None:
                self.spans[incoming.path] = incoming
            else:
                existing.merge(incoming)
        job = payload["job"]
        for event in payload["events"]:
            if len(self.events) >= MAX_EVENTS:
                self.events_dropped += 1
                continue
            self.events.append(dict(event, job=list(job["path"])))
        self.events_dropped += int(payload.get("events_dropped", 0))
        self.worker_jobs.append(dict(job))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def finish(
        self,
        *,
        numerator: float,
        denominator: float,
        n_samples: int,
        n_worlds: int,
        seed: Optional[int] = None,
        n_workers: int = 0,
    ) -> TraceReport:
        """Seal the trace: weights, root timing, metadata, exporters."""
        root = self._span(())
        if root.seconds <= 0.0:
            root.seconds = time.perf_counter() - self._started
        resolve_weights(self.spans)
        value = numerator / denominator if denominator else float("nan")
        meta = {
            "schema": TRACE_SCHEMA_VERSION,
            "generated_by": "repro-trace",
            "estimator": self.estimator,
            "n_samples": int(n_samples),
            "n_worlds": int(n_worlds),
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "n_workers": int(n_workers),
            "value": value,
            "numerator": float(numerator),
            "denominator": float(denominator),
            "confidence": self.confidence,
            "python": platform.python_version(),
            "events_dropped": self.events_dropped,
        }
        self.report = TraceReport(
            self.estimator, meta, self.spans, self.events, self.parallel
        )
        for exporter in self.exporters:
            exporter.export(self.report)
        if self.auto_file:
            from repro.telemetry.exporters import JsonlExporter

            JsonlExporter(self.auto_file).export(self.report)
        return self.report


#: Public name for an explicitly-constructed tracing context.
Tracer = TraceContext


# ---------------------------------------------------------------------- #
# module-level active context (the audit-layer pattern)
# ---------------------------------------------------------------------- #

_ACTIVE: Optional[TraceContext] = None

# Sentinel distinguishing "no thread-local override" from "overridden with
# None" (see repro.audit — the pattern is shared).
_UNSET = object()


class _LocalSlot(threading.local):
    ctx: Any = _UNSET


_LOCAL = _LocalSlot()


def active() -> Optional[TraceContext]:
    """The active trace context, or ``None`` — the hot-path guard.

    A thread-local override (:func:`activate_local`) shadows the
    process-wide context, giving each thread-pool worker its own per-job
    context while the driver thread keeps the run-level one.
    """
    local = _LOCAL.ctx
    if local is not _UNSET:
        return local
    return _ACTIVE


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` for the duration of a ``with``; ``None`` is a no-op."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = previous


@contextmanager
def activate_local(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` for the current thread only (thread-pool workers).

    Shadows the process-wide context even when ``ctx`` is ``None``, so an
    untraced worker job never records spans into the driver's context.
    """
    previous = _LOCAL.ctx
    _LOCAL.ctx = ctx
    try:
        yield ctx
    finally:
        _LOCAL.ctx = previous


def resolve_tracer(trace: Any, estimator: str = "estimator") -> Optional[TraceContext]:
    """Resolve an ``estimate(..., trace=...)`` argument to a context.

    ``None`` honours ``REPRO_TRACE``; booleans force tracing on or off; a
    :class:`Tracer` instance is adopted as-is (its estimator name is filled
    in when left at the default).  Env-resolved tracers auto-export to
    ``REPRO_TRACE_FILE`` when that variable names a path.
    """
    if isinstance(trace, TraceContext):
        if trace.estimator == "estimator":
            trace.estimator = estimator
        return trace
    enabled = env_enabled() if trace is None else bool(trace)
    if not enabled:
        return None
    ctx = TraceContext(estimator)
    target = os.environ.get(TRACE_FILE_ENV, "").strip()
    if target:
        ctx.auto_file = target
    return ctx


# ---------------------------------------------------------------------- #
# instrumentation hooks used by the estimators
# ---------------------------------------------------------------------- #

def split(
    counter: Any,
    rng: Any,
    *,
    pis,
    pi0: float = 0.0,
    allocations=None,
    n_samples: int = 0,
) -> Optional[TraceContext]:
    """Record one recursion node's stratification; returns the context.

    Always updates the result diagnostics on ``counter`` (split/stratum
    counts, analytic mass — pass ``None`` for engine-internal budget chunks
    that are not statistical strata); records a span only when tracing is
    active.  The returned context (or ``None``) lets the caller guard its
    enter/exit calls without re-reading the module global.
    """
    if counter is not None:
        counter.record_split(len(pis), float(pi0))
    ctx = active()
    if ctx is not None:
        ctx.record_split(
            rng, pis=pis, pi0=pi0, allocations=allocations, n_samples=n_samples
        )
    return ctx


def enter_child(
    counter: Any, ctx: Optional[TraceContext], index: int, pi: float
) -> None:
    """Descend into child stratum ``index`` (depth/weight + span stack)."""
    if counter is not None:
        counter.enter_child(float(pi))
    if ctx is not None:
        ctx.enter_child(index, pi)


def exit_child(counter: Any, ctx: Optional[TraceContext]) -> None:
    """Ascend out of the current child stratum."""
    if counter is not None:
        counter.exit_child()
    if ctx is not None:
        ctx.exit_child()


__all__ = [
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "TRACE_SCHEMA_VERSION",
    "MAX_EVENTS",
    "RESIDUAL_INDEX",
    "TraceContext",
    "Tracer",
    "TraceReport",
    "env_enabled",
    "active",
    "activate",
    "activate_local",
    "resolve_tracer",
    "split",
    "enter_child",
    "exit_child",
]
