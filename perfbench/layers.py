"""Outside-in tracing of the package's layers, for the traced run only.

:class:`LayerTracer` wraps public entry points of each layer from here —
module functions wherever they are bound, class methods on their defining
class — records a span per call (name, start, end, parent, request id)
in memory, and restores every original on :meth:`LayerTracer.uninstall`.
Nothing under ``src/`` changes, and untraced runs never install it.

A layer's self time is its spans' duration minus the part their child
spans cover.  :meth:`LayerTracer.unmeasured` lists the entry points a
workload should hit but did not, so a refactor that moves a layer reports
"unmeasured" instead of a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

WORD_BITS = 64

#: Modules whose import binds the wrapped entry points.
MODULES = (
    "repro.graph.world",
    "repro.graph.worldsource",
    "repro.queries.base",
    "repro.queries.batch",
    "repro.core",
    "repro.core.base",
    "repro.parallel.driver",
    "repro.adaptive.engine",
    "repro.serving.batcher",
    "repro.serving.cache",
    "repro.serving.engine",
)

# (key, owner module, attribute path, kind, span name, bound only in)
#   kind "gen": generator; each next() is a span, worlds = rows yielded
#   kind "call": plain call span; worlds from the ``worlds`` extractor
#   kind "count": no span, hit counter only (per-leaf orchestration)
ENTRY_POINTS = (
    ("graph.iter_mask_blocks", "repro.graph.world", "iter_mask_blocks", "gen", "graph.sample", None),
    ("graph.sample_edge_masks", "repro.graph.world", "sample_edge_masks", "call", "graph.sample", None),
    ("graph.pack_masks", "repro.graph.bitsets", "pack_masks", "call", "graph.pack", "repro.queries.batch"),
    ("queries.Query.evaluate_pairs", "repro.queries.base", "Query.evaluate_pairs", "call", "queries.eval", None),
    ("queries.ThresholdQuery.evaluate_pairs", "repro.queries.base", "ThresholdQuery.evaluate_pairs", "call", "queries.eval", None),
    ("queries.grouped_reachable_counts_batch", "repro.queries.batch", "grouped_reachable_counts_batch", "call", "queries.eval", "repro.serving.engine"),
    ("queries.grouped_st_distances_batch", "repro.queries.batch", "grouped_st_distances_batch", "call", "queries.eval", "repro.serving.engine"),
    ("core.Estimator.estimate", "repro.core.base", "Estimator.estimate", "call", "core.estimate", None),
    ("core.sample_mean_pair", "repro.core.base", "sample_mean_pair", "count", None, None),
    ("core.residual_mixture_pair", "repro.core.base", "residual_mixture_pair", "count", None, None),
    ("parallel.estimate_parallel", "repro.parallel.driver", "estimate_parallel", "call", "parallel.driver", None),
    ("adaptive.estimate_adaptive", "repro.adaptive.engine", "estimate_adaptive", "call", "adaptive.engine", None),
    ("serving.WorldBlockCache.blocks", "repro.serving.cache", "WorldBlockCache.blocks", "gen", "serving.cache.blocks", None),
    ("serving.MicroBatcher.submit", "repro.serving.batcher", "MicroBatcher.submit", "submit", None, None),
    ("serving.MicroBatcher.next_batch", "repro.serving.batcher", "MicroBatcher.next_batch", "next_batch", None, None),
)

#: Entry points each workload must hit (the layers that do work there).
REQUIRED = {
    "oneshot-nmc": (
        "graph.iter_mask_blocks", "graph.pack_masks",
        "queries.Query.evaluate_pairs", "core.Estimator.estimate",
        "core.sample_mean_pair",
    ),
    "oneshot-strat": (
        "graph.iter_mask_blocks", "graph.pack_masks",
        "queries.Query.evaluate_pairs", "core.Estimator.estimate",
        "core.sample_mean_pair",
    ),
    "serve-mix": (
        "graph.iter_mask_blocks", "graph.pack_masks",
        "queries.Query.evaluate_pairs",
        "queries.grouped_reachable_counts_batch",
        "queries.grouped_st_distances_batch",
        "core.Estimator.estimate", "core.sample_mean_pair",
        "parallel.estimate_parallel", "adaptive.estimate_adaptive",
        "serving.WorldBlockCache.blocks", "serving.MicroBatcher.submit",
        "serving.MicroBatcher.next_batch",
    ),
}

#: Every per-layer metric, in BENCHMARK.json order: (name, unit, better,
#: the end-to-end metrics and workloads it should move).
LAYER_METRICS = (
    ("graph.sample_s", "s", "lower",
     "worlds_per_s, s_to_ci on oneshot-nmc; latency_ms_p50 on serve-mix (misses)"),
    ("graph.worlds_sampled", "count", "lower",
     "latency_ms_p50 on serve-mix (cache misses resample)"),
    ("graph.pack_s", "s", "lower", "worlds_per_s, s_to_ci on oneshot-nmc"),
    ("queries.eval_s", "s", "lower",
     "worlds_per_s on oneshot-nmc; latency_ms_p50, s_to_ci on oneshot-strat"),
    ("queries.eval_calls", "count", "lower", "latency_ms_p50, s_to_ci on oneshot-strat"),
    ("queries.worlds_per_call", "worlds", "higher",
     "latency_ms_p50, s_to_ci on oneshot-strat"),
    ("queries.lane_occupancy", "frac", "higher",
     "latency_ms_p50, s_to_ci on oneshot-strat; worlds_per_s on oneshot-nmc"),
    ("core.estimate_s", "s", "lower", "latency_ms_p50, latency_ms_p90 on one-shot workloads"),
    ("core.self_s", "s", "lower",
     "latency_ms_p50, latency_ms_p90, s_to_ci on oneshot-strat; none on oneshot-nmc"),
    ("core.leaves_per_estimate", "count", "lower", "latency_ms_p50, s_to_ci on oneshot-strat"),
    ("core.worlds_per_budget", "ratio", "lower", "worlds_per_s, s_to_ci on oneshot-strat"),
    ("parallel.driver_s", "s", "lower", "latency_ms_p99 on serve-mix"),
    ("serving.admission_wait_ms_p50", "ms", "lower", "latency_ms_p90, slo_frac on serve-mix"),
    ("serving.admission_wait_ms_p90", "ms", "lower", "latency_ms_p99, slo_frac on serve-mix"),
    ("serving.batch_size_mean", "count", "higher", "latency_ms_p90 on serve-mix"),
    ("serving.dispatch_busy_frac", "frac", "lower",
     "latency_ms_p90, latency_ms_p99, slo_frac on serve-mix"),
    ("serving.cache.hit_rate", "frac", "higher", "latency_ms_p90 on serve-mix"),
    ("serving.cache.misses", "count", "lower", "latency_ms_p90 on serve-mix"),
    ("serving.cache.evictions", "count", "lower", "latency_ms_p90 on serve-mix"),
    ("serving.cache.bytes_peak", "bytes", "lower", "peak_rss_mb on serve-mix"),
    ("serving.cache.oversize_misses", "count", "lower", "latency_ms_p99 on serve-mix"),
    ("serving.cache.blocks_s", "s", "lower", "latency_ms_p90, latency_ms_p99 on serve-mix"),
    ("adaptive.worlds_per_query", "worlds", "lower", "latency_ms_p90, s_to_ci on serve-mix"),
    ("adaptive.converged_frac", "frac", "higher", "latency_ms_p90, s_to_ci on serve-mix"),
    ("proc.cpu_util", "ratio", "lower", "context: CPU seconds per wall second"),
    ("trace.overhead_frac", "frac", "lower", "context: traced vs untraced latency_ms_p50"),
)

# span record slots
SID, NAME, T0, T1, PARENT, RID, WORLDS, BUDGET = range(8)


def _rows(block: Any) -> int:
    return int(np.shape(block)[0])


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.rid: Any = None
        self.batch: Optional[list] = None


class LayerTracer:
    """Spans and counters at the layer boundaries of the package."""

    def __init__(self, exclude: Iterable[str] = ()) -> None:
        self.exclude = frozenset(exclude)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count()
        self._local = _Local()
        self._lock = threading.Lock()
        self.reset()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Forget everything recorded so far (start of the measured window)."""
        self.spans: List[list] = []
        self.hits: Dict[str, int] = {}
        self._submitted: Dict[int, Tuple[float, Any]] = {}
        self.waits: List[float] = []
        self.batch_sizes: List[int] = []
        self.busy_s = 0.0
        self.t_reset = time.perf_counter()

    def set_request(self, rid: Any) -> None:
        """Request id inherited by root spans opened on this thread."""
        self._local.rid = rid

    def _hit(self, key: str) -> None:
        with self._lock:
            self.hits[key] = self.hits.get(key, 0) + 1

    def _open(self, name: str, rid: Any = None) -> list:
        stack = self._local.stack
        if stack:
            parent = stack[-1]
            rec = [next(self._ids), name, time.perf_counter(), 0.0, parent[SID],
                   parent[RID] if rid is None else rid, 0, 0]
        else:
            rec = [next(self._ids), name, time.perf_counter(), 0.0, -1,
                   self._local.rid if rid is None else rid, 0, 0]
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        stack = self._local.stack
        if stack and stack[-1] is rec:
            stack.pop()
        elif rec in stack:
            stack.remove(rec)
        self.spans.append(rec)

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _wrap_call(self, key: str, name: str, fn: Callable) -> Callable:
        tracer = self
        if key == "core.Estimator.estimate":
            def record(rec, args, out):
                rec[WORLDS] = out.n_worlds
                rec[BUDGET] = out.n_samples
        elif key in ("queries.grouped_reachable_counts_batch",
                     "queries.grouped_st_distances_batch"):
            def record(rec, args, out):
                rec[WORLDS] = _rows(args[1])
        elif name == "queries.eval":
            def record(rec, args, out):
                rec[WORLDS] = _rows(args[2])
        elif name == "graph.sample":
            def record(rec, args, out):
                rec[WORLDS] = _rows(out)
        else:
            record = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._hit(key)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(rec, args, out)
                return out
            finally:
                tracer._close(rec)

        return wrapper

    def _wrap_gen(self, key: str, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(inner):
            try:
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    rec[WORLDS] = _rows(item)
                    yield item
            finally:
                rec = tracer._open(name)
                try:
                    inner.close()
                finally:
                    tracer._close(rec)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._hit(key)
            return traced(fn(*args, **kwargs))

        return wrapper

    def _wrap_count(self, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._hit(key)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_submit(self, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(batcher, item):
            tracer._hit(key)
            tracer._submitted[id(item)] = (time.perf_counter(), tracer._local.rid)
            return fn(batcher, item)

        return wrapper

    def _wrap_next_batch(self, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(batcher):
            tracer._hit(key)
            local = tracer._local
            if local.batch is not None:
                tracer._close(local.batch)
                tracer.busy_s += local.batch[T1] - max(local.batch[T0], tracer.t_reset)
                local.batch = None
            batch = fn(batcher)
            if batch:
                now = time.perf_counter()
                rids = []
                for item in batch:
                    t_submit, rid = tracer._submitted.pop(id(item), (None, None))
                    if t_submit is not None:
                        tracer.waits.append(now - t_submit)
                    rids.append(rid)
                tracer.batch_sizes.append(len(batch))
                # The dispatch thread is busy with this batch until it asks
                # for the next one; its serving work nests under this span.
                local.batch = tracer._open("serving.batch", rid=rids)
            return batch

        return wrapper

    def install(self) -> "LayerTracer":
        """Wrap every entry point not in ``exclude``; idempotent per tracer."""
        if self._patches:
            return self
        for name in MODULES:
            importlib.import_module(name)
        for key, module, path, kind, span, only_in in ENTRY_POINTS:
            if key in self.exclude:
                continue
            owner, attr, fn = _resolve(module, path)
            if kind == "gen":
                if not inspect.isgeneratorfunction(fn):
                    raise RuntimeError(f"{key} is no longer a generator function")
                wrapper = self._wrap_gen(key, span, fn)
            elif kind == "call":
                wrapper = self._wrap_call(key, span, fn)
            elif kind == "count":
                wrapper = self._wrap_count(key, fn)
            elif kind == "submit":
                wrapper = self._wrap_submit(key, fn)
            else:
                wrapper = self._wrap_next_batch(key, fn)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            # A module function: rebind it wherever the package bound it.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if only_in is not None and mod_name != only_in:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def unmeasured(self, workload: str) -> List[str]:
        """Entry points ``workload`` should have hit since the last reset."""
        return [key for key in REQUIRED[workload] if not self.hits.get(key)]

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics from the spans and counters since the reset."""
        layer_bits = {"graph": 1, "queries": 2, "core": 4, "parallel": 8,
                      "adaptive": 16, "serving": 32}
        gq = layer_bits["graph"] | layer_bits["queries"]
        spans = sorted(self.spans, key=lambda rec: rec[SID])
        above: Dict[int, int] = {}  # sid -> bitmask of ancestor layers
        child_s: Dict[int, float] = {}
        layer_of = {}
        for rec in spans:
            layer_of[rec[SID]] = layer_bits[rec[NAME].split(".", 1)[0]]
        for rec in spans:
            parent = rec[PARENT]
            mask = 0
            if parent in layer_of:
                mask = above[parent] | layer_of[parent]
                child_s[parent] = child_s.get(parent, 0.0) + rec[T1] - rec[T0]
            above[rec[SID]] = mask

        totals: Dict[str, float] = {}
        calls = worlds = lanes = 0
        estimates = est_worlds = est_budget = 0
        core_covered = 0.0
        for rec in spans:
            sid, name = rec[SID], rec[NAME]
            dur = rec[T1] - rec[T0]
            bit = layer_of[sid]
            outer = not above[sid] & bit
            self_s = dur - child_s.get(sid, 0.0)
            if bit & gq and above[sid] & layer_bits["core"] and not above[sid] & gq:
                core_covered += dur
            if name == "graph.sample":
                totals["graph.sample_s"] = totals.get("graph.sample_s", 0.0) + dur
                totals["graph.worlds_sampled"] = totals.get("graph.worlds_sampled", 0) + rec[WORLDS]
            elif name == "graph.pack":
                totals["graph.pack_s"] = totals.get("graph.pack_s", 0.0) + dur
            elif name == "queries.eval":
                totals["queries.eval_s"] = totals.get("queries.eval_s", 0.0) + self_s
                if outer:
                    calls += 1
                    worlds += rec[WORLDS]
                    lanes += WORD_BITS * -(-rec[WORLDS] // WORD_BITS)
            elif name == "core.estimate" and outer:
                estimates += 1
                est_worlds += rec[WORLDS]
                est_budget += rec[BUDGET]
                totals["core.estimate_s"] = totals.get("core.estimate_s", 0.0) + dur
            elif name == "parallel.driver" and outer:
                totals["parallel.driver_s"] = totals.get("parallel.driver_s", 0.0) + dur
            elif name == "serving.cache.blocks":
                totals["serving.cache.blocks_s"] = totals.get("serving.cache.blocks_s", 0.0) + self_s

        leaves = self.hits.get("core.sample_mean_pair", 0) + self.hits.get(
            "core.residual_mixture_pair", 0)
        waits_ms = [1e3 * w for w in self.waits]
        out = {name: 0.0 for name, *_ in LAYER_METRICS}
        out.update({k: float(v) for k, v in totals.items()})
        out.update({
            "queries.eval_calls": float(calls),
            "queries.worlds_per_call": worlds / calls if calls else 0.0,
            "queries.lane_occupancy": worlds / lanes if lanes else 0.0,
            "core.self_s": out["core.estimate_s"] - core_covered,
            "core.leaves_per_estimate": leaves / estimates if estimates else 0.0,
            "core.worlds_per_budget": est_worlds / est_budget if est_budget else 0.0,
            "serving.admission_wait_ms_p50": (
                float(np.percentile(waits_ms, 50)) if waits_ms else 0.0),
            "serving.admission_wait_ms_p90": (
                float(np.percentile(waits_ms, 90)) if waits_ms else 0.0),
            "serving.batch_size_mean": (
                statistics.fmean(self.batch_sizes) if self.batch_sizes else 0.0),
            "serving.dispatch_busy_frac": self.busy_s / wall_s if wall_s > 0 else 0.0,
        })
        return out

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Write ``meta`` and then one JSON array per span, one per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": [
                "sid", "name", "t0", "t1", "parent", "rid", "worlds", "budget"]}) + "\n")
            for rec in sorted(self.spans, key=lambda r: r[SID]):
                fh.write(json.dumps(rec) + "\n")
