"""World-block cache: sampled worlds shared across queries.

Every NMC-family estimate consumes a stream of sampled world blocks
(:func:`repro.graph.world.iter_mask_blocks`).  For a fixed ``(graph, seed,
stratum path, conditioning)`` that stream is deterministic, so two queries
with the same sampling coordinates traverse *identical* worlds — yet the
historical path re-draws them per call.  :class:`WorldBlockCache` stores the
packed world rows keyed by ``(graph fingerprint, seed, stratum path,
conditioning digest)`` so the second query (and the thousandth) pays zero
sampling cost.  The digest is
:meth:`EdgeStatuses.signature() <repro.graph.statuses.EdgeStatuses.signature>`
— ``""`` for the unconditioned root stratum, a short content hash of the
pinned status vector otherwise — which is what lets the stratified families'
conditioned leaf streams share one cache without key collisions.

Bit-parity contract
-------------------
``blocks()`` yields boolean blocks with *exactly* the rows and block
boundaries ``iter_mask_blocks`` would produce for the same arguments,
whether the worlds come fresh from the generator or out of the cache:

* the generator is rebuilt from the key alone — ``resolve_rng(seed)`` for
  the root path ``()``, the path-keyed
  :class:`~repro.rng.StratumRng` stream otherwise — so cached sampling
  never consumes anyone else's stream;
* the boundary plan is a pure function of ``(n_worlds, n_free)``
  (:func:`block_plan`), mirroring ``iter_mask_blocks``'s chunk budget —
  and ``n_free`` is pinned by the key's conditioning digest, so every
  request under one key shares one plan;
* numpy's uniform draws fill row-major, so the first ``W`` rows of a
  ``W' > W`` draw equal the ``W``-row draw — a cache entry sampled at a
  larger world count serves any smaller request by prefix slicing,
  bit-identically.

Worlds are stored bit-packed (:func:`repro.graph.bitsets.pack_masks`,
8 worlds per byte per edge), an 8x saving over boolean blocks.  Entries are
evicted least-recently-used once the byte budget is exceeded; an entry
larger than the whole budget is served but never stored (counted in
``CacheStats.oversize_misses`` — a key that keeps re-sampling because it can
never fit should show up in telemetry, not hide).  Block-consuming replay
paths (``keep_words=True``) additionally memoise each block's per-edge
world-words kernel layout on the entry, trading roughly 2x entry bytes for
warm hits that skip the transpose-and-pack entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import metrics as _metrics
from repro.errors import EstimatorError
from repro.graph.bitsets import WORD_BITS, pack_masks, unpack_masks, with_edge_words
from repro.graph.statuses import EdgeStatuses
from repro.graph.uncertain import UncertainGraph
from repro.graph import world as _world
from repro.graph.world import iter_mask_blocks
from repro.rng import StratumRng, resolve_rng

#: Cache key: (graph fingerprint, seed, stratum path, conditioning digest).
CacheKey = Tuple[str, int, Tuple[int, ...], str]

#: Default cache byte budget (packed worlds): 256 MiB.
DEFAULT_CACHE_BYTES = 256 << 20


def block_plan(n_worlds: int, n_edges: int, n_free: Optional[int] = None) -> List[int]:
    """The block sizes ``iter_mask_blocks`` uses for this world/edge count.

    Mirrors the chunk-budget arithmetic of
    :func:`repro.graph.world.iter_mask_blocks`: the budget is spent on the
    *free* edges only, so a conditioned statuses vector (a stratified leaf
    with pinned edges) chunks by ``n_free``, not ``n_edges``.  ``n_free``
    defaults to ``n_edges`` — the fully-free root stratum.  Cached replay
    hands estimators the same block boundaries — and therefore the same
    per-block float accumulation — as fresh sampling.
    """
    per_world = max(int(n_edges if n_free is None else n_free), 1)
    chunk = max(1, min(n_worlds, _world._DEFAULT_CHUNK_BUDGET // per_world))
    sizes = []
    produced = 0
    while produced < n_worlds:
        take = min(chunk, n_worlds - produced)
        sizes.append(take)
        produced += take
    return sizes


def _key_rng(seed: int, path: Tuple[int, ...]):
    """The generator ``iter_mask_blocks`` would receive for this key.

    Path ``()`` is the sequential recursion root (``resolve_rng(seed)``,
    i.e. ``default_rng(seed)``); a non-empty path is a parallel-engine
    stratum, whose stream is keyed by position exactly as
    :class:`~repro.rng.StratumRng` keys it.  Built straight from the
    ``SeedSequence`` rather than via ``StratumRng.generator`` so a cache
    miss never registers the path with an active audit context — the
    consumer's own handle (or :class:`~repro.graph.worldsource.
    CachedWorldSource` on its behalf) does that once.
    """
    if path:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(path))
        )
    return resolve_rng(seed)


@dataclass
class CacheStats:
    """Counters of one :class:`WorldBlockCache` (snapshot, not live)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0
    #: Stores skipped because the entry alone busts the byte budget — each
    #: such key re-samples on every call, so a nonzero count is a sizing
    #: signal, not background noise.
    oversize_misses: int = 0
    #: High-water mark of held bytes over the cache's lifetime.
    bytes_peak: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry:
    """One cached world stream: packed rows plus bookkeeping.

    ``words`` memoises the per-edge world-words kernel layout
    (``pack_masks(block.T)``) per served block span ``(start, take)`` —
    computed once, reused by every later hit, and counted against the byte
    budget like the rows themselves.
    """

    __slots__ = ("packed", "n_worlds", "n_edges", "words")

    def __init__(
        self,
        packed: np.ndarray,
        n_worlds: int,
        n_edges: int,
        words: Optional[dict] = None,
    ) -> None:
        self.packed = packed
        self.n_worlds = n_worlds
        self.n_edges = n_edges
        self.words = {} if words is None else words

    @property
    def nbytes(self) -> int:
        return int(self.packed.nbytes) + sum(
            int(w.nbytes) for w in self.words.values()
        )


class WorldBlockCache:
    """LRU cache of world blocks keyed by ``(fingerprint, seed, path, digest)``.

    Thread-safe; the serving engine's dispatch thread and test code may use
    one instance concurrently.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise EstimatorError("cache byte budget must be non-negative")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._bytes = 0
        self._bytes_peak = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversize_misses = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
                oversize_misses=self._oversize_misses,
                bytes_peak=self._bytes_peak,
            )

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------ #
    # the one operation: stream blocks for a key
    # ------------------------------------------------------------------ #

    def blocks(
        self,
        graph: UncertainGraph,
        n_worlds: int,
        seed: int,
        path: Tuple[int, ...] = (),
        statuses: Optional[EdgeStatuses] = None,
        keep_words: bool = False,
    ) -> Iterator[np.ndarray]:
        """Yield the world blocks of ``iter_mask_blocks`` for this key.

        A *hit* replays the stored packed rows (prefix-sliced when the entry
        holds more worlds than requested); a *miss* samples fresh worlds
        from the key's own generator, stores them packed, and yields the
        very blocks it sampled.  Either way the yielded blocks decode
        bit-identically to ``iter_mask_blocks(statuses, n_worlds, <key
        rng>)``: misses yield boolean blocks, while a hit whose kernel
        layout is already memoised (``keep_words=True``) yields the packed
        rows themselves, read-only, with the layout attached — consumers
        normalise either representation via
        :func:`repro.queries.batch.as_mask_block`.

        ``statuses`` carries the conditioning of a stratified leaf (pinned
        edges); it defaults to the all-free root assignment.  Its
        :meth:`~repro.graph.statuses.EdgeStatuses.signature` joins the key,
        so differently conditioned streams at one ``(seed, path)`` coexist.

        Closing the iterator early (an adaptive consumer that met its
        target CI mid-stream) stores the prefix sampled so far: the prefix
        property makes a partial entry exactly as valid as a full one.  An
        undersized entry whose row count lands on this request's block
        boundaries is replayed as a *partial hit* — its blocks are served
        from storage and fresh sampling only begins if the consumer
        actually reads past the stored prefix (the prefix draws are then
        regenerated unevaluated to advance the generator, and the extended
        stream is stored).

        ``keep_words=True`` additionally memoises each block's per-edge
        world-words kernel layout on the entry and attaches it to the
        yielded blocks (:class:`~repro.graph.bitsets.ReplayBlock`), so
        traversal kernels skip the transpose-and-pack on every replay.
        Only blocks spanning at least one full 64-world word column are
        memoised — narrower ones are almost entirely padding in the words
        layout and cost little to repack.
        The layout roughly doubles an entry's footprint and is counted
        against the byte budget, hence opt-in: block-consuming estimator
        paths (via :class:`~repro.graph.worldsource.CachedWorldSource`)
        want it, raw row readers do not.
        """
        if n_worlds < 0:
            raise EstimatorError("n_worlds must be non-negative")
        if statuses is None:
            statuses = EdgeStatuses(graph)
        key: CacheKey = (
            graph.fingerprint(),
            int(seed),
            tuple(path),
            statuses.signature(),
        )
        plan = block_plan(n_worlds, graph.n_edges, statuses.n_free)
        chunk = plan[0] if plan else 1
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (
                entry.n_worlds >= n_worlds
                or (entry.n_worlds > 0 and entry.n_worlds % chunk == 0)
            ):
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                entry = None
                self._misses += 1
        reg = _metrics.active()
        if reg is not None:
            reg.inc(
                "repro_cache_hits_total" if entry is not None
                else "repro_cache_misses_total"
            )
        stored = 0
        if entry is not None:
            produced = 0
            served = min(entry.n_worlds, n_worlds)
            for take in plan:
                if produced + take > served:
                    break
                rows = entry.packed[produced : produced + take]
                # Blocks narrower than one word column are nearly all
                # padding in the words layout and cheap to repack — the
                # memo only earns its bytes on wide blocks.
                if keep_words and take >= WORD_BITS:
                    span = (produced, take)
                    words = entry.words.get(span)
                    if words is None:
                        block = unpack_masks(rows, graph.n_edges)
                        words = pack_masks(block.T)
                        self._note_words(key, entry, span, words)
                        block = with_edge_words(block, words)
                    else:
                        # Fully-memoised replay: hand out the packed rows
                        # themselves (read-only, zero-copy) with the kernel
                        # layout attached — traversal consumers never
                        # unpack, anything else normalises via
                        # ``as_mask_block``.
                        block = with_edge_words(rows, words)
                        block.flags.writeable = False
                else:
                    block = unpack_masks(rows, graph.n_edges)
                yield block
                produced += take
            if produced >= n_worlds:
                return
            # Partial hit exhausted: fall through to fresh sampling, skipping
            # the `produced` worlds already served (their draws are replayed
            # to advance the generator but never unpacked or re-yielded).
            stored = produced
        # Miss (or a partial hit that ran dry): sample the real stream,
        # pack as we go, store on exit — normal exhaustion stores the full
        # stream, an early close (GeneratorExit) stores the prefix
        # materialised so far.
        rng = _key_rng(int(seed), tuple(path))
        packed_parts: List[np.ndarray] = (
            [entry.packed[:stored]] if entry is not None and stored else []
        )
        fresh_words: dict = {}
        if keep_words and entry is not None and stored:
            # Keep the old entry's memoised layouts for the replayed prefix
            # (the plan — and therefore the spans — is identical).
            for span, words in entry.words.items():
                if span[0] + span[1] <= stored:
                    fresh_words[span] = words
        produced = 0
        try:
            for block in iter_mask_blocks(statuses, n_worlds, rng):
                produced += block.shape[0]
                if produced <= stored:
                    continue  # replayed prefix draw: already served from cache
                packed_parts.append(pack_masks(block))
                if keep_words and block.shape[0] >= WORD_BITS:
                    words = pack_masks(block.T)
                    fresh_words[(produced - block.shape[0], block.shape[0])] = words
                    block = with_edge_words(block, words)
                yield block
        finally:
            packed = (
                np.concatenate(packed_parts, axis=0)
                if packed_parts
                else np.empty((0, 0), dtype=np.uint64)
            )
            self._store(
                key,
                _Entry(packed, max(produced, stored), graph.n_edges, fresh_words),
            )

    def _publish(self, reg, evicted: int = 0) -> None:
        """Push the byte/entry gauges (and any eviction delta) to ``reg``.

        Called outside the cache lock; the gauge reads race at worst one
        concurrent mutation behind, which the next publish corrects.
        """
        if evicted:
            reg.inc("repro_cache_evictions_total", float(evicted))
        reg.set("repro_cache_bytes", float(self._bytes))
        reg.set("repro_cache_bytes_peak", float(self._bytes_peak))
        reg.set("repro_cache_entries", float(len(self._entries)))

    def _note_words(self, key: CacheKey, entry: _Entry, span, words) -> None:
        """Account a lazily-computed kernel layout against the byte budget."""
        evicted = 0
        with self._lock:
            if self._entries.get(key) is not entry or span in entry.words:
                return  # evicted meanwhile, or another thread beat us to it
            entry.words[span] = words
            self._bytes += words.nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                self._evictions += 1
                evicted += 1
            if self._bytes > self.max_bytes:
                # Rows plus layout cannot fit even alone: keep serving this
                # key unmemoised rather than bust the budget.  (The loop
                # above only leaves us over budget if `entry` survived it.)
                del entry.words[span]
                self._bytes -= words.nbytes
            elif self._bytes > self._bytes_peak:
                self._bytes_peak = self._bytes
        reg = _metrics.active()
        if reg is not None:
            self._publish(reg, evicted)

    def _store(self, key: CacheKey, entry: _Entry) -> None:
        if entry.nbytes > self.max_bytes and entry.words:
            # Rows plus kernel layouts bust the budget: degrade to rows
            # only (replays still work, hits just repack lazily).
            entry.words.clear()
        if entry.nbytes > self.max_bytes:
            # Larger than the whole budget: serve, never store — and count
            # it, because this key will re-sample on every future call.
            with self._lock:
                self._oversize_misses += 1
            reg = _metrics.active()
            if reg is not None:
                reg.inc("repro_cache_oversize_total")
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                if old.n_worlds > entry.n_worlds:
                    # A short prefix must never shadow a longer entry
                    # (possible when an early-closed miss races a
                    # concurrent full store of the same key).
                    self._entries[key] = old
                    return
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            if self._bytes > self._bytes_peak:
                self._bytes_peak = self._bytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                self._evictions += 1
                evicted += 1
            if self._bytes > self.max_bytes:
                # The sole remaining entry is the one just stored and it
                # alone busts the budget (possible when the budget shrank
                # between the guard above and here under races): drop it.
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                self._evictions += 1
                evicted += 1
        reg = _metrics.active()
        if reg is not None:
            self._publish(reg, evicted)


__all__ = [
    "CacheKey",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "WorldBlockCache",
    "block_plan",
]
