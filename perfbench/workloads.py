"""Inputs, runs and correctness checks of the three benchmark workloads.

``oneshot-nmc``
    ``NMC().estimate`` on ``condmat_like(0.25)``: influence from the
    top-degree node and reliable distance between two well-posed top-degree
    pairs.  Sampling and frontier kernels dominate; orchestration is ~1%.
``oneshot-strat``
    RSS-I (``RSS1()``) and RCSS (``RCSS()``) influence from the top-degree
    node of ``facebook_like(0.2)``.  Over a hundred tiny leaves per call,
    so per-leaf orchestration and lane occupancy show here.
``serve-mix``
    A closed loop of SERVE_CALLERS callers into one ``ServingEngine`` on
    ``facebook_like(0.2)``: fixed-W NMC requests of four query shapes,
    target-CI SLO requests and stratified RSS-I requests, with Zipf-skewed
    request seeds so the world-block cache hits, misses and evicts.  The
    loop keeps the engine busy: on a small shared host an idle engine's
    latencies follow the host's wake-up delays more than the code.

Query sets are fixed functions of the graph (nodes ranked by out-degree,
distance pairs filtered by their reference reach probability), so the
stored reference values never depend on the workload seed.  The seed
drives everything else: call order, request order and request seeds.
One-shot estimator seeds are a fixed panel per cell, so the empirical
variance behind ``s_to_ci`` is exact from run to run.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats.mstats import hdquantiles

from repro.core import NMC, RCSS, RSS1
from repro.core import diagnostics
from repro.datasets.surrogates import condmat_like, facebook_like
from repro.queries import (
    InfluenceQuery,
    ReliableDistanceQuery,
    ThresholdDistanceQuery,
    ThresholdInfluenceQuery,
)
from repro.serving.bench import results_identical
from repro.serving.engine import ServingEngine

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

GRAPHS: Dict[str, Callable] = {
    "condmat": lambda: condmat_like(0.25),
    "facebook": lambda: facebook_like(0.2),
}

#: Top-degree sources whose reach probabilities the reference records.
PAIR_SOURCES = {"condmat": 1, "facebook": 8}
#: Targets recorded per source: the first ones, in degree-rank order, with a
#: reach probability above the lowest floor.
PAIR_TARGETS = 8
#: Reach-probability floors: a distance query is issued only above them.
REACH_FLOOR_MIN = 0.05
NMC_REACH_FLOOR = 0.5
SERVE_REACH_FLOOR = 0.05

#: Latency limits behind ``slo_frac``: the serving SLO, and for one-shot
#: calls a limit clear of their slowest cell even on a slow host.
SLO_S = 0.5
ONESHOT_SLO_S = 1.0
#: ``s_to_ci`` target: +-1% relative half-width at 95% confidence.
Z95 = 1.96
REL_HALF_WIDTH = 0.01
#: Correctness gate: seed means within this many combined standard errors.
GATE_SIGMAS = 4.0
#: Set-up is timed this many times per run, spread over the run (the host's
#: speed drifts on a scale of seconds); the median is reported.
SETUP_SAMPLES = 12
#: A one-shot panel stops early past this multiple of --seconds (but never
#: before PANEL_CAP_MIN_S), so a slow host cannot push a run past its time
#: limit.
PANEL_CAP = 1.5
PANEL_CAP_MIN_S = 30.0

# serve-mix traffic
SERVE_CALLERS = 4  # closed loop: each caller sends its next request on reply
SERVE_WARMUP_S = 2.0
SERVE_MAX_RATE = 400.0  # requests per second the pre-built stream can feed
SERVE_CACHE_BYTES = 32 << 20
SERVE_FIXED_W = 1024
SERVE_SLO_CEILING = 4096
SERVE_SLO_TARGET = 2.0  # absolute half-width on influence (~105 nodes)
SERVE_STRAT_N = 256
SERVE_SEED_POOL = 48
#: The pool of request seeds is the same in every run: RSS-I's cost differs
#: up to 4x between request seeds, and the Zipf-hottest seed carries a third
#: of a kind's requests, so a seed-drawn pool would let one seed's cost set
#: the whole run's tail.  ``--seed`` drives order and pairing instead.
SERVE_POOL_SEED = 20140331
SERVE_ZIPF_S = 1.3
SERVE_MIX = (("fast", 0.85), ("slo", 0.10), ("strat", 0.05))
SERVE_BLOCK = 20
SERVE_THRESHOLD_SPREAD = 100.0
SERVE_THRESHOLD_HOPS = 3.0
SERVE_TWINS = {"fast": 12, "slo": 4, "slo-engine": 4, "strat": 4}
SERVE_DRAIN_S = 120.0
SETUP_PAUSE_S = 0.05


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def top_nodes(graph, k: int) -> List[int]:
    """The ``k`` highest out-degree nodes (the serving bench's ranking)."""
    degrees = np.diff(graph.adjacency.indptr)
    order = np.argsort(degrees, kind="stable")[::-1]
    return [int(v) for v in order[:k]]


def well_posed_pairs(
    graph, graph_key: str, ref: dict, floor: float, per_source: int
) -> List[Tuple[int, int]]:
    """Top-degree sources paired with their first well-reached targets.

    For each recorded source (in degree-rank order), the first
    ``per_source`` targets in degree-rank order whose reference reach
    probability exceeds ``floor``.  A conditional distance query on a pair
    that is almost never connected fails with "conditioning event never
    observed"; such failures measure the workload, not the program, so
    those pairs are never issued.
    """
    pairs = []
    for source in top_nodes(graph, PAIR_SOURCES[graph_key]):
        reached = [t for t, p in ref["graphs"][graph_key]["reach"][str(source)] if p > floor]
        if len(reached) < per_source:
            raise RuntimeError(f"{graph_key} node {source} reaches only "
                               f"{len(reached)} recorded targets above {floor}")
        pairs.extend((source, t) for t in reached[:per_source])
    return pairs


def check_graph(graph, graph_key: str, ref: dict) -> None:
    expected = ref["graphs"][graph_key]["fingerprint"]
    if graph.fingerprint() != expected:
        raise RuntimeError(
            f"{graph_key} graph fingerprint differs from the reference; "
            "regenerate reference.json with perfbench/reference.py"
        )


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of all order statistics: on a noisy host it
    moves much less from run to run than the one or two order statistics
    a plain percentile reads, and it estimates the same quantile.
    """
    return float(hdquantiles(np.asarray(values, dtype=np.float64), prob=[q])[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(build: Callable[[], object], samples: List[float]):
    """Call ``build``, append its duration to ``samples``, return its result."""
    t0 = time.perf_counter()
    out = build()
    samples.append(time.perf_counter() - t0)
    return out


def discard(obj, close: Callable[[object], None] = lambda obj: None) -> None:
    """Drop an extra set-up sample at once, so it does not linger until a
    later garbage collection and make ``peak_rss_mb`` depend on timing."""
    close(obj)
    del obj
    gc.collect()


def report_failure(what: str, exc: BaseException) -> None:
    print(f"perfbench: {what} failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


@dataclass
class Outcome:
    """What one pass of a workload produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[str]  # human-readable descriptions of failed checks
    layer_extras: Dict[str, float]
    wall_s: float  # the measured window


# --------------------------------------------------------------------------- #
# one-shot workloads
# --------------------------------------------------------------------------- #


@dataclass
class Cell:
    """One (estimator, query) pair of a one-shot workload."""

    label: str
    make: Callable
    query: object
    n: int
    calls_per_s: float  # panel size per second of --seconds
    ref_key: str

    def panel(self, seconds: float) -> int:
        return max(3, int(round(self.calls_per_s * seconds)))


def nmc_cells(graph, ref: dict) -> List[Cell]:
    top = top_nodes(graph, 1)[0]
    pairs = well_posed_pairs(graph, "condmat", ref, NMC_REACH_FLOOR, 2)
    cells = [Cell("nmc/influence", NMC, InfluenceQuery(top), 1024, 0.9,
                  f"influence:{top}")]
    for s, t in pairs:
        cells.append(Cell(f"nmc/distance:{s}->{t}", NMC,
                          ReliableDistanceQuery(s, t), 1024, 0.9,
                          f"distance:{s}->{t}"))
    return cells


def strat_cells(graph, ref: dict) -> List[Cell]:
    top = top_nodes(graph, 1)[0]
    query = InfluenceQuery(top)
    return [
        Cell("rss1/influence", RSS1, query, 256, 2.0, f"influence:{top}"),
        Cell("rcss/influence", RCSS, query, 256, 1.0, f"influence:{top}"),
    ]


ONESHOT = {
    "oneshot-nmc": ("condmat", nmc_cells),
    "oneshot-strat": ("facebook", strat_cells),
}


def panel_seed(cell_index: int, i: int) -> int:
    return 1000 * (cell_index + 1) + i


def run_oneshot(name: str, seed: int, seconds: float, ref: dict,
                tracer=None) -> Outcome:
    """Run every (cell, panel seed) call once, in a seed-shuffled order.

    Set-up (the graph build) is timed once up front and again at evenly
    spaced points of the panel, between calls; a traced pass skips that.
    """
    graph_key, make_cells = ONESHOT[name]
    setup: List[float] = []
    graph = timed(GRAPHS[graph_key], setup)
    check_graph(graph, graph_key, ref)
    cells = make_cells(graph, ref)
    estimators = [cell.make() for cell in cells]
    plan = [(c, i) for c, cell in enumerate(cells) for i in range(cell.panel(seconds))]
    random.Random(seed).shuffle(plan)
    rebuild_at = set() if tracer is not None else {
        (k * len(plan)) // SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)}

    # Warm-up outside the panel: lazy imports, scratch buffers.
    for c, cell in enumerate(cells):
        estimators[c].estimate(graph, cell.query, cell.n, rng=panel_seed(c, 999))

    if tracer is not None:
        tracer.reset()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    cap = wall0 + max(PANEL_CAP * seconds, PANEL_CAP_MIN_S)
    times: List[List[float]] = [[] for _ in cells]
    values: List[List[float]] = [[] for _ in cells]
    worlds = 0
    failed = 0
    checks: List[str] = []
    attempted = 0
    for rid, (c, i) in enumerate(plan):
        if time.perf_counter() > cap:
            print(f"perfbench: panel cut after {attempted} of {len(plan)} calls",
                  file=sys.stderr)
            break
        if rid in rebuild_at:
            discard(timed(GRAPHS[graph_key], setup))
        cell = cells[c]
        attempted += 1
        if tracer is not None:
            tracer.set_request(rid)
        t0 = time.perf_counter()
        try:
            result = estimators[c].estimate(graph, cell.query, cell.n,
                                            rng=panel_seed(c, i))
        except Exception as exc:  # counted, reported, run continues
            report_failure(f"{cell.label} seed {panel_seed(c, i)}", exc)
            failed += 1
            continue
        dt = time.perf_counter() - t0
        if not math.isfinite(result.value):
            failed += 1
            checks.append(f"{cell.label} seed {panel_seed(c, i)}: non-finite value")
            continue
        times[c].append(dt)
        values[c].append(result.value)
        worlds += result.n_worlds
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    s_to_ci = []
    for c, cell in enumerate(cells):
        entry = ref["graphs"][graph_key]["values"][cell.ref_key]
        if len(values[c]) < 2:
            checks.append(f"{cell.label}: fewer than 2 finite results")
            continue
        mean = statistics.fmean(values[c])
        var = statistics.variance(values[c])
        se = math.sqrt(var / len(values[c]) + entry["se"] ** 2)
        if abs(mean - entry["value"]) > GATE_SIGMAS * se:
            failed += len(values[c])
            checks.append(
                f"{cell.label}: seed mean {mean:.6g} is {abs(mean - entry['value']) / se:.1f} "
                f"combined SE from reference {entry['value']:.6g}"
            )
        # Predicted seconds to a +-1% half-width: worlds needed at this
        # per-call variance, times the median call time.
        per_world = (Z95 / (REL_HALF_WIDTH * entry["value"])) ** 2 * var
        s_to_ci.append(per_world * statistics.median(times[c]))

    lat = [t for cell_times in times for t in cell_times]
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_ms_p50": 1e3 * quantile(lat, 0.50) if lat else math.nan,
        "latency_ms_p90": 1e3 * quantile(lat, 0.90) if lat else math.nan,
        "latency_ms_p99": 1e3 * quantile(lat, 0.99) if lat else math.nan,
        "worlds_per_s": worlds / sum(lat) if lat else math.nan,
        "s_to_ci": geometric_mean(s_to_ci) if len(s_to_ci) == len(cells) else math.nan,
        "slo_frac": sum(t <= ONESHOT_SLO_S for t in lat) / max(1, attempted),
        "failed_frac": failed / max(1, attempted),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(metrics, attempted, failed, checks,
                   {"proc.cpu_util": cpu / wall if wall > 0 else 0.0}, wall)


def geometric_mean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        return math.nan
    return math.exp(statistics.fmean(math.log(v) for v in values))


# --------------------------------------------------------------------------- #
# serve-mix
# --------------------------------------------------------------------------- #


@dataclass
class Request:
    kind: str  # "fast" | "slo" | "slo-engine" | "strat"
    query: object
    n: int
    seed: int
    kwargs: dict


def serve_queries(graph, ref: dict) -> Dict[str, List[object]]:
    """Fast-path query shapes of ``serving.bench.build_workload``, well-posed."""
    anchors = top_nodes(graph, 8)
    pairs = well_posed_pairs(graph, "facebook", ref, SERVE_REACH_FLOOR, 1)
    return {
        "influence": [InfluenceQuery(a) for a in anchors],
        "distance": [ReliableDistanceQuery(s, t) for s, t in pairs],
        "threshold-influence": [
            ThresholdInfluenceQuery(a, threshold=SERVE_THRESHOLD_SPREAD)
            for a in anchors
        ],
        "threshold-distance": [
            ThresholdDistanceQuery(s, t, threshold=SERVE_THRESHOLD_HOPS)
            for s, t in pairs
        ],
    }


def serve_kinds(rng: np.random.Generator, n: int) -> List[str]:
    """Request kinds: the SERVE_MIX counts in every block of SERVE_BLOCK.

    The slow kinds sit at fixed, evenly spaced places in each block, so the
    callers' batches never pile slow requests together by chance and the
    tail quantiles measure the code rather than the draw; a third of the
    SLO requests, spread evenly and placed by the seed, go to the adaptive
    engine.
    """
    slow = [kind for kind, share in SERVE_MIX if kind != "fast"
            for _ in range(round(share * SERVE_BLOCK))]
    block = ["fast"] * SERVE_BLOCK
    for k, kind in enumerate(slow):
        block[(k * SERVE_BLOCK) // len(slow)] = kind
    kinds = (block * (n // SERVE_BLOCK + 1))[:n]
    slo = [i for i, kind in enumerate(kinds) if kind == "slo"]
    for i, engine in zip(slo, balanced(rng, (2.0, 1.0), len(slo))):
        if engine:
            kinds[i] = "slo-engine"
    return kinds


def balanced(rng: np.random.Generator, weights: Sequence[float], n: int) -> np.ndarray:
    """``n`` draws from ``weights`` whose counts are balanced in every prefix.

    Category ``c`` recurs every ``1 / p_c`` draws from a random phase, so in
    any prefix its count is within one of its share, and a rare category
    turns up in a short prefix as often as it would by chance.  A run
    consumes only a prefix of the stream, whose length depends on the
    host's speed, so balancing over the whole stream alone would let the
    seed change the load a run sees (anchor costs, hit rate, shape mix);
    this way the seed moves the phases, that is the order and which rare
    keys a run touches.
    """
    p = np.asarray(weights, dtype=np.float64)
    p = p / p.sum()
    recur = np.floor(n * p).astype(np.int64) + 1  # enough events per category
    category = np.repeat(np.arange(p.size), recur)
    k = np.arange(category.size) - np.repeat(np.cumsum(recur) - recur, recur)
    times = (rng.random(p.size)[category] + k) / p[category]
    return category[np.argsort(times, kind="stable")[:n]]


def serve_requests(graph, ref: dict, seed: int, n: int) -> List[Request]:
    """The request stream: exact kind counts per block, Zipf request seeds.

    Fast requests spread evenly over the four query shapes x 8 queries;
    SLO and stratified requests over influence from the top-8 anchors.
    Each kind draws its request seeds from Zipf(SERVE_ZIPF_S) over one
    fixed pool of SERVE_SEED_POOL seeds (see SERVE_POOL_SEED).  Request
    seeds and queries are each balanced per kind in every prefix (see
    :func:`balanced`): anchors and request seeds differ several-fold in
    cost, so ``seed`` must not change how much work a kind does, only its
    order and pairing.  A third of the SLO
    requests carry ``estimator=NMC()`` and so run through the adaptive
    engine instead of the inline SLO loop.
    """
    rng = np.random.default_rng(seed)
    pool = np.random.default_rng(SERVE_POOL_SEED).choice(
        2**31 - 1, size=SERVE_SEED_POOL, replace=False)
    zipf = 1.0 / np.arange(1, SERVE_SEED_POOL + 1) ** SERVE_ZIPF_S
    fast_queries = [q for family in serve_queries(graph, ref).values() for q in family]
    anchor_queries = [InfluenceQuery(a) for a in top_nodes(graph, 8)]
    kinds = serve_kinds(rng, n)
    draws = {}
    for kind in sorted(set(kinds)):
        count = kinds.count(kind)
        queries = fast_queries if kind == "fast" else anchor_queries
        seeds = [int(x) for x in pool[balanced(rng, zipf, count)]]
        picks = [queries[i] for i in balanced(rng, np.ones(len(queries)), count)]
        draws[kind] = iter(zip(seeds, picks))
    requests = []
    for kind in kinds:
        req_seed, query = next(draws[kind])
        if kind == "fast":
            requests.append(Request(kind, query, SERVE_FIXED_W, req_seed, {}))
        elif kind == "strat":
            requests.append(Request(kind, query, SERVE_STRAT_N, req_seed,
                                    {"estimator": RSS1()}))
        else:
            kwargs = {"target_ci": SERVE_SLO_TARGET}
            if kind == "slo-engine":
                kwargs["estimator"] = NMC()
            requests.append(Request(kind, query, SERVE_SLO_CEILING, req_seed, kwargs))
    return requests


def serve_setup():
    graph = GRAPHS["facebook"]()
    engine = ServingEngine(cache_bytes=SERVE_CACHE_BYTES)
    try:
        engine.register(graph)
    except BaseException:
        engine.close()
        raise
    return graph, engine


def one_shot_twin(graph, req: Request, result):
    """The one-shot call a served result must equal bit for bit."""
    if req.kind == "fast":
        return NMC().estimate(graph, req.query, req.n, rng=req.seed)
    if req.kind == "slo":
        return NMC().estimate(graph, req.query, result.n_samples, rng=req.seed)
    if req.kind == "slo-engine":
        return NMC().estimate(graph, req.query, req.n, rng=req.seed, n_workers=1,
                              target_ci=req.kwargs["target_ci"])
    return RSS1().estimate(graph, req.query, req.n, rng=req.seed, n_workers=1)


def run_serve(seed: int, seconds: float, ref: dict, tracer=None) -> Outcome:
    """Drive one closed-loop pass against a fresh engine, closed on exit.

    Set-up (graph build, engine start, ``register``) is timed
    SETUP_SAMPLES / 2 times before the traffic and as often after it, with
    pauses between, so the median spans the host's slow and fast spells;
    a traced pass skips the extra samples.
    """
    setup: List[float] = []
    extra = 0 if tracer is not None else SETUP_SAMPLES // 2
    for _ in range(extra):
        discard(timed(serve_setup, setup), lambda state: state[1].close())
        time.sleep(SETUP_PAUSE_S)
    graph, engine = timed(serve_setup, setup)
    try:
        outcome = drive(engine, graph, seed, seconds, ref, tracer)
    finally:
        engine.close()
    for _ in range(extra - 1):
        time.sleep(SETUP_PAUSE_S)
        discard(timed(serve_setup, setup), lambda state: state[1].close())
    outcome.metrics["setup_s"] = statistics.median(setup)
    return outcome


def drive(engine, graph, seed: int, seconds: float, ref: dict, tracer) -> Outcome:
    """Run the closed loop, wait for every answer, check a sample of them.

    SERVE_CALLERS callers each send their next request from the stream as
    soon as their previous one is answered (from the engine's completion
    callback, so no extra thread).  Requests sent in the first
    SERVE_WARMUP_S seconds warm the cache and are not counted; the
    measured ones are those sent in the following ``seconds``.
    """
    check_graph(graph, "facebook", ref)
    n = int(SERVE_MAX_RATE * (SERVE_WARMUP_S + seconds)) + SERVE_CALLERS
    requests = serve_requests(graph, ref, seed, n)
    sent = [math.nan] * n
    done = [math.nan] * n
    futures: List[Optional[object]] = [None] * n
    lock = threading.Lock()
    state = {"next": 0, "first": None, "failed_submit": 0, "submitting": 0}
    t_origin = time.perf_counter()
    t_measure = t_origin + SERVE_WARMUP_S
    t_stop = t_measure + seconds
    snap = {}

    def send() -> None:
        while True:
            with lock:
                now = time.perf_counter()
                if now >= t_stop or state["next"] >= n:
                    return
                i = state["next"]
                state["next"] += 1
                state["submitting"] += 1
                if state["first"] is None and now >= t_measure:
                    state["first"] = i
                    snap["stats"] = engine.cache.stats()
                    snap["cpu"], snap["wall"] = time.process_time(), now
                    if tracer is not None:
                        tracer.reset()
            req = requests[i]
            if tracer is not None:
                tracer.set_request(i)
            sent[i] = time.perf_counter()
            try:
                fut = engine.submit(req.query, req.n, req.seed, **req.kwargs)
            except Exception as exc:  # counted; the caller moves on
                report_failure(f"submit of request {i}", exc)
                with lock:
                    state["failed_submit"] += 1
                    state["submitting"] -= 1
                continue
            futures[i] = fut
            with lock:
                state["submitting"] -= 1
            fut.add_done_callback(lambda _f, i=i: answered(i))
            return

    def answered(i: int) -> None:
        done[i] = time.perf_counter()
        send()

    for _ in range(SERVE_CALLERS):
        send()
    time.sleep(max(0.0, t_stop - time.perf_counter()))
    deadline = time.perf_counter() + SERVE_DRAIN_S
    while state["submitting"] and time.perf_counter() < deadline:
        time.sleep(0.001)
    n_sent = state["next"]
    n_warm = state["first"] if state["first"] is not None else n_sent
    results: List[Optional[object]] = [None] * n
    failed = state["failed_submit"]
    checks: List[str] = []
    for i in range(n_sent):
        fut = futures[i]
        if fut is None:
            continue
        try:
            result = fut.result(timeout=max(0.0, deadline - time.perf_counter()))
        except Exception as exc:
            if i >= n_warm:
                report_failure(f"request {i} ({requests[i].kind})", exc)
                failed += 1
            continue
        if not math.isfinite(result.value):
            if i >= n_warm:
                failed += 1
                checks.append(f"request {i} ({requests[i].kind}): non-finite value")
            continue
        results[i] = result
    # A future wakes its waiters before it runs its callbacks: let the last
    # ``answered`` calls stamp their times.
    while (any(math.isnan(done[i]) for i in range(n_sent) if results[i] is not None)
           and time.perf_counter() < deadline):
        time.sleep(0.001)
    wall = time.perf_counter() - snap.get("wall", t_measure)
    cpu = time.process_time() - snap.get("cpu", 0.0)
    stats0 = snap.get("stats", engine.cache.stats())
    stats1 = engine.cache.stats()
    n_meas = n_sent - n_warm

    ok = [i for i in range(n_warm, n_sent) if results[i] is not None]
    lat = [done[i] - sent[i] for i in ok]
    slo_worlds = [results[i].n_worlds for i in ok if requests[i].kind.startswith("slo")]
    # The loop keeps the engine saturated, so this is its capacity.
    worlds_per_s = sum(results[i].n_worlds for i in ok) / wall if wall > 0 else math.nan

    # Bit-parity of sampled served results with their one-shot twins.
    attempted = max(1, n_meas)
    pick = random.Random(seed)
    by_kind: Dict[str, List[int]] = {}
    for i in ok:
        by_kind.setdefault(requests[i].kind, []).append(i)
    for kind, quota in SERVE_TWINS.items():
        chosen = by_kind.get(kind, [])
        for i in pick.sample(chosen, min(quota, len(chosen))):
            attempted += 1
            try:
                twin = one_shot_twin(graph, requests[i], results[i])
            except Exception as exc:
                report_failure(f"one-shot twin of request {i}", exc)
                failed += 1
                continue
            if not results_identical(results[i], twin):
                failed += 1
                checks.append(
                    f"request {i} ({kind}): served {results[i].value!r} / "
                    f"{results[i].n_worlds} worlds != one-shot {twin.value!r} / "
                    f"{twin.n_worlds} worlds"
                )

    slo_results = [results[i] for i in ok if requests[i].kind.startswith("slo")]
    hits = stats1.hits - stats0.hits
    misses = stats1.misses - stats0.misses
    metrics = {
        "setup_s": math.nan,  # filled in by run_serve
        "latency_ms_p50": 1e3 * quantile(lat, 0.50) if lat else math.nan,
        "latency_ms_p90": 1e3 * quantile(lat, 0.90) if lat else math.nan,
        "latency_ms_p99": 1e3 * quantile(lat, 0.99) if lat else math.nan,
        "worlds_per_s": worlds_per_s,
        # Seconds the engine needs, at that rate, for the worlds an SLO
        # request consumes before its half-width meets the target.
        "s_to_ci": (statistics.fmean(slo_worlds) / worlds_per_s
                    if slo_worlds else math.nan),
        "slo_frac": sum(x <= SLO_S for x in lat) / max(1, n_meas),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    layer_extras = {
        "serving.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serving.cache.misses": float(misses),
        "serving.cache.evictions": float(stats1.evictions - stats0.evictions),
        "serving.cache.bytes_peak": float(stats1.bytes_peak),
        "serving.cache.oversize_misses": float(stats1.oversize_misses - stats0.oversize_misses),
        "adaptive.worlds_per_query": (
            statistics.fmean(r.n_worlds for r in slo_results) if slo_results else 0.0
        ),
        "adaptive.converged_frac": (
            statistics.fmean(bool(r.extras.get(diagnostics.CONVERGED)) for r in slo_results)
            if slo_results else 0.0
        ),
        "proc.cpu_util": cpu / wall if wall > 0 else 0.0,
    }
    if n_meas < 1000:
        print(f"perfbench: serve-mix measured {n_meas} requests; "
              "latency_ms_p99 needs >= 1000 for ten beyond it", file=sys.stderr)
    return Outcome(metrics, attempted, failed, checks, layer_extras, wall)
