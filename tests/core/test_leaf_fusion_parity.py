"""Golden parity: every estimator config matches frozen per-leaf-sweep output.

The stratified estimators evaluate their leaves in one packed frontier sweep
per estimate (plan, then sweep) instead of one sweep per leaf.  That is a
pure execution change: the stream positions, the per-block partial sums and
the fold order are the same, so every ``EstimateResult`` must be *bit*
identical to what the per-leaf implementation produced.  The expected
values in ``data/leaf_fusion_golden.json`` were recorded with that
implementation and are compared exactly here:

* the estimator matrix of the trace/audit tests, with every applicable
  budget policy, x {influence, reliable distance, threshold influence}
  x ``n_workers`` in {None, 1} x three seeds, on the paper's Fig. 1 graph
  and a 3x3 grid;
* the grid again with the sampling chunk budget shrunk so that leaves span
  several mask blocks (per-block partial sums, several flushes per sweep);
* the grid again through a :class:`CachedWorldSource`, cold then warm;
* for RSS-I / RCSS / RSS-II / BSS-I on Fig. 1: traced and audited runs,
  whose leaf span paths, ledger moments, convergence-event sequence and
  audit check counters must match too.

Regenerate the data only deliberately, on an implementation whose output
is known to be right: ``PYTHONPATH=src python tests/core/test_leaf_fusion_parity.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.core import (
    BCSS,
    BSS1,
    BSS2,
    NMC,
    RCSS,
    RSS1,
    RSS2,
    BFSSelection,
    FocalSampling,
)
from repro.core.antithetic import AntitheticNMC
from repro.graph import world as _world
from repro.graph.generators import grid_graph, paper_running_example
from repro.graph.worldsource import CachedWorldSource
from repro.queries.distance import ReliableDistanceQuery
from repro.queries.influence import InfluenceQuery, ThresholdInfluenceQuery
from repro.serving.cache import WorldBlockCache

GOLDEN = Path(__file__).with_name("data") / "leaf_fusion_golden.json"

N_SAMPLES = 200
SEEDS = (3, 17, 20140331)
WORKERS = (None, 1)
POLICIES = ("guard", "pool", "literal")

#: Sampling chunk budget (floats per block) for the multi-block variant:
#: at most 3 worlds per block on the fully free 12-edge grid.
SMALL_CHUNK_BUDGET = 40

GRAPHS: Dict[str, Callable] = {
    "fig1": paper_running_example,
    "grid": lambda: grid_graph(3, 3, prob=0.6),
}

QUERIES: Dict[str, Callable] = {
    "influence": lambda g: InfluenceQuery(0),
    "distance": lambda g: ReliableDistanceQuery(0, g.n_nodes - 1),
    "threshold": lambda g: ThresholdInfluenceQuery(0, 2.0),
}


def _configs() -> List[Tuple[str, Callable]]:
    """(id, factory) for the estimator matrix, one entry per budget policy."""
    fixed = [
        ("NMC", NMC),
        ("ANMC", AntitheticNMC),
        ("FS", FocalSampling),
        ("BCSS", BCSS),
        ("BSSIR", lambda: BSS1(r=3)),
        ("BSSIB", lambda: BSS1(r=3, selection=BFSSelection())),
        ("BSSIIR", lambda: BSS2(r=4)),
        ("BSSIIB", lambda: BSS2(r=4, selection=BFSSelection())),
    ]
    out: List[Tuple[str, Callable]] = list(fixed)
    for policy in POLICIES:
        out += [
            (f"RCSS-{policy}",
             lambda p=policy: RCSS(tau_samples=4, tau_edges=2, budget_policy=p)),
            (f"RSSIR-{policy}", lambda p=policy: RSS1(r=2, tau=5, budget_policy=p)),
            (f"RSSIB-{policy}",
             lambda p=policy: RSS1(r=2, tau=5, selection=BFSSelection(), budget_policy=p)),
            (f"RSSIIR-{policy}", lambda p=policy: RSS2(r=3, tau=5, budget_policy=p)),
            (f"RSSIIB-{policy}",
             lambda p=policy: RSS2(r=3, tau=5, selection=BFSSelection(), budget_policy=p)),
        ]
    return out


CONFIGS = _configs()
TRACED = ("RSSIR-guard", "RSSIR-pool", "RCSS-guard", "RSSIIR-guard", "BSSIR")


def _record(result) -> Dict[str, Any]:
    extras = {
        k: (float(v) if isinstance(v, float) else v)
        for k, v in sorted(result.extras.items())
    }
    return {
        "value": float(result.value),
        "numerator": float(result.numerator),
        "denominator": float(result.denominator),
        "n_samples": int(result.n_samples),
        "n_worlds": int(result.n_worlds),
        "extras": extras,
    }


def _trace_record(result) -> Dict[str, Any]:
    report = result.trace
    leaves = []
    for span in report.leaf_spans():
        ledger = span.ledger
        leaves.append({
            "path": list(span.path),
            "kind": span.kind,
            "n_samples": span.n_samples,
            "worlds": span.worlds,
            "pi": span.pi,
            "ledger": [
                ledger.n, ledger.sum_num, ledger.sumsq_num, ledger.sum_den,
                ledger.sumsq_den, ledger.sum_cross,
            ],
        })
    leaves.sort(key=lambda leaf: leaf["path"])
    # The event sequence is long; its exact JSON text is pinned by a digest.
    events = json.dumps([
        [e["worlds"], e["mean"], e["ci95"], e["half_width"], e["den"]]
        for e in report.events
    ])
    return {
        "result": _record(result),
        "leaves": leaves,
        "n_events": len(report.events),
        "events_digest": hashlib.blake2b(events.encode(), digest_size=16).hexdigest(),
        "audit": dict(sorted(result.audit.checks.items())),
    }


def _case_key(*parts: Any) -> str:
    return "/".join(str(p) for p in parts)


def _estimate_cases() -> Iterator[Tuple[str, str, Callable, str, Any, int]]:
    """(key, graph, factory, query, n_workers, seed) of the fresh matrix."""
    for graph_name in GRAPHS:
        for config_id, factory in CONFIGS:
            for query_name in QUERIES:
                for workers in WORKERS:
                    for seed in SEEDS:
                        key = _case_key(graph_name, config_id, query_name, workers, seed)
                        yield key, graph_name, factory, query_name, workers, seed


def _run_matrix(graph_name: str, config_id: str) -> Dict[str, Any]:
    factory = dict(CONFIGS)[config_id]
    graph = GRAPHS[graph_name]()
    out = {}
    for query_name, make_query in QUERIES.items():
        query = make_query(graph)
        for workers in WORKERS:
            for seed in SEEDS:
                result = factory().estimate(
                    graph, query, N_SAMPLES, rng=seed, n_workers=workers
                )
                out[_case_key(graph_name, config_id, query_name, workers, seed)] = (
                    _record(result)
                )
    return out


def _run_small_chunks(config_id: str) -> Dict[str, Any]:
    factory = dict(CONFIGS)[config_id]
    graph = GRAPHS["grid"]()
    out = {}
    for query_name, make_query in QUERIES.items():
        query = make_query(graph)
        for workers in WORKERS:
            result = factory().estimate(
                graph, query, N_SAMPLES, rng=SEEDS[0], n_workers=workers
            )
            out[_case_key("small-chunks", config_id, query_name, workers)] = (
                _record(result)
            )
    return out


def _run_cached(config_id: str) -> Dict[str, Any]:
    factory = dict(CONFIGS)[config_id]
    graph = GRAPHS["grid"]()
    seed = SEEDS[1]
    out = {}
    for query_name, make_query in QUERIES.items():
        query = make_query(graph)
        for workers in WORKERS:
            source = CachedWorldSource(WorldBlockCache(), seed)
            for label in ("cold", "warm"):
                result = factory().estimate(
                    graph, query, N_SAMPLES, rng=seed, n_workers=workers,
                    source=source,
                )
                out[_case_key("cached", config_id, query_name, workers, label)] = (
                    _record(result)
                )
    return out


def _run_traced(config_id: str) -> Dict[str, Any]:
    factory = dict(CONFIGS)[config_id]
    graph = GRAPHS["fig1"]()
    out = {}
    for query_name in ("influence", "distance"):
        query = QUERIES[query_name](graph)
        for workers in WORKERS:
            result = factory().estimate(
                graph, query, N_SAMPLES, rng=SEEDS[0], n_workers=workers,
                trace=True, audit=True,
            )
            out[_case_key("traced", config_id, query_name, workers)] = (
                _trace_record(result)
            )
    return out


@contextlib.contextmanager
def _small_chunk_budget() -> Iterator[None]:
    previous = _world._DEFAULT_CHUNK_BUDGET
    _world._DEFAULT_CHUNK_BUDGET = SMALL_CHUNK_BUDGET
    try:
        yield
    finally:
        _world._DEFAULT_CHUNK_BUDGET = previous


def record_all(small_chunks=_small_chunk_budget) -> Dict[str, Any]:
    """Every golden record; ``small_chunks`` installs the shrunk chunk budget."""
    data: Dict[str, Any] = {}
    for config_id, _ in CONFIGS:
        for graph_name in GRAPHS:
            data.update(_run_matrix(graph_name, config_id))
        with small_chunks():
            data.update(_run_small_chunks(config_id))
        data.update(_run_cached(config_id))
    for config_id in TRACED:
        data.update(_run_traced(config_id))
    return data


# ---------------------------------------------------------------------- #
# exact comparison
# ---------------------------------------------------------------------- #


def _same(a: Any, b: Any) -> bool:
    """Exact structural equality; NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _normalise(records: Dict[str, Any]) -> Dict[str, Any]:
    # Round-trip through JSON so tuples, numpy scalars and ints-as-floats
    # compare the same way the stored data does.
    return json.loads(json.dumps(records))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def _assert_matches(golden: Dict[str, Any], got: Dict[str, Any]) -> None:
    got = _normalise(got)
    assert got, "no cases ran"
    for key, record in got.items():
        assert key in golden, f"{key} missing from the golden data"
        assert _same(record, golden[key]), (key, record, golden[key])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("config_id", [c for c, _ in CONFIGS])
def test_matrix_bit_identical(golden, config_id, graph_name):
    _assert_matches(golden, _run_matrix(graph_name, config_id))


@pytest.mark.parametrize("config_id", [c for c, _ in CONFIGS])
def test_multi_block_leaves_bit_identical(golden, config_id, monkeypatch):
    monkeypatch.setattr(_world, "_DEFAULT_CHUNK_BUDGET", SMALL_CHUNK_BUDGET)
    _assert_matches(golden, _run_small_chunks(config_id))


@pytest.mark.parametrize("config_id", [c for c, _ in CONFIGS])
def test_cached_source_bit_identical(golden, config_id):
    _assert_matches(golden, _run_cached(config_id))


@pytest.mark.parametrize("config_id", TRACED)
def test_trace_and_audit_match(golden, config_id):
    _assert_matches(golden, _run_traced(config_id))


class _CountingQuery(InfluenceQuery):
    """Influence query recording the world count of every batched call."""

    def __init__(self, seeds) -> None:
        super().__init__(seeds)
        self.calls: List[int] = []

    def evaluate_pairs(self, graph, edge_masks):
        self.calls.append(int(edge_masks.shape[0]))
        return super().evaluate_pairs(graph, edge_masks)


@pytest.mark.parametrize("workers", WORKERS)
def test_leaves_share_one_sweep(workers):
    graph = GRAPHS["grid"]()
    query = _CountingQuery(0)
    result = RSS1(r=2, tau=5).estimate(
        graph, query, N_SAMPLES, rng=SEEDS[0], n_workers=workers
    )
    assert result.extras["split_count"] > 1
    assert query.calls == [result.n_worlds]


def test_sweeps_flush_at_the_chunk_budget(monkeypatch):
    monkeypatch.setattr(_world, "_DEFAULT_CHUNK_BUDGET", SMALL_CHUNK_BUDGET)
    graph = GRAPHS["grid"]()
    query = _CountingQuery(0)
    result = RSS1(r=2, tau=5).estimate(graph, query, N_SAMPLES, rng=SEEDS[0])
    limit = SMALL_CHUNK_BUDGET // graph.n_edges
    # A flush fires once the pending worlds reach the limit, so a sweep holds
    # at most the limit plus the one block that crossed it.
    largest_block = SMALL_CHUNK_BUDGET
    assert sum(query.calls) == result.n_worlds
    assert len(query.calls) > 1
    assert max(query.calls) < limit + largest_block


def test_golden_covers_every_case(golden):
    expected = {key for key, *_ in _estimate_cases()}
    assert expected <= golden.keys()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = _normalise(record_all())
    lines = [
        f"{json.dumps(key)}: {json.dumps(records[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(records)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
