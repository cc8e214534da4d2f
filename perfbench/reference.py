"""Build ``reference.json``: high-budget NMC values the benchmark checks against.

Run from the repository root (takes a few minutes on two cores)::

    python3 perfbench/reference.py

For each benchmark graph it records the content fingerprint, the reach
probability from each top-degree source to its first well-reached targets
(the workloads pick well-posed distance queries from them), and, for every
one-shot cell, the NMC value with its standard error over independent
chunks.  Reference seeds are disjoint from the seeds the workloads use.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.core import NMC  # noqa: E402
from repro.graph import EdgeStatuses, iter_mask_blocks  # noqa: E402
from repro.queries import reachable_masks_batch  # noqa: E402

import workloads as wl  # noqa: E402

REACH_WORLDS = 8192
CHUNKS = 64
CHUNK_WORLDS = 2048
SEED_BASE = 900_000


def reach_table(graph, graph_key: str) -> dict:
    """For each recorded source, its first well-reached targets by rank."""
    ranked = wl.top_nodes(graph, graph.n_nodes)
    table = {}
    for k, source in enumerate(wl.top_nodes(graph, wl.PAIR_SOURCES[graph_key])):
        hits = np.zeros(graph.n_nodes, dtype=np.int64)
        for block in iter_mask_blocks(EdgeStatuses(graph), REACH_WORLDS,
                                      rng=SEED_BASE - 1 - k):
            hits += reachable_masks_batch(graph, block, source).sum(axis=0)
        reach = hits / REACH_WORLDS
        targets = [t for t in ranked if t != source and reach[t] > wl.REACH_FLOOR_MIN]
        table[str(source)] = [[t, float(reach[t])] for t in targets[:wl.PAIR_TARGETS]]
    return table


def nmc_reference(graph, query) -> dict:
    means = [
        NMC().estimate(graph, query, CHUNK_WORLDS, rng=SEED_BASE + i).value
        for i in range(CHUNKS)
    ]
    return {
        "value": statistics.fmean(means),
        "se": statistics.stdev(means) / math.sqrt(CHUNKS),
        "worlds": CHUNKS * CHUNK_WORLDS,
    }


def main() -> int:
    ref = {"graphs": {}}
    for graph_key, cells_of in (("condmat", wl.nmc_cells), ("facebook", wl.strat_cells)):
        graph = wl.GRAPHS[graph_key]()
        entry = {"fingerprint": graph.fingerprint(), "reach": reach_table(graph, graph_key)}
        ref["graphs"][graph_key] = entry
        entry["values"] = {}
        for cell in cells_of(graph, ref):
            if cell.ref_key not in entry["values"]:
                entry["values"][cell.ref_key] = nmc_reference(graph, cell.query)
                print(graph_key, cell.ref_key, entry["values"][cell.ref_key], flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
