"""Fast checks of the benchmark itself (about a minute on two cores).

Run from the repository root::

    python3 -m pytest perfbench -q

They run each workload at a tiny size, check metric names and units against
``BENCHMARK.json``, and check that the correctness gate and the layer
coverage assertion fail when they should.
"""

from __future__ import annotations

import collections
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

run.pin_environment()

import layers  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    declared = spec()
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS
    ]
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_have_names_units_and_values(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                         "--trace", "1", "--spans-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.estimate_s"] > 0 and values["queries.eval_calls"] > 0
    if workload == "serve-mix":
        assert values["serving.batch_size_mean"] >= 1 and values["parallel.driver_s"] > 0
    spans = (tmp_path / f"spans-{workload}-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["meta"]["workload"] == workload
    assert len(spans) > 1


def tracker_pids():
    pids = set()
    for entry in Path("/proc").iterdir():
        try:
            if b"resource_tracker" in (entry / "cmdline").read_bytes():
                pids.add(entry.name)
        except OSError:
            continue
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_serve_run(tmp_path):
    # The engine's shared-memory arenas start the resource tracker.  Output
    # goes to files, not pipes, so wait() returns as soon as the benchmark
    # exits, not when the last holder of its stdout does.
    before = tracker_pids()
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mix", "--seed", "3",
             "--seconds", "1", "--trace", "0"],
            stdout=out, stderr=err, cwd=ROOT,
        )
        assert proc.wait(timeout=600) == 0, (tmp_path / "err").read_text()
    assert tracker_pids() - before == set()


def test_correctness_gate_fails_on_perturbed_reference(tmp_path):
    ref = wl.load_reference()
    entry = ref["graphs"]["facebook"]["values"]["influence:379"]
    entry["value"] *= 1.2
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    proc, result = bench("--workload", "oneshot-strat", "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--reference", str(path))
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "combined SE from reference" in proc.stderr


def test_coverage_assertion_fails_when_a_wrapper_is_dropped():
    ref = wl.load_reference()
    for exclude, expect in ((), []), (("core.sample_mean_pair",), ["core.sample_mean_pair"]):
        tracer = layers.LayerTracer(exclude=exclude).install()
        try:
            wl.run_oneshot("oneshot-nmc", 1, 0.5, ref, tracer=tracer)
        finally:
            tracer.uninstall()
        assert tracer.unmeasured("oneshot-nmc") == expect


def test_uninstall_restores_every_binding():
    import repro.graph.world as world
    import repro.graph.worldsource as worldsource
    from repro.core.base import Estimator

    original = world.iter_mask_blocks
    estimate = Estimator.__dict__["estimate"]
    tracer = layers.LayerTracer().install()
    assert worldsource.iter_mask_blocks is not original
    assert Estimator.__dict__["estimate"] is not estimate
    tracer.uninstall()
    assert world.iter_mask_blocks is original and worldsource.iter_mask_blocks is original
    assert Estimator.__dict__["estimate"] is estimate


def test_serve_requests_are_seeded_and_balanced():
    graph = wl.GRAPHS["facebook"]()
    ref = wl.load_reference()
    a = wl.serve_requests(graph, ref, 5, 200)
    b = wl.serve_requests(graph, ref, 5, 200)
    c = wl.serve_requests(graph, ref, 6, 200)
    key = lambda reqs: [(r.kind, repr(r.query), r.seed) for r in reqs]  # noqa: E731
    assert key(a) == key(b) != key(c)
    for block in range(0, 200, wl.SERVE_BLOCK):
        kinds = collections.Counter(r.kind for r in a[block:block + wl.SERVE_BLOCK])
        assert kinds["fast"] == 17 and kinds["strat"] == 1
    slo = collections.Counter(r.kind for r in a)
    assert abs(slo["slo-engine"] - (slo["slo"] + slo["slo-engine"]) / 3) < 1
    # A run consumes only a prefix of the stream: every prefix is balanced.
    for m in (20, 100, 200):
        strat = collections.Counter(repr(r.query) for r in a[:m] if r.kind == "strat")
        assert max(strat.values()) - min(strat.values()) <= 1
        assert len(strat) == min(8, m // wl.SERVE_BLOCK)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc, result = bench("--workload", "oneshot-nmc", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
