"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot-nmc --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
untraced pass and then a traced pass with the layer wrappers of
``layers.py`` installed, and prints every per-layer metric (spans go to
``perfbench/out/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("oneshot-nmc", "oneshot-strat", "serve-mix")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("worlds_per_s", "worlds/s"),
    ("s_to_ci", "s"),
    ("slo_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the others but not in the result line.  ``latency_ms_p99``:
#: a one-shot run makes about 120 calls, so its p99 rests on one or two of
#: them and a single slow spell of the host moves it by half (spread over ten
#: seeds up to 0.53); every workload must report every gated metric, so it is
#: only printed.  ``failed_frac``: 0 on every correct run, and
#: ``failed``/``attempted`` carry the same information.
INFO_ONLY = (("latency_ms_p99", "ms"), ("failed_frac", "frac"))

#: Program observers stay off and the kernel tier is pinned in every run.
PINNED_ENV = {
    "REPRO_AUDIT": "0",
    "REPRO_TRACE": "0",
    "REPRO_METRICS": "0",
    "REPRO_KERNEL": "numpy",
}
UNSET_ENV = ("REPRO_WORKERS", "REPRO_TRACE_FILE", "REPRO_METRICS_PORT")
#: How long a child process still running at exit gets before it is killed.
CHILD_GRACE_S = 10.0


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for var in UNSET_ENV:
        os.environ.pop(var, None)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy as np
    from repro.kernels import native_available

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_available": native_available(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def run_pass(workload: str, seed: int, seconds: float, ref: dict, tracer=None):
    import workloads as wl

    if workload == "serve-mix":
        return wl.run_serve(seed, seconds, ref, tracer=tracer)
    return wl.run_oneshot(workload, seed, seconds, ref, tracer=tracer)


def show(name: str, value: float, unit: str) -> None:
    print(f"  {name:32s} {value:14.6g} {unit}")


def child_pids() -> list:
    """Process ids whose parent is this process (empty without ``/proc``)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The serving engine's shared-memory arenas start the ``multiprocessing``
    resource tracker, a child process that otherwise outlives this one until
    it reads the end of its pipe.  Closing that pipe (every arena is already
    unlinked by then) and reaping the tracker ends it; any other child still
    running gets CHILD_GRACE_S seconds and is then killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    deadline = time.monotonic() + CHILD_GRACE_S
    for child in child_pids():
        print(f"perfbench: child process {child} still running at exit", file=sys.stderr)
        try:
            while os.waitpid(child, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass


def main(argv=None) -> int:
    try:
        return bench_main(argv)
    finally:
        stop_child_processes()


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", default=str(HERE / "out"),
                        help="where the traced run writes its spans")
    parser.add_argument("--reference", default=None,
                        help="reference values (default: perfbench/reference.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from layers import LAYER_METRICS, LayerTracer

    ref = wl.load_reference(Path(args.reference) if args.reference else wl.REFERENCE_PATH)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **fingerprint()}
    print("# fingerprint " + json.dumps(meta, sort_keys=True))

    base = run_pass(args.workload, args.seed, args.seconds, ref)
    outcomes = [base]
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, args.seed, args.seconds, ref, tracer=tracer)
            layer = tracer.layer_metrics(traced.wall_s)
            missing = tracer.unmeasured(args.workload)
        finally:
            tracer.uninstall()
        outcomes.append(traced)
        layer.update(traced.layer_extras)
        layer["trace.overhead_frac"] = (traced.metrics["latency_ms_p50"]
                                        / base.metrics["latency_ms_p50"] - 1.0)
        os.makedirs(args.spans_dir, exist_ok=True)
        spans_path = Path(args.spans_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {**meta, "metrics": layer})
        print(f"# spans written to {spans_path}")
        if missing:
            for key in missing:
                print(f"  {key:32s} unmeasured")
            print("perfbench: traced run did not reach " + ", ".join(missing)
                  + "; a layer moved, update layers.py", file=sys.stderr)
            return 3
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = {name: {"value": base.metrics[name], "unit": unit} for name, unit in END_TO_END}
    for name, unit in END_TO_END + INFO_ONLY:
        show(name, base.metrics[name], unit)
    if args.trace:
        for name, unit, *_ in LAYER_METRICS:
            show(name, metrics[name]["value"], unit)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    checks = [c for o in outcomes for c in o.checks]
    for check in checks:
        print(f"perfbench: check failed: {check}", file=sys.stderr)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        print("perfbench: a metric is not finite", file=sys.stderr)
    correct = failed == 0 and not checks and finite
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
