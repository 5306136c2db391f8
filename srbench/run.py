"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 srbench/run.py --workload infer_96 --seed 1 --seconds 32 --trace 0

A run builds every artifact from scratch in a fresh temporary directory
inside the checkout (``.srbench_tmp/``, deleted on exit), repeats that
set-up ``SETUP_REPEATS`` times and reports the median as ``setup_s``,
warms up, then drives the workload's closed loop for ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs slices
of ``TRACE_SLICE_S`` in the order untraced, traced, traced, untraced,
repeated, and prints the per-layer metrics plus ``trace.overhead_ms``:
the traced slices' mean time per item minus the untraced slices',
pooled, so host drift during the run falls on both sides alike, and
``e2e.p50_ms``, the median latency per item of the untraced slices.
Both check a seeded sample of outputs bit for bit against one-shot
``Engine.infer`` and exit 1 on a mismatch.  The last stdout line is the
JSON result; the line before it is the environment line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Closed-loop warm-up before any measurement (caches fill, models load).
WARMUP_S = 1.5
#: Length of one untraced or traced slice of a ``--trace 1`` run.
TRACE_SLICE_S = 0.2

#: Thread pins for steady timings; an explicit environment value wins
#: and is reported on the environment line either way.
THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "REPRO_NUM_THREADS": "1"}


def declared_metrics(kind: str):
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric
    that ``BENCHMARK.json`` declares, in its order."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment(tmp_root: Path) -> None:
    """Pin threads, keep bytecode and temp files out of the checkout's
    source tree (inherited by the gateway's spawned workers)."""
    for name, value in THREAD_DEFAULTS.items():
        os.environ.setdefault(name, value)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    os.environ["TMPDIR"] = str(tmp_root)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"srbench: no repro sources under {src}")
    sys.path[:0] = [str(HERE), str(src)]


def stop_resource_tracker() -> None:
    """Reap multiprocessing's resource tracker (started by spawn)."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp_root = ROOT / ".srbench_tmp" / f"run-{os.getpid()}"
    tmp_root.mkdir(parents=True)
    try:
        prepare_environment(tmp_root)
        return run(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            (ROOT / ".srbench_tmp").rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, tmp_root: Path) -> int:
    import measure
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"srbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    steal0 = measure.steal_seconds()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setup_s = []
    live = False
    try:
        for rep in range(SETUP_REPEATS):
            directory = tmp_root / f"setup-{rep}"
            directory.mkdir()
            t0 = time.perf_counter()
            workload.setup(directory)
            setup_s.append(time.perf_counter() - t0)
            live = True
            if rep + 1 < SETUP_REPEATS:
                live = False
                workload.teardown()
        workloads.run_phase(workload, WARMUP_S)
        if args.trace:
            plain, traced = workloads.Outcome(), workloads.Outcome()
            tracer = Tracer()
            workload.trace_begin()
            end = time.perf_counter() + args.seconds
            while time.perf_counter() < end:
                for on in (False, True, True, False):
                    if on:
                        workload.trace_targets(tracer)
                    try:
                        outcome = workloads.run_phase(workload, TRACE_SLICE_S)
                    finally:
                        tracer.unpatch_all()
                    (traced if on else plain).merge(outcome)
            layers = workload.per_layer(tracer, traced, plain)
            layers["trace.overhead_ms"] = 1e3 * (
                statistics.fmean(traced.latencies)
                - statistics.fmean(plain.latencies))
            layers["e2e.p50_ms"] = measure.latency_summary(
                plain.items)["p50_ms"]
            outcomes = (plain, traced)
        else:
            pids = measure.child_pids()
            cpu0 = measure.cpu_seconds(pids)
            t0 = time.perf_counter()
            measured = workloads.run_phase(workload, args.seconds)
            wall = time.perf_counter() - t0
            cpu = measure.cpu_seconds(pids) - cpu0
            rss = measure.peak_rss_mb(pids)
            outcomes = (measured,)
        samples = [s for o in outcomes for s in o.samples]
        mismatches = workload.references(samples)
    finally:
        if live:
            workload.teardown()
        stop_resource_tracker()

    attempted = sum(len(o.items) for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = mismatches == 0 and bool(samples)
    if args.trace:
        # A per-layer metric that does not apply to the workload reads 0.
        metrics = {name: (layers.get(name, 0.0), unit)
                   for name, unit in declared_metrics("per_layer")}
    else:
        summary = measure.latency_summary(measured.items)
        delivered = len(measured.latencies)
        values = {
            "setup_s": statistics.median(setup_s),
            "tail_ms": summary["tail_ms"],
            "items_per_s": delivered / wall,
            "cpu_ms": 1e3 * cpu / max(delivered, 1),
            "peak_rss_mb": rss,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in declared_metrics("end_to_end")}
        print(f"samples: {summary['samples']} items; p50 "
              f"{summary['p50_ms']:.2f} ms; tail_ms is "
              f"p{measure.TAIL_PCT:g}, {summary['beyond']} samples beyond "
              "it; setups " + " ".join(f"{s:.3f}" for s in setup_s))
    print(f"parity: {len(samples)} sampled outputs, {mismatches} mismatches")
    print(measure.env_line(measure.steal_seconds() - steal0))
    print(measure.result_line(correct, attempted, failed, metrics))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
