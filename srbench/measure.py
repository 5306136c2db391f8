"""Measurement helpers: latency statistics, CPU/RSS accounting, the
per-run environment line and the last-line JSON result.

Everything here reads the host through ``/proc`` and ``os``; nothing is
written anywhere.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import statistics
from typing import Dict, List, Sequence, Tuple

#: Stand-in for a latency that failed items made infinite.
MISSED_MS = 1e9

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Percentile ``tail_ms`` is read at, the same on every workload and
#: every program version, so a faster program (more samples) is read at
#: the same rank as its parent.  The slowest workloads deliver about 650
#: items in 32 s, which leaves about 30 samples beyond it; the highest
#: rank with ten beyond read 20-30% apart on identical gateway runs,
#: set by CPU steal.
TAIL_PCT = 95.0


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile of an ascending sequence."""
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Median and tail (ms) of raw per-item latencies (s).

    ``tail_ms`` is the nearest-rank ``TAIL_PCT`` percentile of the whole
    run; ``beyond`` counts the samples past it.
    """
    if not latencies:
        raise ValueError("no latency samples")
    ordered = sorted(latencies)
    tail = nearest_rank(ordered, TAIL_PCT)
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "tail_ms": 1e3 * tail,
        "beyond": sum(lat > tail for lat in ordered),
        "samples": len(ordered),
    }


def _proc_stat_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> List[int]:
    """Live multiprocessing children (the gateway's workers)."""
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU seconds of this process plus the given children."""
    total = _proc_stat_cpu_s(os.getpid())
    for pid in pids:
        try:
            total += _proc_stat_cpu_s(pid)
        except OSError:
            pass  # a child that already exited has nothing left to add
    return total


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Peak RSS of this process plus each given child, summed (MiB)."""
    total = _vm_hwm_mb(os.getpid())
    for pid in pids:
        try:
            total += _vm_hwm_mb(pid)
        except OSError:
            pass
    return total


def steal_seconds() -> float:
    """Host CPU steal so far, all CPUs summed, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return float("nan")


def blas_line() -> str:
    """numpy version and the BLAS it was built against."""
    import numpy as np
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')}-{info.get('version')}"
    except Exception:  # older numpy: no dict mode; the version still helps
        pass
    return f"numpy={np.__version__} blas={blas}"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "REPRO_NUM_THREADS")


def env_line(steal_s: float) -> str:
    """One line that lets a slow run be traced to the host."""
    threads = " ".join(f"{v}={os.environ.get(v, '')}" for v in THREAD_VARS)
    try:
        affinity = ",".join(str(c) for c in sorted(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = "n/a"
    return (f"env: {blas_line()} {threads} nproc={os.cpu_count()} "
            f"affinity={affinity} steal_s={steal_s:.2f}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The JSON result object, printed as the last stdout line.

    A latency made infinite by failed items (they miss every limit) is
    written as ``MISSED_MS`` so the line stays strict JSON.
    """
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value) if math.isfinite(value)
                           else MISSED_MS, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })

