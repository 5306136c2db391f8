"""Steadiness report: run workloads repeatedly and summarise.

Usage (from the root of a checkout)::

    python3 srbench/steady.py --workload infer_96 --workload gateway_mix \
        --runs 10 --seconds 32

Runs ``srbench/run.py`` once per seed (``--first-seed`` onwards, one
process per run, one after another).  With several ``--workload``
options the workloads take turns seed by seed, so each sees the host in
the same time window.  Each run prints one line with its attempted and
failed counts, the host's CPU steal seconds over the run and every
metric.  At the end each workload gets a table: for each metric the
median, quartiles, min/max and the spread, i.e. the distance between
the first and third quartile (``statistics.quantiles(n=4)``) as a share
of the median.  The bounds in ``BENCHMARK.json`` come from these
spreads.  Pass ``--trace 1`` to summarise the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One ``run.py`` process; returns (result, steal_s) or None."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    steal = lines[-2].rpartition("steal_s=")[2] if len(lines) > 1 else "?"
    return json.loads(lines[-1]), steal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = {w: {} for w in args.workload}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            outcome = run_once(workload, seed, args.seconds, args.trace)
            if outcome is None:
                return 1
            result, steal = outcome
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} steal_s {steal} | " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in
                      result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]

    for workload, metrics in values.items():
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        print(f"{'metric':<28}{'unit':>7}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'min':>11}{'max':>11}{'spread':>8}")
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:<28}{units[name]:>7}{med:>11.4g}{q1:>11.4g}"
                  f"{q3:>11.4g}{min(vals):>11.4g}{max(vals):>11.4g}"
                  f"{spread:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
