"""End-to-end benchmark of the reproduction's sweep and serve stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-small-cells --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

``--trace 0`` spawns the real CLI (``python -m repro ...``), times it from
process spawn with the program's tracing off (less the CPU time the
hypervisor stole, see ``common.Stopwatch``), checks every output, and
prints the end-to-end metrics.  ``--trace 1`` instead runs the in-process
replica of the same workload under the benchmark's own spans and prints the
per-layer breakdown.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``BENCHMARK.json`` at the checkout root lists
the workloads and metrics and why each was chosen.

For one workload the exit code is 0 when the run completed (a failed
output check is reported through ``correct``/``failed``), and 2 when the
benchmark could not run at all, for example outside a full checkout.
``--workload all`` runs every workload in turn, each ending in its own JSON
line, and exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BenchError, declared_metrics, require_program
from workloads import WORKLOADS, large_graphs_grid, small_cells_grid


def _emit(result: dict) -> None:
    print(json.dumps(result, sort_keys=True), flush=True)


def end_to_end_outcome(workload: str, seed: int, seconds: float):
    """Run one workload end to end; its :class:`e2e.Outcome`."""
    from e2e import serve_workload, sweep_workload

    if workload == "sweep-small-cells":
        return sweep_workload(workload, small_cells_grid(seed), seconds)
    if workload == "sweep-large-graphs":
        return sweep_workload(workload, large_graphs_grid(seed), seconds)
    return serve_workload(seed, seconds)


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    outcome = end_to_end_outcome(workload, seed, seconds)
    failed_frac = outcome.failed / outcome.attempted
    print(f"# {workload} seed={seed}: end-to-end (tracing off), timed from spawn, stolen CPU time taken out")
    for name, sample in outcome.metrics.items():
        print(f"{name:>20} {sample.value:12.4f} {sample.unit:<5} n={sample.samples}")
    print(f"{'failed_frac':>20} {failed_frac:12.4f} {'1':<5} n={outcome.attempted}")
    print(f"# work counters: {json.dumps(outcome.counters, sort_keys=True)}")
    for note in outcome.notes:
        print(f"# note: {note}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name].value, "unit": unit}
            for name, unit in declared_metrics("end_to_end").items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    try:
        require_program()
        for workload in workloads:
            if args.trace:
                from layers import traced_workload

                result = traced_workload(workload, args.seed)
            else:
                result = run_end_to_end(workload, args.seed, args.seconds)
            _emit(result)
            all_correct = all_correct and result["correct"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 1 if args.workload == "all" and not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())
