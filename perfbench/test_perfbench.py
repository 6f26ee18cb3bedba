"""Self-tests of the end-to-end benchmark.

Run from the checkout root with ``python -m pytest perfbench -q`` (about
four minutes; the program's own suite under ``tests/`` does not collect
these).  The work counters must repeat exactly across two runs of the full
workloads with the same seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
from common import ROOT, require_program  # noqa: E402

require_program()

from e2e import SERVE_MIN_SAMPLES  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402
from run import end_to_end_outcome  # noqa: E402
from workloads import WORKLOADS, small_cells_grid  # noqa: E402

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    """Two same-seed runs of the workload as the benchmark runs it, each
    as short as ``--seconds`` allows."""
    first = end_to_end_outcome(workload, 5, seconds=0.01)
    second = end_to_end_outcome(workload, 5, seconds=0.01)
    assert first.failed == 0 and second.failed == 0, first.problems + second.problems
    assert first.counters["engine.rows_computed"] > 0
    if workload == "serve-mixed":
        assert first.counters["store.bytes_per_lookup"] > 1_000_000
        assert first.counters["sweep.cells_executed"] == 2 * SERVE_MIN_SAMPLES
    else:
        assert first.counters["store.appends"] > 0
    if workload == "sweep-small-cells":
        assert first.counters["store.appends"] == len(small_cells_grid(5).cells())
    assert first.counters == second.counters


def test_self_times_add_up_to_the_wall():
    tracer = Tracer()
    tracer.spans = [
        {"name": "runner.sweep", "start": 1.0, "end": 9.0, "parent": None, "op": None},
        {"name": "runner.cell", "start": 2.0, "end": 6.0, "parent": 0, "op": "a"},
        {"name": "simulation.run", "start": 3.0, "end": 4.0, "parent": 1, "op": "a"},
        # Another thread: overlaps the cell, innermost while it is open.
        {"name": "store.put", "start": 5.0, "end": 7.0, "parent": None, "op": "a"},
    ]
    selfs, unattributed = tracer.self_times(0.0, 10.0)
    assert set(selfs) == set(LAYERS)
    assert selfs["simulation.run"] == 1.0
    assert selfs["runner.cell"] == 2.0
    assert selfs["store.put"] == 2.0
    assert selfs["runner.sweep"] == 3.0
    assert unattributed == 2.0
    assert sum(selfs.values()) + unattributed == 10.0


def test_stopwatch_takes_out_stolen_time(monkeypatch):
    ticks = iter([(100, 7), (160, 47)])
    monkeypatch.setattr(common, "cpu_ticks", lambda: next(ticks))
    watch = common.Stopwatch().stop()
    assert watch.given == 60 / 100
    assert watch.seconds == watch.wall * 0.6
    # Nothing stolen: the wall time.
    ticks = iter([(100, 7), (160, 7)])
    assert common.Stopwatch().stop().given == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "sweep-small-cells", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [*BENCHMARK["command"], *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
