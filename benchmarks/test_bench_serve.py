"""Benchmarks for the serve hub's report cache and long-lived store view.

The service exists so repeat queries never pay compute: a ``/report`` over
an unchanged store is answered from the in-process cache keyed on the
store's on-disk ``stat_signature`` — no records re-read, no cells re-run.
The cached-report bench computes a small grid cold (the price a cacheless
client pays), then serves the warmed store over real HTTP and times repeat
cached ``/report`` fetches end-to-end (socket, chunk, JSON).  The acceptance
gate is a >= 5x win for the cached fetch; ``scripts/check_bench_regression.py``
ratio-gates the recorded speedup against the committed baseline so the win
cannot silently erode.

The warm-results bench pins the cost model of the service's one store view:
after another writer appends to the store, ``/results`` requests parse only
the appended bytes and never reload the view.  Its work counters are gated
exactly; its wall time only warns.
"""

import json
import os
import time
import urllib.request
from pathlib import Path

from _bench_utils import record, report

from repro.experiments.runner import expand_grid, run_sweep
from repro.experiments.serve import SweepService
from repro.experiments.store import ResultStore
from repro.obs import metrics

ARTIFACT = Path(__file__).resolve().parent / "BENCH_serve.json"

SEEDS = 8
HORIZON = 12
FETCHES = 25
REQUIRED_SPEEDUP = 5.0


def test_bench_cached_report_vs_cold_compute(tmp_path):
    cells = expand_grid(["line-flood"], seeds=list(range(SEEDS)), horizon=HORIZON)

    # Cold: what answering the same question costs without the store/cache —
    # compute every cell of the grid.
    store_path = str(tmp_path / "results.jsonl")
    cold_started = time.perf_counter()
    outcome = run_sweep(cells, store=ResultStore(store_path), backend="serial")
    cold_compute_s = time.perf_counter() - cold_started
    assert outcome.errors == 0
    assert outcome.executed == len(cells)

    # Warm: serve the store over real HTTP; the first fetch builds the
    # report cache entry, repeats are pure cache hits.
    service = SweepService(store_path)
    host, port = service.start("127.0.0.1", 0)
    url = f"http://{host}:{port}/report?group_by=scenario,adversary"
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            first = json.loads(response.read())
        assert first["served_from_cache"] is False
        assert first["records"] == len(cells)

        cached_started = time.perf_counter()
        for _ in range(FETCHES):
            with urllib.request.urlopen(url, timeout=60) as response:
                body = json.loads(response.read())
            assert body["served_from_cache"] is True
        cached_report_s = (time.perf_counter() - cached_started) / FETCHES
    finally:
        service.stop()

    speedup = cold_compute_s / cached_report_s if cached_report_s > 0 else float("inf")
    report(
        "Serve hub: cached /report fetch vs cold grid compute",
        "no measurement in the paper (serving-layer cost)",
        f"{len(cells)} cells: cold compute {cold_compute_s * 1e3:.1f}ms, "
        f"cached HTTP /report {cached_report_s * 1e3:.2f}ms ({speedup:.0f}x)",
    )
    record(
        ARTIFACT,
        "cached-report",
        {
            "cells": len(cells),
            "fetches": FETCHES,
            "cold_compute_s": round(cold_compute_s, 6),
            "cached_report_s": round(cached_report_s, 6),
            "report_cache_speedup": round(speedup, 1),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cached /report only {speedup:.1f}x faster than cold compute "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


WARM_SEEDS = 12
APPENDED_SEEDS = 4


def _counters():
    return metrics.registry().snapshot()["counters"]


def test_bench_warm_results_parse_only_appended_bytes(tmp_path):
    """N ``/results`` after K foreign appends: the appended bytes, no reloads."""
    store_path = str(tmp_path / "results.jsonl")
    warm = expand_grid(["line-flood"], seeds=list(range(WARM_SEEDS)), horizon=HORIZON)
    outcome = run_sweep(warm, store=ResultStore(store_path), backend="serial")
    assert outcome.errors == 0

    service = SweepService(store_path)
    host, port = service.start("127.0.0.1", 0)

    def fetch(key):
        with urllib.request.urlopen(f"http://{host}:{port}/results/{key}", timeout=60) as r:
            return json.loads(r.read())

    try:
        fetch(warm[0].key())  # the first read loads the view
        # Another writer sharing the store, as a CLI sweep would.
        size = os.path.getsize(store_path)
        appended = expand_grid(
            ["line-flood"],
            seeds=list(range(WARM_SEEDS, WARM_SEEDS + APPENDED_SEEDS)),
            horizon=HORIZON,
        )
        outcome = run_sweep(appended, store=ResultStore(store_path), backend="serial")
        assert outcome.executed == len(appended)
        appended_bytes = os.path.getsize(store_path) - size

        cells = warm + appended
        before = _counters()
        started = time.perf_counter()
        for cell in cells:
            assert fetch(cell.key())["key"] == cell.key()
        warm_results_s = (time.perf_counter() - started) / len(cells)
        after = _counters()
    finally:
        service.stop()

    parsed = after["store.tail_bytes_parsed"] - before["store.tail_bytes_parsed"]
    reloads = after["store.view_reloads"] - before["store.view_reloads"]
    report(
        "Serve hub: /results on a long-lived store view after foreign appends",
        "no measurement in the paper (serving-layer cost)",
        f"{len(cells)} reads after {len(appended)} appended cells: parsed "
        f"{parsed} bytes (appended {appended_bytes}), {reloads} reloads, "
        f"{warm_results_s * 1e3:.2f}ms per read",
    )
    record(
        ARTIFACT,
        "warm-results",
        {
            "results": len(cells),
            "appended_cells": len(appended),
            "excess_bytes_parsed": parsed - appended_bytes,
            "view_reloads": reloads,
            "warm_results_s": round(warm_results_s, 6),
        },
    )
    assert parsed == appended_bytes
    assert reloads == 0
