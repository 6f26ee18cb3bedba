"""Per-layer breakdown: the in-process replica of a workload, under spans.

The benchmark's own spans wrap the public entry point of each layer (the
program itself is not modified).  Spans carry a name, start, end, parent
span and the id of the cell or request they serve; they are kept in memory
and written to ``.perfbench_work/traces/`` when the run finishes.

A layer's self time is the time during which one of its spans is the
innermost open span (the most recently started one, across threads).  The
self times of all layers plus ``unattributed`` (time no span covers) add up
to the replica's wall time exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import (
    Client,
    declared_metrics,
    fresh_dir,
    median,
    records_digest,
    repro_argv,
    spawn_and_wait,
    WORK,
)
from e2e import (
    Outcome,
    ServeSession,
    copy_store,
    build_serve_store,
    stored_cells,
)
from workloads import ANALYSES, Grid, large_graphs_grid, serve_plan, small_cells_grid

#: Request rounds of the serve replica (40 POSTs, 40 reports, 88 result reads).
TRACE_ROUNDS = 8

#: Layers whose self time the breakdown reports, in print order.  Every
#: span name maps to one of them.
LAYERS = (
    "serve.http",
    "serve.submit",
    "serve.result",
    "serve.report",
    "reporting.report",
    "remote.execute",
    "runner.sweep",
    "runner.cell",
    "scenarios.build",
    "simulation.run",
    *(f"analyses.{name}" for name in ANALYSES),
    "store.open",
    "store.get",
    "store.put",
    "store.scan",
)

# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    Parents come from a per-thread stack; a span opened on a thread with
    no open span (the serve runner or handler threads) takes the current
    request's root span as its parent, which is unambiguous because the
    client is closed-loop with one request in flight.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: Optional[int] = None
        self.op: Optional[str] = None
        self.counts: Dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                {"name": name, "start": time.perf_counter(), "end": None,
                 "parent": parent, "op": op or self.op}
            )
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self, wall_start: float, wall_end: float) -> Tuple[Dict[str, float], float]:
        """Self time per layer and the unattributed remainder of the wall."""
        bounds = []
        for index, record in enumerate(self.spans):
            if record["end"] is None:
                continue
            bounds.append((record["start"], 1, index))
            bounds.append((record["end"], 0, index))
        bounds.sort()
        selfs: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        active: Dict[int, float] = {}
        covered = 0.0
        previous = wall_start
        for moment, opening, index in bounds:
            if active and moment > previous:
                innermost = max(active, key=lambda i: (active[i], i))
                selfs[self.spans[innermost]["name"]] += moment - previous
                covered += moment - previous
            previous = max(previous, moment)
            if opening:
                active[index] = self.spans[index]["start"]
            else:
                active.pop(index, None)
        return selfs, (wall_end - wall_start) - covered


def _wrap(tracer: Tracer, name: str, fn: Callable, name_of: Optional[Callable] = None):
    def traced(*args, **kwargs):
        with tracer.span(name_of(*args) if name_of else name):
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry point in spans, restoring on exit."""
    from repro.experiments import analyses, executors, remote, reporting, runner, serve
    from repro.experiments.store import ResultStore
    from repro.scenarios.base import Scenario

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    build = runner.build_base_scenario

    def build_base_scenario(cell):
        tracer.count("scenarios.builds")
        with tracer.span("scenarios.build"):
            return build(cell)

    run_scenario = Scenario.run

    def simulate(scenario):
        with tracer.span("simulation.run"):
            run = run_scenario(scenario)
        tracer.count("simulation.nodes", sum(len(t) for t in run.timelines.values()))
        return run

    execute_cell_inline = runner.execute_cell_inline

    def cell(cell_, base_cache=None):
        with tracer.span("runner.cell", op=cell_.key()[:12]):
            return execute_cell_inline(cell_, base_cache)

    report_method = serve.SweepService.report

    def report(self, **kwargs):
        with tracer.span("serve.report"):
            payload = report_method(self, **kwargs)
        if payload is not None:
            tracer.count("serve.reports")
            tracer.count("serve.report_cache_hits", int(bool(payload.get("served_from_cache"))))
        return payload

    patch(runner, "build_base_scenario", build_base_scenario)
    patch(runner, "decorate_scenario", _wrap(tracer, "scenarios.build", runner.decorate_scenario))
    for module in (runner, executors, remote):
        patch(module, "execute_cell_inline", cell)
    patch(runner, "run_sweep", _wrap(tracer, "runner.sweep", runner.run_sweep))
    patch(serve, "run_sweep", runner.run_sweep)
    patch(Scenario, "run", simulate)
    patch(analyses.AnalysisPass, "run", _wrap(
        tracer, "", analyses.AnalysisPass.run, name_of=lambda self, *_: f"analyses.{self.name}"
    ))
    patch(ResultStore, "__init__", _wrap(tracer, "store.open", ResultStore.__init__))
    patch(ResultStore, "get", _wrap(tracer, "store.get", ResultStore.get))
    patch(ResultStore, "put", _wrap(tracer, "store.put", ResultStore.put))
    patch(ResultStore, "records", _wrap(tracer, "store.scan", ResultStore.records))
    patch(serve, "report_payload", _wrap(tracer, "reporting.report", reporting.report_payload))
    patch(serve.SweepService, "submit", _wrap(tracer, "serve.submit", serve.SweepService.submit))
    patch(serve.SweepService, "result", _wrap(tracer, "serve.result", serve.SweepService.result))
    patch(serve.SweepService, "report", report)
    patch(remote.RemoteExecutor, "execute", _wrap(
        tracer, "remote.execute", remote.RemoteExecutor.execute
    ))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Counters of the in-process registry.
# ---------------------------------------------------------------------------


def _counters() -> Dict[str, float]:
    from repro.obs import metrics

    return dict(metrics.registry().snapshot()["counters"])


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: after.get(name, 0) - before.get(name, 0) for name in after}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def registry_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    hits = delta.get("engine.row_cache_hits", 0)
    computed = delta.get("engine.rows_computed", 0)
    return {
        "engine.rows_computed": computed,
        "engine.row_hit_rate": _ratio(hits, hits + computed),
        "session.advances": delta.get("session.advances", 0),
        "intern.objects_interned": delta.get("intern.objects_interned", 0),
        "store.index_hits": delta.get("store.index_hits", 0),
        "store.segment_fetches": delta.get("store.segment_fetches", 0),
        "store.crc_failures": delta.get("store.crc_failures", 0),
        "serve.requests": delta.get("serve.requests", 0),
        "serve.errors": delta.get("serve.errors", 0),
        "serve.recomputes": delta.get("serve.recomputes", 0),
        "remote.duplicate_results_dropped": delta.get("remote.duplicate_results_dropped", 0),
    }


def startup_metrics() -> Dict[str, float]:
    """Median spawn-to-exit time of a bare ``import`` of each package."""
    import sys

    work = fresh_dir("startup")
    out = {}
    for name, module in (
        ("startup.import_repro_s", "repro"),
        ("startup.import_experiments_s", "repro.experiments"),
    ):
        times = [
            spawn_and_wait([sys.executable, "-c", f"import {module}"], work).time.seconds
            for _ in range(5)
        ]
        out[name] = median(times)
    shutil.rmtree(work, ignore_errors=True)
    return out


def executor_metrics(telemetry: Dict[str, Any], cell_seconds: float) -> Dict[str, float]:
    """Dispatch figures of a real CLI sweep, from its persisted telemetry."""
    execute_s = telemetry["timings"]["execute_s"]
    workers = telemetry.get("workers") or 1
    counters = telemetry.get("metrics", {}).get("counters", {})
    retries = sum(
        counters.get(name, 0)
        for name in ("sweep.task_retries", "sweep.shard_inline_retries", "sweep.pool_restarts")
    )
    return {
        "executors.execute_s": execute_s,
        "executors.worker_utilization": telemetry.get("worker_utilization") or 0.0,
        "executors.dispatch_overhead_s": execute_s - cell_seconds / workers,
        "executors.retries": retries,
    }


# ---------------------------------------------------------------------------
# Replicas.
# ---------------------------------------------------------------------------


def _breakdown(tracer: Tracer, started: float, ended: float) -> Dict[str, float]:
    selfs, unattributed = tracer.self_times(started, ended)
    metrics = {f"{layer}_s": seconds for layer, seconds in selfs.items()}
    metrics["trace.wall_s"] = ended - started
    metrics["trace.unattributed_s"] = unattributed
    metrics["scenarios.builds"] = tracer.counts.get("scenarios.builds", 0)
    metrics["simulation.nodes"] = tracer.counts.get("simulation.nodes", 0)
    return metrics


def _store_bytes(path: str) -> int:
    index = path + ".index.json"
    return os.path.getsize(path) + (os.path.getsize(index) if os.path.exists(index) else 0)


def _sweep_replica(grid: Grid, store_path: str, tracer: Optional[Tracer]):
    """A cold serial sweep then a resume of the same grid, in process.

    Returns ``(started, ended, cold outcome, resume outcome)``.
    """
    from repro.experiments import runner
    from repro.experiments.store import ResultStore

    cells = grid.cells()
    with instrumented(tracer) if tracer else contextlib.nullcontext():
        started = time.perf_counter()
        cold = runner.run_sweep(cells, store=ResultStore(store_path), backend="serial")
        resumed = runner.run_sweep(
            cells, store=ResultStore(store_path), backend="serial", resume=True
        )
        ended = time.perf_counter()
    return started, ended, cold, resumed


def traced_sweep(name: str, grid: Grid, outcome: Outcome) -> Tuple[Dict[str, float], Tracer]:
    from repro.experiments import runner

    work = fresh_dir(name + "-trace")
    total = len(grid.cells())

    # The real CLI sweep: the executor layer's figures and the reference records.
    done = spawn_and_wait(repro_argv(*grid.cli_args("cli/results.jsonl")), work)
    outcome.check(done.code == 0, f"CLI sweep exit {done.code}")
    cli_cells, telemetry = stored_cells(os.path.join(work, "cli/results.jsonl"))

    # Warm lazily built caches, then run the untraced and the traced
    # replica back to back, each on a fresh store.
    runner.run_sweep(grid.cells()[:12], store=None, backend="serial")
    started, ended, _, _ = _sweep_replica(grid, os.path.join(work, "plain/results.jsonl"), None)
    plain_s = ended - started
    tracer = Tracer()
    before = _counters()
    tail = os.path.join(work, "traced/results.jsonl")
    started, ended, cold, resumed = _sweep_replica(grid, tail, tracer)
    delta = _delta(before, _counters())

    outcome.check(
        records_digest(cold.records) == records_digest(cli_cells) and cold.executed == total,
        "serial replica records differ from the CLI sweep",
    )
    outcome.check(resumed.cached == total, f"replica resume cached {resumed.cached}/{total}")
    metrics = _breakdown(tracer, started, ended)
    metrics.update(registry_metrics(delta))
    metrics["core.bounds_edges"] = sum(
        r["analyses"]["bounds_graph"]["edges"] for r in cold.records
    )
    # Computed: the cold view loads an empty file, the resume view loads
    # the whole tail once; every get reads from those loads.
    metrics["store.bytes_read_per_get"] = _ratio(
        _store_bytes(tail), delta.get("store.lookups", 0)
    )
    metrics["obs.tracing_overhead_frac"] = (ended - started - plain_s) / plain_s
    if telemetry:
        cell_seconds = sum(r["duration_s"] for r in cli_cells)
        metrics.update(executor_metrics(telemetry[0], cell_seconds))
    shutil.rmtree(work, ignore_errors=True)
    return metrics, tracer


def _serve_replica(
    pristine: str, work: str, seed: int, rounds: int, keys: List[str], ok_cells: int,
    outcome: Outcome, tracer: Optional[Tracer],
) -> Tuple[float, float, Any, str, List[Any]]:
    """The serve-mixed request prefix against an in-process ``SweepService``,
    driven over HTTP by the same closed-loop client as the end-to-end run."""
    from repro.experiments.serve import SweepService

    store = copy_store(pristine, work, "traced" if tracer else "plain")
    service = SweepService(store)
    address = service.start("127.0.0.1", 0)
    client = Client(address[1])
    session = ServeSession(client, outcome, ok_cells=ok_cells)
    plan = serve_plan(seed, keys)
    try:
        with instrumented(tracer) if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            for number in range(rounds):
                for index, request in enumerate(plan.round()):
                    if tracer is None:
                        session.send(request)
                        continue
                    tracer.op = f"{request.kind}-{number}-{index}"
                    with tracer.span("serve.http") as root:
                        tracer.root = root
                        session.send(request)
                    tracer.root = tracer.op = None
            ended = time.perf_counter()
    finally:
        service.stop()
    return started, ended, session, store, [service.job(id_) for id_ in session.sweep_ids]


def traced_serve(seed: int, outcome: Outcome) -> Tuple[Dict[str, float], Tracer]:
    from repro.experiments.store import ResultStore

    work = fresh_dir("serve-mixed-trace")
    pristine = build_serve_store(seed, work)
    cells, _ = stored_cells(pristine)
    keys = [record["key"] for record in cells]
    rounds = TRACE_ROUNDS
    initial_bytes = _store_bytes(pristine)

    _serve_replica(pristine, work, seed, 1, keys, len(cells), Outcome(), None)  # warm-up
    started, ended, _, _, _ = _serve_replica(
        pristine, work, seed, rounds, keys, len(cells), Outcome(), None
    )
    plain_s = ended - started
    tracer = Tracer()
    before = _counters()
    started, ended, session, store, jobs = _serve_replica(
        pristine, work, seed, rounds, keys, len(cells), outcome, tracer
    )
    delta = _delta(before, _counters())
    metrics = _breakdown(tracer, started, ended)
    metrics.update(registry_metrics(delta))

    session.check_bodies(store)
    view = ResultStore(store)

    # HTTP overhead: client latency minus the in-process SweepService.result call.
    by_op: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        if (span["op"] or "").startswith("results-") and span["name"] in (
            "serve.http", "serve.result"
        ):
            by_op.setdefault(span["op"], {})[span["name"]] = span["end"] - span["start"]
    overheads = [
        (spans["serve.http"] - spans["serve.result"]) * 1000.0
        for spans in by_op.values() if len(spans) == 2
    ]
    metrics["serve.http_overhead_ms"] = median(overheads) if overheads else 0.0
    metrics["serve.report_cache_hit_rate"] = _ratio(
        tracer.counts.get("serve.report_cache_hits", 0), tracer.counts.get("serve.reports", 0)
    )
    overhead = []
    for job in jobs:
        records = [view.get(cell.key()) for cell in job.cells]
        if job.duration_s is not None and all(records):
            overhead.append(job.duration_s - sum(r.get("duration_s", 0.0) for r in records))
    metrics["remote.job_overhead_s"] = statistics.mean(overhead) if overhead else 0.0
    metrics["core.bounds_edges"] = sum(
        view.get(cell.key())["analyses"]["bounds_graph"]["edges"]
        for job in jobs for cell in job.cells
    )
    gets = sum(1 for span in tracer.spans if span["name"] == "store.get")
    views = sum(1 for span in tracer.spans if span["name"] == "store.open")
    metrics["store.bytes_read_per_get"] = _ratio(
        views * (initial_bytes + _store_bytes(store)) / 2.0, gets
    )
    metrics["obs.tracing_overhead_frac"] = (ended - started - plain_s) / plain_s
    shutil.rmtree(work, ignore_errors=True)
    return metrics, tracer


def write_trace(workload: str, seed: int, tracer: Tracer, metrics: Dict[str, float]) -> str:
    """Write the run's spans and metrics once the run is over."""
    directory = os.path.join(WORK, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    origin = min((span["start"] for span in tracer.spans), default=0.0)
    spans = [
        {**span, "start": span["start"] - origin, "end": (span["end"] or origin) - origin}
        for span in tracer.spans
    ]
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics, "spans": spans}, handle)
    return path


def print_breakdown(
    workload: str, seed: int, metrics: Dict[str, float], units: Dict[str, str], outcome: Outcome
) -> None:
    wall = metrics["trace.wall_s"]
    print(f"# {workload} seed={seed}: per-layer self time of the traced replica")
    total = 0.0
    for layer in LAYERS:
        seconds = metrics.get(f"{layer}_s", 0.0)
        total += seconds
        if seconds:
            print(f"{layer:>24} {seconds:10.4f} s {100.0 * seconds / wall:6.1f}%")
    unattributed = metrics["trace.unattributed_s"]
    print(f"{'unattributed':>24} {unattributed:10.4f} s {100.0 * unattributed / wall:6.1f}%")
    print(f"{'sum':>24} {total + unattributed:10.4f} s  (wall {wall:.4f} s)")
    print("# per-layer metrics")
    for name, unit in units.items():
        print(f"{name:>34} {metrics[name]:14.6f} {unit}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")


def traced_workload(workload: str, seed: int) -> dict:
    """The ``--trace 1`` run: a fixed-size replica, so ``--seconds`` does not apply."""
    outcome = Outcome()
    if workload == "sweep-small-cells":
        metrics, tracer = traced_sweep(workload, small_cells_grid(seed), outcome)
    elif workload == "sweep-large-graphs":
        metrics, tracer = traced_sweep(workload, large_graphs_grid(seed), outcome)
    else:
        metrics, tracer = traced_serve(seed, outcome)
    metrics.update(startup_metrics())
    units = declared_metrics("per_layer")
    result = {name: float(metrics.get(name, 0.0)) for name in units}
    write_trace(workload, seed, tracer, result)
    print_breakdown(workload, seed, result, units, outcome)
    return {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": result[name], "unit": unit} for name, unit in units.items()
        },
    }
