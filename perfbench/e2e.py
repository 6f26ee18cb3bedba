"""End-to-end runs: the real CLI, spawned and timed from process spawn.

Tracing is off in every child.  Each function returns an :class:`Outcome`
holding the end-to-end metrics, the operations attempted and failed, and
the work counters the run observed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    Client,
    Exit,
    ServeProcess,
    Stopwatch,
    fresh_dir,
    median,
    percentile,
    records_digest,
    repro_argv,
    spawn_and_wait,
    tail_supported,
    timing_free_bytes,
)
from workloads import (
    Grid,
    serve_plan,
    serve_store,
)

#: Spawns per run behind each short spawn-timed metric (``setup_s``, the
#: resume and the probe sweep): one spawn varies by 12-25% from run to run,
#: the median of seven spread over the run far less.
SPAWN_SAMPLES = 7

#: Cold sweeps per run behind ``throughput_per_s``: one cold sweep of the
#: same grid varies by about 12% from the next, and a run whose first sweep
#: outlasted ``--seconds`` would otherwise rest on that one.
MIN_COLD_SWEEPS = 2

#: POSTs (and reports) the serve loop needs so that each p90 has ten
#: samples beyond it.
SERVE_MIN_SAMPLES = 100

_SUMMARY_RE = re.compile(r"(\d+) cells: (\d+) executed, (\d+) cached, (\d+) errors")


@dataclass
class Sample:
    """One named end-to-end quantity with its unit and sample count."""

    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one end-to-end run measured and checked."""

    metrics: Dict[str, Sample] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counters: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Program behaviour worth reporting that fails no check.
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


# ---------------------------------------------------------------------------
# Sweep workloads.
# ---------------------------------------------------------------------------


def replica_records(grid: Grid) -> Dict[str, Dict[str, Any]]:
    """Records of the in-process serial replica of ``grid``, by cell key."""
    from repro.experiments.runner import run_sweep

    outcome = run_sweep(grid.cells(), store=None, backend="serial")
    return {record["key"]: record for record in outcome.records}


def stored_cells(store_path: str) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(ok cell records, telemetry records)`` of a store, newest per key."""
    from repro.experiments.runner import TELEMETRY_KIND
    from repro.experiments.store import ResultStore

    records = ResultStore(store_path).records()
    cells = [r for r in records if r.get("kind") != TELEMETRY_KIND and r.get("status") == "ok"]
    telemetry = [r for r in records if r.get("kind") == TELEMETRY_KIND]
    return cells, telemetry


def _summary(out: str) -> Optional[Tuple[int, int, int, int]]:
    match = _SUMMARY_RE.search(out)
    return tuple(int(g) for g in match.groups()) if match else None  # type: ignore[return-value]


def _median_sample(watches: List[Stopwatch], unit: str, factor: float) -> Sample:
    """Median of timed intervals, stolen time taken out, in ``unit``."""
    return Sample(median([w.seconds for w in watches]) * factor, unit, len(watches))


def _steal_note(watches: List[Stopwatch], wall: Dict[str, float]) -> str:
    """How much CPU time the hypervisor withheld from the timed intervals,
    and the wall-clock values of the metrics it was taken out of."""
    asked = sum(w.wall for w in watches)
    given = sum(w.seconds for w in watches) / asked if asked else 1.0
    lowest = min((w.given for w in watches), default=1.0)
    values = " ".join(f"{name}={value:.4f}" for name, value in wall.items())
    return (
        f"timed intervals were given {100 * given:.1f}% of the CPU time they asked for "
        f"(lowest {100 * lowest:.1f}%); wall clock: {values}"
    )


def sweep_workload(name: str, grid: Grid, seconds: float) -> Outcome:
    """Cold sweeps into fresh stores, interleaved with the short spawns.

    Full cold sweeps repeat until ``seconds`` have been spent on them, and
    at least :data:`MIN_COLD_SWEEPS` times; ``throughput_per_s`` is all
    their cells over all their time.  After
    each, and then until there are :data:`SPAWN_SAMPLES` of each, come one
    ``--resume`` spawn, one cold sweep of the grid's first cell alone
    (:meth:`Grid.probe`) into a fresh store, and one ``--dry-run`` spawn:
    spread over the run, the samples of one run do not all land in the
    same slow or fast spell of a shared host.
    """
    work = fresh_dir(name)
    outcome = Outcome()
    probe = grid.probe()
    total = len(grid.cells())
    rss: List[float] = []
    # The time of each timed spawn.
    setups: List[Stopwatch] = []
    resumes: List[Stopwatch] = []
    fresh: List[Stopwatch] = []
    cold: List[Stopwatch] = []
    #: Every cold store of the run with the grid it holds, for the checks.
    stores: List[Tuple[Grid, str]] = []
    # Resumes run against a copy of the first cold store, so every cold
    # store keeps its own telemetry record for the checks.
    resume_store = "resume/results.jsonl"

    def spawn(*args: str) -> Exit:
        done = spawn_and_wait(repro_argv(*args), work)
        rss.append(done.rss_mb)
        outcome.check(not done.stray, f"{args[0]} {args[-1]}: processes outlived the child")
        return done

    def cold_sweep(target: Grid) -> Tuple[bool, Stopwatch]:
        """One cold sweep of ``target`` into a fresh store: passed, its time."""
        store = f"cold-{len(stores)}/results.jsonl"
        stores.append((target, store))
        cells = len(target.cells())
        done = spawn(*target.cli_args(store))
        summary = _summary(done.out)
        ok = outcome.check(
            done.code == 0 and summary == (cells, cells, 0, 0),
            f"cold sweep of {cells} cells: exit {done.code}, summary {summary}",
        )
        return ok, done.time

    def probe_round() -> None:
        done = spawn(*grid.cli_args(resume_store), "--resume")
        summary = _summary(done.out)
        if outcome.check(
            done.code == 0 and summary == (total, 0, total, 0),
            f"resume: exit {done.code}, summary {summary} (want {total} cached)",
        ):
            resumes.append(done.time)
        ok, watch = cold_sweep(probe)
        if ok:
            fresh.append(watch)
        done = spawn(*grid.cli_args(f"dry-{len(setups)}/results.jsonl"), "--dry-run")
        if outcome.check(done.code == 0 and f"-> {total} cells" in done.out, "dry run failed"):
            setups.append(done.time)

    rounds = 0
    while len(cold) < MIN_COLD_SWEEPS or sum(w.wall for w in cold) < seconds:
        cold.append(cold_sweep(grid)[1])
        if len(cold) == 1:
            shutil.copytree(
                os.path.join(work, os.path.dirname(stores[-1][1])), os.path.join(work, "resume")
            )
        probe_round()
        rounds += 1
    while rounds < SPAWN_SAMPLES:
        probe_round()
        rounds += 1

    # Output checks (untimed): every cold store must hold exactly the
    # records of the in-process serial replica, timing fields aside.
    expected = replica_records(grid)
    for index, (target, store) in enumerate(stores):
        keys = [cell.key() for cell in target.cells()]
        cells, telemetry = stored_cells(os.path.join(work, store))
        executed = [t["cells"]["executed"] for t in telemetry]
        outcome.check(
            len(cells) == len(keys)
            and records_digest(cells) == records_digest(expected.get(k, {}) for k in keys),
            f"cold sweep {index}: records differ from the serial replica",
        )
        outcome.check(
            executed[:1] == [len(keys)],
            f"cold sweep {index}: telemetry executed {executed}, want {len(keys)}",
        )
        if index == 0 and telemetry:
            outcome.counters = sweep_counters(telemetry[0])
            # A resume view parses the whole tail once for ``total`` lookups.
            outcome.counters["store.bytes_per_lookup"] = (
                sum(timing_free_bytes(record) for record in cells) / total
            )
        if index == 0 and grid.straddles_vector_min:
            from repro.core.longest_paths import VECTOR_MIN_EDGES

            edges = [record["analyses"]["bounds_graph"]["edges"] for record in cells]
            outcome.check(
                bool(edges) and min(edges) < VECTOR_MIN_EDGES <= max(edges),
                f"GB(r) sizes {min(edges, default=0)}-{max(edges, default=0)} do not "
                f"straddle VECTOR_MIN_EDGES={VECTOR_MIN_EDGES}",
            )

    if not setups or not resumes or not fresh:
        raise BenchError(f"{name}: no successful spawns to time")
    metrics = outcome.metrics
    metrics["setup_s"] = _median_sample(setups, "s", 1.0)
    metrics["throughput_per_s"] = Sample(
        total * len(cold) / sum(w.seconds for w in cold), "1/s", len(cold)
    )
    metrics["cached_read_ms"] = _median_sample(resumes, "ms", 1000.0)
    metrics["fresh_write_ms"] = _median_sample(fresh, "ms", 1000.0)
    metrics["peak_rss_mb"] = Sample(max(rss), "MiB", len(rss))
    # The per-workload names of the quantities the shared names stand for here.
    metrics["cells_per_s"] = metrics["throughput_per_s"]
    metrics["resume_s"] = _median_sample(resumes, "s", 1.0)
    outcome.notes.append(_steal_note(setups + resumes + fresh + cold, {
        "setup_s": median([w.wall for w in setups]),
        "throughput_per_s": total * len(cold) / sum(w.wall for w in cold),
        "cached_read_ms": 1000.0 * median([w.wall for w in resumes]),
        "fresh_write_ms": 1000.0 * median([w.wall for w in fresh]),
    }))
    shutil.rmtree(work, ignore_errors=True)
    return outcome


#: Work counters read from a sweep's telemetry record.  They count work,
#: not time, and repeat exactly across same-seed runs.
SWEEP_COUNTERS = (
    "engine.rows_computed",
    "engine.queries",
    "store.appends",
    "store.lookups",
    "runner.base_cache_misses",
    "session.advances",
    "sweep.cells_executed",
)


def sweep_counters(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    counters = telemetry.get("metrics", {}).get("counters", {})
    return {name: counters.get(name, 0) for name in SWEEP_COUNTERS}


# ---------------------------------------------------------------------------
# serve-mixed.
# ---------------------------------------------------------------------------


def build_serve_store(seed: int, work: str) -> str:
    """Build the pre-populated store with the program itself.

    The first sweep is sealed whole into a checksummed segment plus index by
    ``repro store migrate``; the second runs with rotation off, so its
    records stay in a multi-MB tail.  Sealing by command rather than by
    size keeps the segment/tail split the same on every run.
    """
    layout = serve_store(seed)
    store = "pristine/results.jsonl"
    for argv in (
        [*layout.sealed.cli_args(store), "--rotate-bytes", "0"],
        ["store", "migrate", "--store", store],
        [*layout.tail.cli_args(store), "--rotate-bytes", "0"],
    ):
        if spawn_and_wait(repro_argv(*argv), work).code != 0:
            raise BenchError("building the serve store failed")
    path = os.path.join(work, store)
    segments = os.listdir(path + ".segments") if os.path.isdir(path + ".segments") else []
    if not segments or not os.path.isfile(path + ".index.json"):
        raise BenchError("serve store has no sealed segment and index")
    return path


def copy_store(pristine: str, work: str, name: str) -> str:
    """A fresh copy of the pristine store (tail, segments, index) for one server."""
    target = os.path.join(work, name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.dirname(pristine), target)
    return os.path.join(target, os.path.basename(pristine))


def flat_metrics(client: Client) -> Dict[str, float]:
    status, body = client.request("GET", "/metrics?format=flat")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    flat: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        name, _, value = line.rpartition(" ")
        flat[name] = float(value)
    return flat


#: Counters of the serve process whose deltas over the fixed request prefix
#: repeat exactly across same-seed runs.
SERVE_COUNTERS = (
    "engine.rows_computed",
    "store.appends",
    "store.lookups",
    "store.index_hits",
    "store.segment_fetches",
    "runner.base_cache_misses",
    "serve.requests",
    "serve.cache_hit",
    "serve.cache_miss",
    "sweep.cells_executed",
)


class ServeSession:
    """One closed-loop client against a running server, with output checks."""

    def __init__(self, client: Client, outcome: Outcome, ok_cells: int):
        self.client = client
        self.outcome = outcome
        self.ok_cells = ok_cells
        #: Latency of each request by kind, stolen time taken out (see
        #: :meth:`end_round`), and as wall time.
        self.latency_ms: Dict[str, List[float]] = {"results": [], "report": [], "sweep": []}
        self.wall_ms: Dict[str, List[float]] = {"results": [], "report": [], "sweep": []}
        self.round_ms: List[Tuple[str, float]] = []
        self.result_bodies: List[Tuple[str, bytes]] = []
        #: Keys of POSTed cells, in order, and for each /results request the
        #: number of POSTed cells before it (for the bytes-per-lookup count).
        self.posted_keys: List[str] = []
        self.results_after: List[Tuple[str, int]] = []
        self.sweep_ids: List[str] = []
        #: Event streams that reached ``end`` without a ``complete`` event.
        self.missing_complete = 0

    def send(self, request) -> None:
        started = time.perf_counter()
        if request.kind == "results":
            status, body = self.client.request("GET", f"/results/{request.key}")
            elapsed = time.perf_counter() - started
            self.results_after.append((request.key, len(self.posted_keys)))
            if self.outcome.check(status == 200, f"/results answered {status}"):
                self.result_bodies.append((request.key, body))
        elif request.kind == "report":
            status, body = self.client.request("GET", "/report")
            elapsed = time.perf_counter() - started
            records = json.loads(body).get("records") if status == 200 else None
            self.outcome.check(
                records == self.ok_cells,
                f"/report: status {status}, records {records}, want {self.ok_cells}",
            )
        else:
            cells = len(request.spec["scenarios"]) * len(request.spec["adversaries"])
            status, body = self.client.request("POST", "/sweeps", request.spec)
            ok = status == 201
            events: List[Dict[str, Any]] = []
            if ok:
                sweep_id = json.loads(body)["sweep"]
                self.sweep_ids.append(sweep_id)
                status, body = self.client.request("GET", f"/sweeps/{sweep_id}/events")
                ok = status == 200
                events = [json.loads(line) for line in body.splitlines() if line.strip()]
            elapsed = time.perf_counter() - started
            executed = [e["key"] for e in events if e.get("event") == "executed"]
            complete = [e["cells"] for e in events if e.get("event") == "complete"]
            # ``repro serve`` marks a job done before it emits ``complete``,
            # so a stream can reach ``end`` without it; the per-cell events
            # carry the same counts.
            self.missing_complete += not complete
            ok = (
                ok
                and events[-1:] == [{"event": "end", "sweep": sweep_id, "status": "done"}]
                and len(set(executed)) == cells
                and not any(e.get("event") == "error" for e in events)
                and all(c["executed"] == cells and c["errors"] == 0 for c in complete)
            )
            self.outcome.check(ok, f"POST /sweeps: status {status}, events {events[-2:]}")
            # The server stored every cell it reported executed, whether or
            # not the job passed its check.
            self.ok_cells += len(executed)
            self.posted_keys += executed
        self.round_ms.append((request.kind, elapsed * 1000.0))

    def end_round(self, watch: Stopwatch) -> None:
        """File the latencies of the round ``watch`` timed.

        A request is too short to tell from the kernel's clock ticks how
        much of it was stolen, so each takes its round's share.
        """
        for kind, wall_ms in self.round_ms:
            self.wall_ms[kind].append(wall_ms)
            self.latency_ms[kind].append(wall_ms * watch.given)
        self.round_ms = []

    def check_bodies(self, store: str) -> None:
        """Every ``/results`` body must be an ok record, the store's for that key.

        Stored keys are never rewritten during a run, so one view of the
        store after the run answers for every request.
        """
        from repro.experiments.store import ResultStore

        view = ResultStore(store)
        for key, body in self.result_bodies:
            record = json.loads(body)
            if record.get("status") != "ok" or record != view.get(key):
                self.outcome.failed += 1
                self.outcome.problems.append(f"/results/{key[:12]} differs from ResultStore.get")


def lookup_bytes(pristine: str, session: "ServeSession", view, requests: int) -> float:
    """Record bytes parsed per ``/results`` lookup over the first ``requests``.

    Each request opens a fresh store view that parses the whole tail (the
    pre-populated tail plus every cell POSTed so far); a key sealed in a
    segment adds one fetched record.  Computed from timing-free record
    sizes, so it repeats exactly across same-seed runs.
    """
    with open(pristine, "rb") as handle:
        tail = [json.loads(line) for line in handle if line.strip()]
    tail_bytes = sum(timing_free_bytes(r) for r in tail if r.get("status") == "ok")
    with open(pristine + ".index.json") as handle:
        sealed = json.load(handle)["entries"]
    tail_keys = {r.get("key") for r in tail}
    posted = [timing_free_bytes(view.get(key)) for key in session.posted_keys]
    prefix = [0]
    for size in posted:
        prefix.append(prefix[-1] + size)
    total = 0
    for key, before in session.results_after[:requests]:
        total += tail_bytes + prefix[before]
        if key in sealed and key not in tail_keys:
            total += timing_free_bytes(view.get(key))
    return total / max(1, min(requests, len(session.results_after)))


def serve_workload(seed: int, seconds: float) -> Outcome:
    """``repro serve`` over a pre-populated store, one closed-loop client.

    The loop runs whole request rounds until ``seconds`` have passed and at
    least :data:`SERVE_MIN_SAMPLES` POSTs (and as many reports) were sent;
    the work counters are the ``/metrics`` deltas over the rounds of those
    first POSTs, a fixed request prefix.
    """
    from repro.experiments.store import ResultStore

    work = fresh_dir("serve-mixed")
    outcome = Outcome()
    pristine = build_serve_store(seed, work)
    cells, _ = stored_cells(pristine)
    plan = serve_plan(seed, [record["key"] for record in cells])

    setups: List[Stopwatch] = []
    rounds_timed: List[Stopwatch] = []
    rss: List[float] = []

    def probe_setup() -> None:
        probe = ServeProcess(copy_store(pristine, work, "setup"), work)
        probe.stop()
        rss.append(probe.rss_mb)
        outcome.check(not probe.stray, "setup probe: processes outlived the server")
        setups.append(probe.ready)

    # Setup probes are spread over the run (one every few rounds, while the
    # live server idles between requests) rather than taken back to back.
    probe_setup()
    store = copy_store(pristine, work, "live")
    server = ServeProcess(store, work)
    try:
        client = Client(server.port)
        session = ServeSession(client, outcome, ok_cells=len(cells))
        before = flat_metrics(client)
        prefix_rounds = -(-SERVE_MIN_SAMPLES // plan.POSTS)
        rounds = 0
        while rounds < prefix_rounds or sum(w.wall for w in rounds_timed) < seconds:
            watch = Stopwatch()
            for request in plan.round():
                session.send(request)
            rounds_timed.append(watch.stop())
            session.end_round(watch)
            rounds += 1
            if rounds == prefix_rounds:
                after = flat_metrics(client)
                outcome.counters = {
                    name: after.get(name, 0) - before.get(name, 0) for name in SERVE_COUNTERS
                }
                prefix_results = len(session.results_after)
            if rounds % 3 == 0 and len(setups) < SPAWN_SAMPLES:
                probe_setup()
    finally:
        server.stop()
    rss.append(server.rss_mb)
    outcome.check(not server.stray, "live server: processes outlived it")
    while len(setups) < SPAWN_SAMPLES:
        probe_setup()

    if session.missing_complete:
        outcome.notes.append(
            f"{session.missing_complete} of {len(session.sweep_ids)} event streams reached "
            "end without a complete event"
        )
    session.check_bodies(store)
    view = ResultStore(store)
    outcome.counters["store.bytes_per_lookup"] = lookup_bytes(
        pristine, session, view, prefix_results
    )
    final_cells, _ = stored_cells(store)
    outcome.check(
        len(final_cells) == session.ok_cells,
        f"store holds {len(final_cells)} ok cells, want {session.ok_cells}",
    )

    latency_ms = session.latency_ms
    requests = sum(len(values) for values in latency_ms.values())
    metrics = outcome.metrics
    metrics["setup_s"] = _median_sample(setups, "s", 1.0)
    metrics["throughput_per_s"] = Sample(
        requests / sum(w.seconds for w in rounds_timed), "1/s", requests
    )

    def quantile(kind: str, q: float) -> Sample:
        return Sample(percentile(latency_ms[kind], q), "ms", len(latency_ms[kind]))

    metrics["cached_read_ms"] = quantile("results", 0.5)
    metrics["fresh_write_ms"] = quantile("sweep", 0.5)
    metrics["peak_rss_mb"] = Sample(max(rss), "MiB", len(rss))
    metrics["requests_per_s"] = metrics["throughput_per_s"]
    for kind in ("results", "report", "sweep"):
        metrics[f"{kind}_p50_ms"] = quantile(kind, 0.5)
        if tail_supported(len(latency_ms[kind]), 0.9):
            metrics[f"{kind}_p90_ms"] = quantile(kind, 0.9)
    outcome.notes.append(_steal_note(setups + rounds_timed, {
        "setup_s": median([w.wall for w in setups]),
        "throughput_per_s": requests / sum(w.wall for w in rounds_timed),
        "cached_read_ms": percentile(session.wall_ms["results"], 0.5),
        "fresh_write_ms": percentile(session.wall_ms["sweep"], 0.5),
    }))
    shutil.rmtree(work, ignore_errors=True)
    return outcome
