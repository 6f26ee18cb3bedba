"""``repro serve``: the HTTP front door over the sweep + store stack.

A long-running :class:`SweepService` turns the batch pipeline into a system
that serves traffic: clients POST sweep specs as JSON, poll or stream
progress, and read cell records and aggregated reports straight out of the
content-addressed :class:`~repro.experiments.store.ResultStore`.  The design
splits a small always-on hub from elastic workers: hot results cost one
advisory-index probe plus one pread, and only cold cells fan out to the
distributed fabric (:mod:`repro.experiments.remote`) when one is attached.

Everything is stdlib (``http.server.ThreadingHTTPServer``, newline-JSON
bodies) — no new dependencies.  Endpoints:

========================  ====================================================
``POST /sweeps``          validate a spec against the scenario registry's
                          typed ParamSpecs, return a sweep id; cells already
                          in the store are instant cache hits, cold cells
                          execute in-process or on the worker fleet
``GET /sweeps/{id}``      progress snapshot (counts + fabric state while
                          running)
``GET /sweeps/{id}/events``  chunked newline-JSON progress stream
``GET /results/{key}``    one record, content-addressed; a damaged or
                          missing record of a known cell degrades to
                          recompute-and-supersede (PR 9 semantics)
``GET /report``           aggregated report over the store (or one sweep),
                          cached against the store's on-disk signature
``GET /healthz``          liveness + store layout
``GET /metrics``          the ``repro.obs`` registry snapshot
========================  ====================================================

Invariants this module rides on (and must preserve):

* **Every job delivers each cell exactly once.**  Jobs execute via
  :func:`~repro.experiments.runner.run_sweep`.  Without ``--workers-listen``
  they run in-process on a single-worker
  :class:`~repro.experiments.executors.ChunkedShardExecutor`, which calls
  the result handler once per cell by construction; with it, a
  :class:`~repro.experiments.remote.RemoteExecutor` serves leases to the
  fleet and ``FabricScheduler.complete``/``record_local`` dedup redelivered
  cells.
* **The store is the shared source of truth.**  Every request opens its own
  :class:`ResultStore` view, so reads ride the store invariants (tail always
  scanned in full, advisory index, tail-wins lookups, flock'd appends) and a
  serve process coexists with CLI sweeps on the same store.  ``/results``
  stays correct with the index deleted, stale, or disabled.
* **Telemetry is free.**  Every request increments ``serve.*`` counters and
  runs under :func:`~repro.obs.trace.span`, so ``/metrics`` self-reports the
  service's own traffic.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..obs.trace import span
from .executors import ChunkedShardExecutor, SweepExecutor
from .remote import RemoteExecutor, parse_endpoint  # parse_endpoint: re-exported
from .reporting import DEFAULT_REPORT_METRICS, cell_records, report_payload
from .runner import (  # SpecError, validate_spec: re-exported
    TELEMETRY_KIND,
    SpecError,
    SweepCell,
    execute_cell,
    run_sweep,
    validate_spec,
)
from .store import DEFAULT_STORE_PATH, ResultStore, canonical_json

__all__ = [
    "MAX_CELLS",
    "SpecError",
    "SweepService",
    "parse_endpoint",
    "validate_spec",
]

_C_REQUESTS = _metrics.counter("serve.requests")
_C_ERRORS = _metrics.counter("serve.errors")
_C_BAD_REQUESTS = _metrics.counter("serve.bad_requests")
_C_SWEEPS_POSTED = _metrics.counter("serve.sweeps_posted")
_C_CACHE_HIT = _metrics.counter("serve.cache_hit")
_C_CACHE_MISS = _metrics.counter("serve.cache_miss")
_C_RECOMPUTES = _metrics.counter("serve.recomputes")
_C_EVENT_STREAMS = _metrics.counter("serve.event_streams")

#: Ceiling on the cells one POSTed spec may expand to: a service must bound
#: the work a single request can enqueue (sweeps beyond this belong to the
#: batch CLI, which has no such cap).
MAX_CELLS = 10_000

#: Events kept per job (progress stream + snapshot); beyond this the stream
#: reports the drop instead of growing without bound.
_MAX_EVENTS = 20_000

#: How often the HTTP serving loop checks for shutdown, so ``stop()`` returns
#: promptly (``serve_forever`` defaults to 0.5 s).
_POLL_INTERVAL_S = 0.05


# ---------------------------------------------------------------------------
# Sweep jobs.
# ---------------------------------------------------------------------------


class SweepJob:
    """One accepted sweep spec: cells, live counts, and a progress feed."""

    def __init__(self, job_id: str, cells: List[SweepCell], spec: Dict[str, Any]):
        self.id = job_id
        self.cells = cells
        self.spec = spec
        self.status = "queued"  # queued -> running -> done | failed
        self.error: Optional[str] = None
        self.counts = {"cached": 0, "executed": 0, "errors": 0}
        self.duration_s: Optional[float] = None
        self.backend: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.cond = threading.Condition()
        self.executor: Optional[SweepExecutor] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def emit(self, event: Dict[str, Any]) -> None:
        with self.cond:
            if len(self.events) < _MAX_EVENTS:
                self.events.append(event)
            elif len(self.events) == _MAX_EVENTS:
                self.events.append({"event": "truncated", "kept": _MAX_EVENTS})
            self.cond.notify_all()

    def observe(self, phase: str, cell: SweepCell, record: Dict[str, Any]) -> None:
        """The :func:`run_sweep` observer: fold one delivered cell in."""
        with self.cond:
            if phase == "cached":
                self.counts["cached"] += 1
            elif phase == "executed":
                self.counts["executed"] += 1
            else:
                self.counts["errors"] += 1
        event = {"event": phase, "key": record.get("key"), "cell": cell.describe()}
        if phase == "error":
            event["error"] = record.get("error")
        self.emit(event)

    def snapshot(self) -> Dict[str, Any]:
        with self.cond:
            counts = dict(self.counts)
            status = self.status
            events = len(self.events)
        delivered = counts["cached"] + counts["executed"] + counts["errors"]
        out: Dict[str, Any] = {
            "sweep": self.id,
            "status": status,
            "spec": self.spec,
            "cells": {
                "total": len(self.cells),
                "pending": max(0, len(self.cells) - delivered),
                **counts,
            },
            "events": events,
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.duration_s is not None:
            out["duration_s"] = round(self.duration_s, 6)
        if self.error is not None:
            out["error"] = self.error
        executor = self.executor
        if executor is not None:
            # Live robustness accounting (workers, leases, retries).
            out["fabric"] = executor.fabric_summary()
        return out


# ---------------------------------------------------------------------------
# The service.
# ---------------------------------------------------------------------------


class SweepService:
    """The serve hub: sweep jobs, content-addressed reads, cached reports.

    One background runner thread drains POSTed jobs in FIFO order; each job
    runs :func:`run_sweep` in-process, or on a :class:`RemoteExecutor` bound
    to ``workers_listen`` when given.  Either backend delivers each cell
    exactly once.  Sequential job execution makes overlapping grids
    naturally exactly-once: the second job's cache scan sees the first
    job's records.
    """

    def __init__(
        self,
        store_path: str = DEFAULT_STORE_PATH,
        *,
        rotate_bytes: Optional[int] = None,
        workers_listen: Optional[Tuple[str, int]] = None,
        workers: int = 2,
        shard_size: Optional[int] = None,
        local_fallback_s: float = 10.0,
        max_cells: int = MAX_CELLS,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.store_path = store_path
        self.rotate_bytes = rotate_bytes
        self.workers_listen = workers_listen
        self.workers = max(1, workers)
        self.shard_size = shard_size
        self.local_fallback_s = local_fallback_s
        self.max_cells = max_cells
        self.log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._jobs: Dict[str, SweepJob] = {}
        self._digests: Dict[str, List[str]] = {}  # grid digest -> job ids
        self._known_cells: Dict[str, SweepCell] = {}
        self._report_cache: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        self._queue: "queue.Queue[Optional[SweepJob]]" = queue.Queue()
        self._runner: Optional[threading.Thread] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- store views -------------------------------------------------------

    def _open_store(self) -> ResultStore:
        """A fresh per-request view: re-reads disk, so a CLI sweep writing
        the same store (flock'd appends, tail-wins lookups) is visible."""
        if self.rotate_bytes is None:
            return ResultStore(self.store_path)
        return ResultStore(self.store_path, rotate_bytes=self.rotate_bytes or None)

    # -- sweep lifecycle ---------------------------------------------------

    def submit(self, spec: Any) -> Tuple[SweepJob, bool]:
        """Validate a spec; return ``(job, created)``.

        Re-POSTing a grid that is queued or running returns the existing
        job (idempotent); re-POSTing a finished grid creates a fresh job
        whose scan serves everything still in the store as cache hits.
        """
        cells, normalized = validate_spec(spec, max_cells=self.max_cells)
        digest = hashlib.sha256(
            canonical_json(sorted(cell.key() for cell in cells)).encode("utf-8")
        ).hexdigest()[:12]
        with self._lock:
            for job_id in self._digests.get(digest, ()):
                job = self._jobs[job_id]
                if not job.terminal:
                    return job, False
            attempt = len(self._digests.get(digest, ())) + 1
            job_id = f"sweep-{digest}" if attempt == 1 else f"sweep-{digest}-r{attempt}"
            job = SweepJob(job_id, cells, normalized)
            self._jobs[job_id] = job
            self._digests.setdefault(digest, []).append(job_id)
            for cell in cells:
                self._known_cells.setdefault(cell.key(), cell)
        # Instant cache accounting: probe the store once per cell so the
        # POST response already says how much of the grid is hot.
        store = self._open_store()
        hot = 0
        for cell in cells:
            record = store.get(cell.key())
            if (
                record is not None
                and record.get("kind") != TELEMETRY_KIND
                and record.get("status") == "ok"
            ):
                hot += 1
        _C_CACHE_HIT.value += hot
        _C_CACHE_MISS.value += len(cells) - hot
        _C_SWEEPS_POSTED.value += 1
        job.emit({"event": "accepted", "cells": len(cells), "hot": hot})
        self._queue.put(job)
        self.log(f"sweep {job.id}: accepted ({len(cells)} cells, {hot} hot)")
        return job, True

    def job(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def _make_executor(self) -> SweepExecutor:
        if self.workers_listen is None:
            # No worker fleet: run in-process, amortised like the sharded
            # backend; it calls the handler exactly once per cell.
            return ChunkedShardExecutor(1, shard_size=self.shard_size)
        host, port = self.workers_listen
        return RemoteExecutor(
            host,
            port,
            workers_hint=self.workers,
            shard_size=self.shard_size,
            local_fallback_after_s=self.local_fallback_s,
        )

    def _run_job(self, job: SweepJob) -> None:
        # The terminal status and the final event change in one hold of
        # ``job.cond``, so an event stream that sees the job finished has
        # already seen its ``complete`` (or ``failed``) event.
        started = time.perf_counter()
        with job.cond:
            job.status = "running"
            job.cond.notify_all()
        job.emit({"event": "started", "sweep": job.id})
        try:
            executor = self._make_executor()
        except OSError as exc:
            with job.cond:
                job.status = "failed"
                job.error = f"cannot bind workers-listen endpoint: {exc}"
                job.emit({"event": "failed", "error": job.error})
            return
        job.executor = executor
        if isinstance(executor, RemoteExecutor):
            self.log(
                f"sweep {job.id}: coordinator on "
                f"{executor.address[0]}:{executor.address[1]}"
            )
        try:
            with span("serve.sweep", sweep=job.id):
                outcome = run_sweep(
                    job.cells,
                    store=self._open_store(),
                    workers=self.workers,
                    backend=executor,
                    shard_size=self.shard_size,
                    observer=job.observe,
                )
            with job.cond:
                job.status = "done"
                job.duration_s = outcome.duration_s
                job.backend = outcome.backend
                job.emit(
                    {
                        "event": "complete",
                        "sweep": job.id,
                        "cells": {
                            "total": outcome.total,
                            "executed": outcome.executed,
                            "cached": outcome.cached,
                            "errors": outcome.errors,
                        },
                        "duration_s": round(outcome.duration_s, 6),
                    }
                )
            self.log(f"sweep {job.id}: {outcome.describe()}")
        except Exception as exc:  # noqa: BLE001 - a job must never kill the hub
            with job.cond:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.duration_s = time.perf_counter() - started
                job.emit({"event": "failed", "error": job.error})
            self.log(f"sweep {job.id}: FAILED: {job.error}")
        finally:
            job.executor = None

    def _runner_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    # -- content-addressed reads -------------------------------------------

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """One record by cell key; a lost/damaged record of a known cell
        recomputes and supersedes (exactly the store's PR 9 degradation:
        a CRC-failed read is a cache miss, never a served wrong record)."""
        store = self._open_store()
        record = store.get(key)
        if record is not None:
            _C_CACHE_HIT.value += 1
            return record
        cell = self._known_cells.get(key)
        if cell is None:
            _C_CACHE_MISS.value += 1
            return None
        _C_RECOMPUTES.value += 1
        self.log(f"result {key[:12]}: store miss for a known cell, recomputing")
        with span("serve.recompute", key=key[:12]):
            fresh, _ = execute_cell(cell)
        store.put(fresh)  # newest-per-key wins: the recompute supersedes
        return fresh

    def report(
        self,
        *,
        sweep: Optional[str] = None,
        group_by: Sequence[str] = ("scenario", "adversary"),
        metrics: Optional[Sequence[str]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Aggregate the store (or one sweep's cells) into a report payload.

        Cached against the store's on-disk :meth:`~ResultStore.stat_signature`
        — a repeat request over an unchanged store is a pure cache hit (no
        records re-read, no cells recomputed), and any append (this process
        or a CLI sweep on the same store) invalidates naturally.
        """
        chosen = tuple(metrics) if metrics else DEFAULT_REPORT_METRICS
        keys: Optional[frozenset] = None
        if sweep is not None:
            job = self.job(sweep)
            if job is None:
                return None
            keys = frozenset(cell.key() for cell in job.cells)
        store = self._open_store()
        cache_key = (sweep, tuple(group_by), chosen, store.stat_signature())
        with self._lock:
            cached = self._report_cache.get(cache_key)
        if cached is not None:
            _C_CACHE_HIT.value += 1
            return {**cached, "served_from_cache": True}
        _C_CACHE_MISS.value += 1
        with span("serve.report", groups=len(group_by)):
            records = cell_records(store.records())
            if keys is not None:
                records = [record for record in records if record.get("key") in keys]
            payload: Dict[str, Any] = {
                "store": self.store_path,
                "group_by": list(group_by),
                "metrics": list(chosen),
                "records": len(records),
                "groups": report_payload(records, list(group_by), list(chosen)),
            }
            if sweep is not None:
                payload["sweep"] = sweep
        with self._lock:
            if len(self._report_cache) >= 64:
                self._report_cache.clear()
            self._report_cache[cache_key] = payload
        return {**payload, "served_from_cache": False}

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            jobs = list(self._jobs.values())
        return {
            "ok": True,
            "store": self.store_path,
            "sweeps": {
                "total": len(jobs),
                "active": sum(1 for job in jobs if not job.terminal),
            },
            "workers_listen": (
                f"{self.workers_listen[0]}:{self.workers_listen[1]}"
                if self.workers_listen
                else None
            ),
        }

    # -- server lifecycle --------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP server and start the runner + serving threads."""
        server = _ServeHTTPServer((host, port), _Handler)
        server.service = self
        self._server = server
        self.address = server.server_address[:2]
        self._runner = threading.Thread(
            target=self._runner_loop, name="repro-serve-runner", daemon=True
        )
        self._runner.start()
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": _POLL_INTERVAL_S},
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        return self.address

    def join(self) -> None:
        """Block until the server stops (Ctrl-C propagates to the caller)."""
        thread = self._server_thread
        if thread is not None:
            while thread.is_alive():
                thread.join(timeout=0.5)

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._runner is not None:
            self._queue.put(None)
            self._runner.join(timeout=5.0)
            self._runner = None


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: SweepService


# ---------------------------------------------------------------------------
# The HTTP handler.
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body go out in two writes; with Nagle on, the second waits
    # for the client's delayed ACK (~40 ms) on keep-alive connections.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        self.service.log(f"http: {format % args}")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # -- plumbing ----------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        _C_REQUESTS.value += 1
        path, _, query = self.path.partition("?")
        params = urllib.parse.parse_qs(query)
        try:
            with span("serve.request", method=method, path=path.split("/")[1] or "/"):
                self._route(method, path, params)
        except SpecError as exc:
            _C_BAD_REQUESTS.value += 1
            self._send_json(400, {"error": str(exc), "field": exc.field})
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - one request must not kill the server
            _C_ERRORS.value += 1
            self.service.log(f"http: 500 on {method} {path}: {exc}")
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                self.close_connection = True

    def _route(self, method: str, path: str, params: Dict[str, List[str]]) -> None:
        parts = [part for part in path.split("/") if part]
        if method == "POST":
            if parts == ["sweeps"]:
                return self._post_sweep()
            return self._send_json(404, {"error": f"no POST route {path!r}"})
        if parts == ["healthz"]:
            return self._send_json(200, self.service.healthz())
        if parts == ["metrics"]:
            return self._get_metrics(params)
        if parts == ["report"]:
            return self._get_report(params)
        if len(parts) == 2 and parts[0] == "sweeps":
            return self._get_sweep(parts[1])
        if len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "events":
            return self._stream_events(parts[1])
        if len(parts) == 2 and parts[0] == "results":
            return self._get_result(parts[1])
        self._send_json(404, {"error": f"no route {path!r}"})

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            raise SpecError("POST needs a Content-Length JSON body", field="body")
        try:
            length = int(length_text)
        except ValueError:
            raise SpecError(f"bad Content-Length {length_text!r}", field="body") from None
        if length <= 0 or length > 8 * 1024 * 1024:
            raise SpecError(f"body length {length} out of range", field="body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SpecError(f"body is not valid JSON: {exc}", field="body") from None

    # -- routes ------------------------------------------------------------

    def _post_sweep(self) -> None:
        spec = self._read_json_body()
        job, created = self.service.submit(spec)
        snapshot = job.snapshot()
        snapshot["created"] = created
        self._send_json(201 if created else 200, snapshot)

    def _get_sweep(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            return self._send_json(404, {"error": f"unknown sweep {job_id!r}"})
        self._send_json(200, job.snapshot())

    def _get_result(self, key: str) -> None:
        record = self.service.result(key)
        if record is None:
            return self._send_json(
                404,
                {
                    "error": f"no record for key {key!r} (POST its sweep spec "
                    "to /sweeps to compute it)",
                    "key": key,
                },
            )
        self._send_json(200, record)

    def _get_metrics(self, params: Dict[str, List[str]]) -> None:
        snapshot = _metrics.registry().snapshot()
        if params.get("format", [""])[0] == "flat":
            flat = _metrics.flatten_snapshot(snapshot)
            body = "".join(f"{name} {value}\n" for name, value in flat.items()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._send_json(200, snapshot)

    def _get_report(self, params: Dict[str, List[str]]) -> None:
        sweep = params.get("sweep", [None])[0]
        group_by = params.get("group_by", ["scenario,adversary"])[0]
        group_fields = [field.strip() for field in group_by.split(",") if field.strip()]
        if not group_fields:
            raise SpecError("'group_by' needs at least one field", field="group_by")
        metrics = params.get("metric") or None
        payload = self.service.report(sweep=sweep, group_by=group_fields, metrics=metrics)
        if payload is None:
            return self._send_json(404, {"error": f"unknown sweep {sweep!r}"})
        self._send_json(200, payload)

    def _stream_events(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            return self._send_json(404, {"error": f"unknown sweep {job_id!r}"})
        _C_EVENT_STREAMS.value += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(payload: Dict[str, Any]) -> None:
            data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")

        sent = 0
        try:
            while True:
                with job.cond:
                    while len(job.events) <= sent and not job.terminal:
                        job.cond.wait(timeout=0.5)
                    batch = job.events[sent:]
                    sent += len(batch)
                    finished = job.terminal and sent == len(job.events)
                for event in batch:
                    write_chunk(event)
                if finished:
                    write_chunk({"event": "end", "sweep": job.id, "status": job.status})
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away mid-stream
        self.close_connection = True
