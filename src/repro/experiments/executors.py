"""Pluggable execution backends for the sweep runner.

:func:`repro.experiments.runner.run_sweep` separates *what* to run (the cache
scan against the result store) from *how* to run it (this module).  A backend
is a :class:`SweepExecutor`: it receives the pending ``(index, cell)`` pairs
and must invoke the result handler exactly once per cell, in completion
order, with either the cell's result record or an error record.

Three backends ship:

* :class:`SerialExecutor` — in-process, cell by cell.  No pool spawn cost,
  so it is the right choice for single-worker runs and tiny sweeps.
* :class:`ChunkedShardExecutor` — groups cells into per-worker *shards* and
  dispatches whole shards.  Cells are grouped by their shard signature
  (scenario name plus the parameters flagged ``shard_key=True`` on their
  :class:`~repro.scenarios.base.ParamSpec`), so one worker task runs a
  family of structurally identical instances back to back: pool dispatch is
  paid once per shard, the hash-consing intern pool is shared across the
  shard, and the base scenario is built once per distinct parameter
  assignment and re-decorated per adversary.  On sweeps of many small cells
  this amortisation dominates (see ``benchmarks/test_bench_sweep.py``).
  The trade-off is checkpoint granularity: a worker reports a whole shard
  at once, so a sweep killed mid-shard loses that shard's completed-but-
  unreported cells (bounded by the shard size).  The ``process`` backend is
  this executor with a shard size of 1 (per-cell dispatch), which loses at
  most one cell per worker.
* :class:`~repro.experiments.remote.RemoteExecutor` — serves shards to
  remote worker processes over a socket wire protocol with heartbeats and
  lease-based assignment (see :mod:`repro.experiments.remote`).

The sharded executor's pools are supervised (:class:`_PoolSupervisor`): a
worker that dies mid-task (``BrokenProcessPool``) triggers a pool restart
and resubmission of the lost tasks instead of aborting the sweep; a task
whose worker exceeds its execution deadline is abandoned (the pool is
killed and restarted) and, after repeated timeouts, quarantined as an error
record; and when the pool keeps breaking without making progress, execution
degrades gracefully to in-process execution for whatever remains.  A shard
that fails as a unit is re-run in-process with per-cell isolation, so one
poison cell costs one error record, not its whole shard.  Every in-process
shard — single-worker runs, inline retries, the fallback, and the remote
coordinator's local drain — goes through :func:`run_shard_monitored`, the
same runner pool workers use.

Every backend produces records identical to the serial one (modulo the
``duration_s`` timing field): cells are seeded by their identity, interning
never changes semantics, and shard grouping is a scheduling hint only.
"""

from __future__ import annotations

import contextlib
import math
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs import metrics as _metrics
from ..obs.collect import Collector, registry_baseline, registry_delta
from ..obs.trace import trace_events
from ..scenarios.base import RegistryError, get_scenario
from ..simulation.interning import intern_pool
from . import faults
from .runner import (
    SweepCell,
    SweepError,
    error_record,
    execute_cell_inline,
    run_cell,
)

#: The backend names ``run_sweep``/the CLI accept.
BACKENDS: Tuple[str, ...] = ("auto", "serial", "process", "sharded", "remote")

#: Ceiling on *derived* cells per shard: bounds a worker's intern-pool
#: lifetime (memory) and keeps shards small enough to balance across the
#: pool.  An explicit ``shard_size`` is the caller's choice and may exceed it.
DEFAULT_MAX_SHARD_CELLS = 32

#: Shards-per-worker target when deriving a shard size automatically; a bit
#: of oversubscription lets the pool rebalance around slow shards.
_SHARDS_PER_WORKER = 4

#: Consecutive pool restarts that deliver no result before a supervised
#: backend stops restarting and degrades to in-process execution.
DEFAULT_MAX_POOL_RESTARTS = 3

#: Execution-deadline violations (distinct pool incarnations) a single task
#: survives before it is quarantined as a failed record.
DEFAULT_MAX_TASK_ATTEMPTS = 3

#: How often the supervision loop wakes to check worker deadlines.
_SUPERVISE_TICK_S = 0.05

#: ``handle(index, cell, record)`` — invoked exactly once per pending cell.
ResultHandler = Callable[[int, SweepCell, Dict[str, Any]], None]

_C_POOL_RESTARTS = _metrics.counter("sweep.pool_restarts")
_C_POOL_BROKEN = _metrics.counter("sweep.pool_broken")
_C_TASK_TIMEOUTS = _metrics.counter("sweep.task_timeouts")
_C_TASK_RETRIES = _metrics.counter("sweep.task_retries")
_C_QUARANTINED = _metrics.counter("sweep.cells_quarantined")
_C_INLINE_FALLBACK = _metrics.counter("sweep.inline_fallback_cells")
_C_SHARD_INLINE_RETRY = _metrics.counter("sweep.shard_inline_retries")


class WorkerTimeout(RuntimeError):
    """A task's worker exceeded its execution deadline repeatedly."""


class SweepExecutor(ABC):
    """How the pending cells of one sweep get executed."""

    #: Short name reported in outcomes and the CLI.
    name: str = "abstract"

    @abstractmethod
    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        """Run every pending cell, calling ``handle`` once per cell.

        Implementations must never raise on a failing cell; failures are
        reported as ``status: "error"`` records (see
        :func:`~repro.experiments.runner.error_record`).
        """

    @property
    def worker_telemetry(self) -> Collector:
        """Worker metric deltas and shard timings absorbed during execute().

        Lazily created (and stored on the instance ``__dict__``), so custom
        executors that never call ``super().__init__()`` still expose an
        empty collector.  Backends that run work *in-process* must record
        shard wall-time metadata only — their metric increments already land
        in the parent registry, and absorbing them again would double count.
        """
        collector = self.__dict__.get("_worker_telemetry")
        if collector is None:
            collector = Collector()
            self.__dict__["_worker_telemetry"] = collector
        return collector

    @property
    def fabric(self) -> Dict[str, Any]:
        """Mutable robustness accounting (restarts, retries, quarantines).

        Persisted into the sweep telemetry record as its ``fabric`` section
        (see :func:`repro.experiments.runner.run_sweep`); lazily created so
        executors that never touch it ship nothing.
        """
        stats = self.__dict__.get("_fabric")
        if stats is None:
            stats = {}
            self.__dict__["_fabric"] = stats
        return stats

    def fabric_summary(self) -> Dict[str, Any]:
        """A JSON-safe copy of the robustness accounting (may be empty)."""
        return dict(self.__dict__.get("_fabric") or {})

    def _bump(self, key: str, amount: int = 1) -> None:
        fabric = self.fabric
        fabric[key] = fabric.get(key, 0) + amount

    def _absorb_worker_payload(
        self, payload: Mapping[str, Any], cells: int, **extra: Any
    ) -> None:
        """Fold one out-of-process worker payload into the telemetry."""
        collector = self.worker_telemetry
        collector.add_metrics(payload.get("metrics"))
        collector.add_shard(cells, float(payload.get("wall_s") or 0.0), **extra)
        collector.add_trace(payload.get("trace"))


class SerialExecutor(SweepExecutor):
    """Run cells one after another in the calling process."""

    name = "serial"

    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        for index, cell in pending:
            try:
                record = run_cell(cell)
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                record = error_record(cell, exc)
            handle(index, cell, record)


# ---------------------------------------------------------------------------
# Pool supervision: broken-pool recovery, deadlines, graceful degradation.
# ---------------------------------------------------------------------------


def _abandon_pool(executor: ProcessPoolExecutor) -> None:
    """Tear down a pool that may contain hung or dying workers.

    A graceful ``shutdown(wait=True)`` would block behind a hung task, so
    queued work is cancelled, the worker processes are SIGKILLed outright,
    and the join is best-effort.  Private-attribute access is deliberate:
    :class:`ProcessPoolExecutor` offers no public way to reap a wedged
    worker, and leaking a process that sleeps for minutes would stall
    interpreter shutdown.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:  # noqa: BLE001
            pass


class _PoolSupervisor:
    """Run payloads through worker pools, surviving sick workers.

    Generic over the payload: ``fn(payload)`` executes in a pool worker and
    ``on_done(task_id, ("ok", value) | ("error", exc))`` delivers outcomes in
    the parent, at most once per task.  The supervisor guarantees forward
    progress and bounded failure handling:

    * ``BrokenProcessPool`` (a worker died mid-task) restarts the pool and
      resubmits every unfinished task;
    * with ``task_timeout`` set, a task observed *running* longer than the
      timeout marks the pool sick: the pool is killed
      (:func:`_abandon_pool`), the timed-out tasks are charged an attempt,
      and everything unfinished is resubmitted — a task charged
      ``max_attempts`` times lands in the returned ``timed_out`` list
      instead of being retried forever;
    * ``max_restarts`` consecutive pool incarnations that deliver nothing
      stop the restart loop; the unfinished remainder comes back in
      ``leftover`` for the caller's in-process fallback.

    Workers are initialised with :func:`repro.experiments.faults.\
pool_worker_init`, so chaos plans (``REPRO_FAULTS``) apply to pool workers
    and never to the supervising parent.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int,
        *,
        task_timeout: Optional[float] = None,
        max_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
        max_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
    ):
        self.fn = fn
        self.workers = workers
        self.task_timeout = task_timeout
        self.max_restarts = max_restarts
        self.max_attempts = max_attempts
        self.stats: Dict[str, int] = {}

    def _count(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def run(
        self,
        payloads: Sequence[Any],
        on_done: Callable[[int, Tuple[str, Any]], None],
    ) -> Tuple[List[int], List[int]]:
        """Execute every payload; return ``(leftover_ids, timed_out_ids)``.

        Every task id is either delivered exactly once via ``on_done`` or
        returned in exactly one of the two lists.
        """
        pending: deque[int] = deque(range(len(payloads)))
        timeouts: Dict[int, int] = {}
        timed_out_ids: List[int] = []
        unproductive = 0
        first_pool = True
        while pending:
            if unproductive > self.max_restarts:
                break
            if not first_pool:
                _C_POOL_RESTARTS.value += 1
                self._count("pool_restarts")
            first_pool = False
            batch = list(pending)
            pending.clear()
            resolved: set = set()
            delivered = 0
            broken = False
            abandoned = False
            executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(batch)),
                initializer=faults.pool_worker_init,
            )
            try:
                futures = {
                    executor.submit(self.fn, payloads[tid]): tid for tid in batch
                }
                remaining = set(futures)
                running_since: Dict[Any, float] = {}
                while remaining:
                    done, not_done = wait(
                        remaining, timeout=_SUPERVISE_TICK_S, return_when=FIRST_COMPLETED
                    )
                    now = time.monotonic()
                    for future in done:
                        tid = futures[future]
                        try:
                            value = future.result()
                        except BrokenProcessPool:
                            broken = True
                            break
                        except Exception as exc:  # noqa: BLE001 - per-task isolation
                            on_done(tid, ("error", exc))
                            resolved.add(tid)
                            delivered += 1
                        else:
                            on_done(tid, ("ok", value))
                            resolved.add(tid)
                            delivered += 1
                    if broken:
                        _C_POOL_BROKEN.value += 1
                        self._count("pool_broken")
                        break
                    remaining = not_done
                    if self.task_timeout is None:
                        continue
                    expired = False
                    for future in remaining:
                        if not future.running():
                            continue
                        started = running_since.setdefault(future, now)
                        if now - started >= self.task_timeout:
                            tid = futures[future]
                            timeouts[tid] = timeouts.get(tid, 0) + 1
                            _C_TASK_TIMEOUTS.value += 1
                            self._count("task_timeouts")
                            expired = True
                    if expired:
                        abandoned = True
                        break
            finally:
                if broken or abandoned:
                    _abandon_pool(executor)
                else:
                    executor.shutdown(wait=True)
            for tid in batch:
                if tid in resolved:
                    continue
                if timeouts.get(tid, 0) >= self.max_attempts:
                    timed_out_ids.append(tid)
                    continue
                pending.append(tid)
                _C_TASK_RETRIES.value += 1
                self._count("task_retries")
            unproductive = 0 if delivered else unproductive + 1
        return list(pending), timed_out_ids


def shard_signature(cell: SweepCell) -> Tuple[Any, ...]:
    """The grouping key of a cell for sharded execution.

    Scenario name, the sweep-level horizon override, and the values of every
    parameter the scenario flags as a shard key.  Cells sharing a signature
    build the same family of instances, so running them in one worker shard
    maximises intern-pool and scenario-construction reuse.  Unregistered
    scenarios (possible when decoding foreign stores) degrade to the name.
    """
    try:
        spec = get_scenario(cell.scenario)
    except RegistryError:
        return (cell.scenario, cell.horizon)
    params = cell.params_dict()
    structural = tuple((name, params.get(name)) for name in spec.shard_params())
    return (cell.scenario, cell.horizon) + structural


def plan_shards(
    pending: Sequence[Tuple[int, SweepCell]],
    workers: int,
    shard_size: Optional[int] = None,
) -> List[List[Tuple[int, SweepCell]]]:
    """Group pending cells into shards of structurally similar cells.

    Cells are bucketed by :func:`shard_signature`, each bucket is sorted so
    cells with identical parameter assignments sit next to each other (grid
    expansion iterates adversaries in the outer loop, which would otherwise
    scatter the cells a shard's base-scenario cache could serve), and then
    each bucket is chunked.  The chunk size is ``shard_size`` when given,
    otherwise derived so the sweep yields roughly ``workers * 4`` shards
    (bounded by :data:`DEFAULT_MAX_SHARD_CELLS`): enough shards for the pool
    to balance load, few enough that dispatch stays amortised.
    """
    if shard_size is not None and shard_size < 1:
        raise SweepError(f"shard size must be >= 1, got {shard_size}")
    buckets: Dict[Tuple[Any, ...], List[Tuple[int, SweepCell]]] = {}
    for index, cell in pending:
        buckets.setdefault(shard_signature(cell), []).append((index, cell))
    for bucket in buckets.values():
        bucket.sort(key=lambda item: (item[1].params, item[1].seed, item[1].adversary))
    if shard_size is None:
        target = math.ceil(len(pending) / max(1, workers * _SHARDS_PER_WORKER))
        shard_size = max(1, min(DEFAULT_MAX_SHARD_CELLS, target))
    shards: List[List[Tuple[int, SweepCell]]] = []
    for bucket in buckets.values():
        for start in range(0, len(bucket), shard_size):
            shards.append(bucket[start : start + shard_size])
    return shards


def run_shard_monitored(
    cells: Sequence[SweepCell],
    base_cache: Optional[Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Any]] = None,
    fresh_pool: bool = True,
) -> Dict[str, Any]:
    """Execute one shard in the current process (pure; pool-safe).

    The whole shard shares one intern pool — every cell of the shard rides
    the same hash-consed substrate, so structurally identical histories,
    messages, and causal pasts are built once — and a per-shard scenario
    cache rebuilds the base scenario only once per distinct ``(scenario,
    params)`` assignment (cells differing only in adversary re-decorate it).
    ``records`` holds one record per cell, aligned with the input order; a
    failing cell yields an error record without poisoning the rest of the
    shard.  The payload also carries the shard's registry delta, wall time,
    and new trace events, so a pool parent can merge a reused worker's
    metrics without double counting (see :mod:`repro.obs.collect`).

    A warm-started worker (``repro worker --snapshot``, see
    :mod:`repro.experiments.snapshot`) passes its pre-built ``base_cache``
    and ``fresh_pool=False`` so the shard runs in the process pool the
    snapshot already populated instead of a scratch one; results are
    bit-identical either way (cache hits equal rebuilds by construction).

    Fault-injection points ``worker.shard`` (once, up front) and
    ``worker.cell`` (per cell) fire here; they are no-ops outside marked
    worker processes (see :mod:`repro.experiments.faults`).
    """
    baseline = registry_baseline()
    mark = len(trace_events())
    started = time.perf_counter()
    faults.fire("worker.shard")
    records: List[Dict[str, Any]] = []
    scope = intern_pool() if fresh_pool else contextlib.nullcontext()
    with scope:
        if base_cache is None:
            base_cache = {}
        for cell in cells:
            # Outside the per-cell try: a DropConnection fault must sever the
            # shard (the remote worker catches it at its connection loop),
            # never masquerade as a cell error record.
            faults.fire("worker.cell")
            try:
                record, _ = execute_cell_inline(cell, base_cache=base_cache)
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                record = error_record(cell, exc)
            records.append(record)
    return {
        "records": records,
        "metrics": registry_delta(baseline),
        "wall_s": time.perf_counter() - started,
        "trace": trace_events()[mark:],
    }


class ChunkedShardExecutor(SweepExecutor):
    """Dispatch per-worker shards of structurally similar cells, supervised."""

    name = "sharded"

    def __init__(
        self,
        workers: int,
        shard_size: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        max_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
        max_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
    ):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        if shard_size is not None and shard_size < 1:
            raise SweepError(f"shard size must be >= 1, got {shard_size}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise SweepError(f"shard timeout must be > 0, got {shard_timeout}")
        self.workers = workers
        self.shard_size = shard_size
        self.shard_timeout = shard_timeout
        self.max_restarts = max_restarts
        self.max_attempts = max_attempts

    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        shards = plan_shards(pending, self.workers, self.shard_size)
        if self.workers == 1 or len(shards) <= 1:
            # Still amortised (shared pool, scenario cache), just in-process.
            for shard in shards:
                self._run_inline(shard, handle)
            return
        supervisor = _PoolSupervisor(
            run_shard_monitored,
            min(self.workers, len(shards)),
            task_timeout=self.shard_timeout,
            max_restarts=self.max_restarts,
            max_attempts=self.max_attempts,
        )

        def on_done(tid: int, outcome: Tuple[str, Any]) -> None:
            shard = shards[tid]
            kind, value = outcome
            if kind == "ok":
                self._absorb_worker_payload(value, cells=len(shard))
                self._deliver(shard, value["records"], handle)
                return
            # The shard failed as a unit (its worker raised outside the
            # per-cell isolation): re-run it inline, where per-cell isolation
            # makes one poison cell cost one record, not the whole shard.
            _C_SHARD_INLINE_RETRY.value += 1
            self._bump("shard_inline_retries")
            self.fabric["last_shard_error"] = f"{type(value).__name__}: {value}"
            self._run_inline(shard, handle, inline_retry=True)

        leftover, timed_out = supervisor.run(
            [[cell for _, cell in shard] for shard in shards], on_done
        )
        for key, value in supervisor.stats.items():
            self._bump(key, value)
        for tid in timed_out:
            # Quarantine: this shard repeatedly hung its worker past the
            # deadline; re-running it inline could hang the sweep itself.
            for index, cell in shards[tid]:
                _C_QUARANTINED.value += 1
                self._bump("cells_quarantined")
                handle(
                    index,
                    cell,
                    error_record(
                        cell,
                        WorkerTimeout(
                            f"shard exceeded {self.shard_timeout}s on "
                            f"{self.max_attempts} worker(s); quarantined"
                        ),
                    ),
                )
        for tid in leftover:
            # Graceful degradation: workers died faster than they made
            # progress, so whatever never timed out finishes in-process.
            _C_INLINE_FALLBACK.value += len(shards[tid])
            self._bump("inline_fallback_cells", len(shards[tid]))
            self._run_inline(shards[tid], handle, inline_fallback=True)

    def _run_inline(
        self,
        shard: Sequence[Tuple[int, SweepCell]],
        handle: ResultHandler,
        **extra: Any,
    ) -> None:
        """Run one shard in the parent process and deliver its records.

        Only shard wall-time metadata is recorded: the metric increments and
        trace events already landed in the parent registry/buffer, and
        absorbing the payload too would double count them.  Injected faults
        never fire here — the parent is not a marked worker — which also
        makes this the safe terminal fallback.
        """
        payload = run_shard_monitored([cell for _, cell in shard])
        self.worker_telemetry.add_shard(
            len(shard), payload["wall_s"], in_process=True, **extra
        )
        self._deliver(shard, payload["records"], handle)

    @staticmethod
    def _deliver(
        shard: Sequence[Tuple[int, SweepCell]],
        records: Sequence[Dict[str, Any]],
        handle: ResultHandler,
    ) -> None:
        # strict: a worker returning the wrong record count must fail loudly,
        # not silently drop the tail of the shard.
        for (index, cell), record in zip(shard, records, strict=True):
            handle(index, cell, record)


def resolve_executor(
    backend: Union[str, SweepExecutor] = "auto",
    workers: int = 1,
    shard_size: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> SweepExecutor:
    """Turn a backend name (or a ready executor) into a :class:`SweepExecutor`.

    ``auto`` picks the serial path for one worker and per-cell process
    dispatch otherwise; ``process`` is per-cell dispatch, i.e. the sharded
    executor with a shard size of 1 (reported as backend ``process``), and
    with one worker also degrades to serial (no point spawning a pool for
    sequential work).  ``sharded`` keeps its chunked execution even
    single-worker — the shared-pool and scenario-cache amortisation applies
    in-process too.  ``remote`` builds a loopback
    coordinator with default fabric settings; callers who need a fixed
    listen address or tuned lease/heartbeat timeouts construct a
    :class:`~repro.experiments.remote.RemoteExecutor` themselves and pass it
    as the backend (the CLI does).  ``cell_timeout`` is the per-shard worker
    execution deadline (per cell on ``process``); ``None`` disables
    deadline supervision.
    """
    if isinstance(backend, SweepExecutor):
        return backend
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if backend == "auto":
        backend = "serial" if workers == 1 else "process"
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        if workers == 1:
            return SerialExecutor()
        executor = ChunkedShardExecutor(workers, shard_size=1, shard_timeout=cell_timeout)
        executor.name = "process"
        return executor
    if backend == "sharded":
        return ChunkedShardExecutor(
            workers, shard_size=shard_size, shard_timeout=cell_timeout
        )
    if backend == "remote":
        from .remote import RemoteExecutor  # executors <-> remote layering

        return RemoteExecutor(workers_hint=workers, shard_size=shard_size)
    raise SweepError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
