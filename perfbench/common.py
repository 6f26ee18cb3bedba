"""Shared plumbing of the end-to-end benchmark: paths, spawning, statistics.

Every child the benchmark starts runs the checkout's own ``src/`` with the
program's tracing and fault injection switched off, inside a scratch
directory under the checkout (``.perfbench_work/``), so a run reads and
writes nothing outside the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Record fields that hold wall-clock measurements or cache provenance;
#: they differ between two executions of the same cell and are left out of
#: record digests.
TIMING_FIELDS = ("duration_s", "cached")

#: Program environment variables that would change what is measured.
_PROGRAM_ENV = ("REPRO_TRACE", "REPRO_FAULTS")

#: Ceiling on one child's lifetime; a run must end within 180 s.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program sources, a child hung)."""


def declared_metrics(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(*parts: str) -> str:
    """An empty directory under the work area (replacing any old one)."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = WORK
    return env


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# ---------------------------------------------------------------------------
# CPU time the hypervisor withheld.
# ---------------------------------------------------------------------------


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, steal)`` clock ticks of the whole machine, from ``/proc/stat``.

    Busy is user, nice, system, irq and softirq time; steal is time a
    runnable virtual CPU waited while the hypervisor ran someone else.
    ``(0, 0)`` where the kernel does not report them.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    fields += [0] * (8 - len(fields))
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Wall time of an interval, and that time with the stolen share taken out.

    On a shared virtual machine the hypervisor at times withholds a large
    share of the CPU time the guest's runnable threads ask for, which
    stretches every interval that needs the CPU.  The kernel counts that
    time as steal.  ``seconds`` is wall time times the share of the
    demanded CPU time (busy plus steal) the guest was given: equal to wall
    time when nothing was stolen.
    """

    def __init__(self) -> None:
        self._ticks = cpu_ticks()
        self._started = time.perf_counter()
        self.wall = 0.0
        self.given = 1.0

    def stop(self) -> "Stopwatch":
        self.wall = time.perf_counter() - self._started
        busy, steal = (now - then for now, then in zip(cpu_ticks(), self._ticks))
        self.given = busy / (busy + steal) if busy + steal > 0 else 1.0
        return self

    @property
    def seconds(self) -> float:
        return self.wall * self.given


# ---------------------------------------------------------------------------
# Spawned children.
# ---------------------------------------------------------------------------

#: How long processes a finished child left behind may take to exit
#: before they are killed.
STRAY_GRACE_S = 5.0


def _group_alive(group: int) -> List[int]:
    """Pids of the live (not zombie) processes in process group ``group``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == group and state != "Z":
            alive.append(int(entry))
    return alive


def settle(group: int) -> bool:
    """Wait until process group ``group`` (a reaped child's) has no live
    process; kill what is left after ``STRAY_GRACE_S``.

    True when the group emptied on its own.
    """
    deadline = time.monotonic() + STRAY_GRACE_S
    while _group_alive(group):
        if time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)
            while _group_alive(group):
                time.sleep(0.01)
            return False
        time.sleep(0.01)
    return True


@dataclass
class Exit:
    """A finished child: its time from spawn to exit (a stopped
    :class:`Stopwatch`), exit code, output, peak RSS, and whether it left
    processes running after it exited."""

    time: Stopwatch
    code: int
    out: str
    rss_mb: float
    stray: bool


def _reap(proc: subprocess.Popen) -> float:
    """Block until ``proc`` exits; return its peak RSS in MiB.

    ``wait4`` reports the peak RSS of the child and of every worker it
    reaped itself (``ru_maxrss`` is KiB on Linux).
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def spawn_and_wait(argv: Sequence[str], cwd: str) -> Exit:
    """Run one command to completion, timed from spawn to exit.

    The child leads a process group of its own, so whatever it starts can
    be found after it exits.  Output goes to files rather than pipes so the
    wait is a single blocking ``wait4``; a watchdog kills a child that
    outlives ``CHILD_TIMEOUT_S``.
    """
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "w") as out_file, open(err_path, "w") as err_file:
        watch = Stopwatch()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out_file, stderr=err_file, start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rss_mb = _reap(proc)
        finally:
            watchdog.cancel()
        watch.stop()
    stray = not settle(proc.pid)
    with open(out_path) as handle:
        out = handle.read()
    if proc.returncode != 0:
        with open(err_path) as handle:
            sys.stderr.write(f"{' '.join(argv[1:4])}: exit {proc.returncode}\n")
            sys.stderr.write(handle.read()[-2000:])
    return Exit(watch, proc.returncode, out, rss_mb, stray)


class ServeProcess:
    """A spawned ``repro serve`` over ``store``; ready once ``/healthz`` is 200.

    ``ready`` times spawn to ready (a stopped :class:`Stopwatch`);
    ``stray`` (see :class:`Exit`) is known once :meth:`stop` has reaped
    the server.
    """

    def __init__(self, store: str, cwd: str):
        self.ready = Stopwatch()
        self.proc = subprocess.Popen(
            repro_argv("serve", "--listen", "127.0.0.1:0", "--store", store),
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        self.rss_mb = 0.0
        self.stray = False
        self.port: Optional[int] = None
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serve: listening on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        if self.port is None:
            self.stop()
            raise BenchError("repro serve exited before listening")
        status, _ = Client(self.port).request("GET", "/healthz")
        self.ready.stop()
        if status != 200:
            self.stop()
            raise BenchError(f"repro serve /healthz answered {status}")

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            watchdog = threading.Timer(10.0, self.proc.kill)
            watchdog.start()
            try:
                self.rss_mb = _reap(self.proc)
            finally:
                watchdog.cancel()
            self.stray = not settle(self.proc.pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Client:
    """One closed-loop HTTP client that opens a connection per request.

    On a keep-alive connection ``repro serve``'s responses, written as
    headers and then body, wait for the client's delayed ACK (~40 ms) on
    some requests and not on others, depending on timing; the latency
    percentiles then flip between the two modes from run to run.  A fresh
    connection starts in quick-ACK mode and never stalls.
    """

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        """Send one request on a new connection and read the whole response body."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# Records and statistics.
# ---------------------------------------------------------------------------


def strip_timing(record: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def timing_free_bytes(record: Mapping[str, Any]) -> int:
    """Size of a record's canonical JSON without its timing fields.

    Byte counts built from this repeat exactly across runs, where on-disk
    sizes vary with the digits of each ``duration_s``.
    """
    return len(json.dumps(strip_timing(record), sort_keys=True, separators=(",", ":")))


def records_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """Order-free digest of cell records with their timing fields removed."""
    lines = sorted(
        json.dumps(strip_timing(record), sort_keys=True, separators=(",", ":"))
        for record in records
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail_supported(count: int, q: float) -> bool:
    """True when at least ten samples lie beyond the ``q`` quantile."""
    return count * (1.0 - q) >= 10.0 - 1e-9
