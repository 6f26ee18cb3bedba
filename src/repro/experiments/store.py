"""A persistent, content-addressed, segmented JSONL store for sweep results.

Each record is one JSON object, keyed by a stable SHA-256 digest of the
cell's identity: scenario name, full parameter assignment, delivery
adversary, seed, horizon override, and the versions of every analysis pass
applied.  Repeated sweeps therefore become incremental — a cell whose key is
already present is a cache hit and is never re-simulated — while bumping an
analysis version re-runs exactly the cells it affects.

Layout.  The store is a single *active tail* file at ``path`` (plain JSONL,
exactly the original single-file format, so legacy stores open unchanged)
plus, once the tail outgrows ``rotate_bytes``, *sealed segments* under
``<path>.segments/``:

* ``<path>`` — the active tail.  All appends land here; it is never
  indexed, and a view reads it as a full scan plus the validated appended
  suffix (see :meth:`ResultStore.refresh`), so appends can never stale the
  index.
* ``<path>.segments/seg-NNNNNN.jsonl`` — sealed segments.  One meta line
  (format version, record count, sealing owner), then one record per line
  wrapped as ``{"c": CRC32, "r": {record}}`` — every fetch is verified
  against its checksum, so a corrupt record degrades to a cache miss (the
  cell is recomputed and the fresh record supersedes it) instead of serving
  garbage.
* ``<path>.index.json`` — a sidecar index over the *sealed segments only*:
  cell key -> ``(segment, offset, length)``.  Resume and cache probes are
  O(1) dictionary hits plus one ``pread`` instead of a full-store scan.
  The index is advisory: when missing, stale (the on-disk segment list or
  sizes disagree), or corrupt it is rebuilt from the segments themselves.

Small stores (under ``rotate_bytes``) never grow sidecars: they stay a
single tail file, bit-for-bit the legacy layout.

Crash safety:

* *appends* (:meth:`ResultStore.put`) are a single ``write(2)`` on an
  ``O_APPEND`` descriptor, so a record is either entirely on disk or not at
  all — a crash can tear at most the final line, never interleave two;
* *rewrites* (:meth:`ResultStore.compact`, :meth:`ResultStore.recover`, and
  segment seals) go through a temp file in the same directory followed by an
  atomic ``os.replace``, with the data fsynced before the rename, so readers
  always observe either the old file or the complete new one;
* *rotation* seals (writes + fsyncs) the segment **before** truncating the
  tail: a crash between the two leaves harmless duplicates (the tail always
  wins over segments on lookup), never a lost record.

A torn final line (from a ``kill -9`` mid-append) is ignored on load;
:meth:`ResultStore.recover` additionally rewrites the tail without the torn
tail line and re-checks index freshness — it stays *shallow* (no segment
re-read) so resume cost is independent of store size.  The deep pass is
:meth:`ResultStore.verify`, which CRC-checks every sealed record and can
``repair=True`` (drop corrupt records, recover the tail, rebuild the
index).  :meth:`ResultStore.migrate` upgrades a legacy single-file store in
place by force-sealing its tail; records read back identically.

Views.  A :class:`ResultStore` is a *view* of the disk that may stay open
for the life of a process (``repro serve`` keeps one).  It keeps the
tail's lines as raw bytes and parses one on each :meth:`ResultStore.get`;
sealed records are fetched through their locator with one ``pread`` and
are not kept.  :meth:`ResultStore.refresh` re-checks the view against the
disk, relying only on the store's own write discipline: the tail changes
in place only by ``O_APPEND``, and every rewrite (rotate, compact,
recover, repair) goes through ``os.replace``, which gives the file a new
inode.  The view records the tail's ``(st_dev, st_ino, st_size,
st_mtime_ns)``, the offset it has parsed up to with the bytes just before
it, and the sealed segments' ``(name, size, mtime_ns)`` list.  A refresh
does nothing while all of those are unchanged; parses only the appended
suffix when the segment list is unchanged, the tail kept its inode and
grew, and the boundary bytes still match; and in every other case (a new
inode, a shrink, a same-size change with a new mtime, a segment change, a
deleted tail) drops the view and loads it in full.  An unterminated final
line is parsed exactly as a full load parses it and is read again on the
next refresh.  An in-place edit that keeps the inode, grows the file and
leaves the boundary bytes alone is outside that discipline and goes
unseen until the next full load.  A view is safe to share between threads.

Multiple processes may share one store (several sweep coordinators, a
resumed sweep racing a report): appends take a *shared* advisory ``flock``
and rewrites/rotations an *exclusive* one on a sidecar ``<path>.lock``
file, so a rewrite can never interleave with (and silently drop) a live
append.  The sidecar — rather than the store file itself — is locked
because rewrites swap the store's inode via ``os.replace``, which would
strand any lock held on the old inode.  Rewrites re-read the disk under the
lock, so records appended by other processes after this process last loaded
its view survive compaction.  Each sealed segment records the owner
(``host:pid``) that sealed it; concurrent coordinators each seal their own
segments, and before writing an index a rotation folds in segments sealed
by other coordinators, so a persisted index always covers every segment it
declares — a reader never loads a "fresh" index that silently misses
another writer's records.  Anything that still goes stale (a racing index
write losing to an older one) fails the freshness check and is rebuilt.

Storage fault injection (``repro sweep --chaos`` with storage kinds, see
:mod:`repro.experiments.faults`) is consulted cooperatively at three
points: ``store.append`` (``torn-write`` truncates the append mid-line),
``store.seal`` (``corrupt-segment`` flips a byte in the sealed file,
``partial-fsync`` skips the fsync and tears the segment's last record), and
``store.rotate`` (``stale-index`` suppresses the index write).  All of them
are recoverable by construction: the damage surfaces as cache misses or an
index rebuild, never as wrong records.
"""

from __future__ import annotations

import binascii
import contextlib
import functools
import hashlib
import json
import os
import re
import socket
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # advisory locking is POSIX-only; the store degrades gracefully
    import fcntl

    _HAS_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX platforms
    _HAS_FLOCK = False

from ..obs import metrics as _metrics
from . import faults as _faults

#: Version stamp of the store's record layout; part of every cache key.
STORE_FORMAT_VERSION = 1

#: Version stamp of the sealed-segment line format (meta line + CRC wrappers).
SEGMENT_FORMAT_VERSION = 2

#: Version stamp of the sidecar index file.
INDEX_FORMAT_VERSION = 2

#: Tail size at which an append triggers rotation into a sealed segment.
DEFAULT_ROTATE_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.jsonl$")

_C_APPENDS = _metrics.counter("store.appends")
_C_LOOKUPS = _metrics.counter("store.lookups")
_C_RECOVER_DROPPED = _metrics.counter("store.recover_dropped_lines")
_C_COMPACT_DROPPED = _metrics.counter("store.compact_dropped_lines")
_C_ROTATIONS = _metrics.counter("store.rotations")
_C_SEGMENTS_SEALED = _metrics.counter("store.segments_sealed")
_C_INDEX_REBUILDS = _metrics.counter("store.index_rebuilds")
_C_INDEX_HITS = _metrics.counter("store.index_hits")
_C_SEGMENT_FETCHES = _metrics.counter("store.segment_fetches")
_C_CRC_FAILURES = _metrics.counter("store.crc_failures")
_C_TAIL_BYTES_PARSED = _metrics.counter("store.tail_bytes_parsed")
_C_VIEW_RELOADS = _metrics.counter("store.view_reloads")

#: Bytes just before a view's parsed offset that a refresh re-reads and
#: compares before it trusts the file to have only grown by appends.
_BOUNDARY_BYTES = 64

#: Default store location, relative to the current working directory.
DEFAULT_STORE_PATH = os.path.join(".repro-store", "results.jsonl")


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def cell_key(
    scenario: str,
    params: Mapping[str, Any],
    adversary: str,
    seed: int,
    analysis_versions: Mapping[str, int],
    horizon: Optional[int] = None,
) -> str:
    """The stable content address of one sweep cell."""
    material = canonical_json(
        {
            "format": STORE_FORMAT_VERSION,
            "scenario": scenario,
            "params": dict(params),
            "adversary": adversary,
            "seed": seed,
            "horizon": horizon,
            "analyses": dict(analysis_versions),
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class StoreError(ValueError):
    """Raised on malformed store records."""


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One JSONL line -> record, or ``None`` for blank/torn/keyless lines."""
    stripped = line.strip()
    if not stripped:
        return None
    try:
        record = json.loads(stripped)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    return record


def _crc32(payload: bytes) -> int:
    return binascii.crc32(payload) & 0xFFFFFFFF


def _wrap_record(record: Mapping[str, Any]) -> bytes:
    """One sealed-segment line: the record plus the CRC32 of its canonical form."""
    body = canonical_json(record)
    return ('{"c":%d,"r":%s}\n' % (_crc32(body.encode("utf-8")), body)).encode("utf-8")


def _unwrap_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode and CRC-verify one sealed line; ``None`` on any mismatch."""
    stripped = line.strip()
    if not stripped:
        return None
    try:
        wrapper = json.loads(stripped)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(wrapper, dict) or "r" not in wrapper:
        return None
    record = wrapper.get("r")
    crc = wrapper.get("c")
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    if not isinstance(crc, int):
        return None
    if _crc32(canonical_json(record).encode("utf-8")) != crc:
        return None
    return record


def _synchronized(method):
    """Run a :class:`ResultStore` method under the view's own lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._mutex:
            return method(self, *args, **kwargs)

    return locked


class ResultStore:
    """An append-only, segmented JSONL result cache with an O(1) resume index.

    ``rotate_bytes`` is the tail size that triggers sealing (``None``
    disables rotation entirely — the store stays a legacy single file).
    ``use_index=False`` disables the sidecar index: sealed segments are
    fully scanned on load instead (the comparison baseline for the resume
    bench, and a fallback for read-only filesystems where index writes
    cannot land anyway).

    An instance is a view: it loads lazily on first use and then sees its
    own writes; :meth:`refresh` brings in what other processes wrote (see
    the module docstring for the rule).  Every public method holds the
    view's lock, so threads may share one instance.
    """

    def __init__(
        self,
        path: str = DEFAULT_STORE_PATH,
        rotate_bytes: Optional[int] = DEFAULT_ROTATE_BYTES,
        use_index: bool = True,
    ):
        if rotate_bytes is not None and rotate_bytes < 1:
            raise StoreError(f"rotate_bytes must be >= 1 or None, got {rotate_bytes}")
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.use_index = use_index
        self._mutex = threading.RLock()
        # The tail view: newest raw line per key, in first-appearance order,
        # plus the unterminated final line when it parses (kept apart so a
        # refresh can read it again).
        self._tail: Dict[str, bytes] = {}
        self._fragment: Optional[Tuple[str, bytes]] = None
        self._tail_fd: Optional[int] = None
        self._tail_closer: Any = None
        self._tail_stat: Optional[Tuple[int, int, int, int]] = None
        self._tail_offset = 0
        self._tail_boundary = b""
        self._tail_bad_lines = 0
        self._segment_stat: List[Tuple[str, int, int]] = []
        # Parsed sealed records; only filled with ``use_index=False``.
        self._sealed_cache: Dict[str, Dict[str, Any]] = {}
        self._locators: Dict[str, Tuple[int, int, int]] = {}
        self._segments: List[str] = []
        self._loaded = False

    # -- layout ------------------------------------------------------------

    @property
    def segments_dir(self) -> str:
        return self.path + ".segments"

    @property
    def index_path(self) -> str:
        return self.path + ".index.json"

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.segments_dir, name)

    def _list_segments(self) -> List[str]:
        try:
            names = os.listdir(self.segments_dir)
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(name for name in names if _SEGMENT_RE.match(name))

    def stat_signature(self) -> Tuple[Any, ...]:
        """A cheap fingerprint of the on-disk state — no record is read.

        Covers the tail, the advisory index, and every sealed segment as
        ``(name, size, mtime_ns)`` triples: any append (flock'd, so it
        always grows the tail), seal, compaction, or repair — by this
        process or another one sharing the store — changes the signature.
        ``repro serve`` keys its report cache on this, so repeat reports
        over an unchanged store are pure cache hits while a concurrent CLI
        sweep invalidates them naturally.
        """

        def stat(path: str) -> Optional[Tuple[int, int]]:
            try:
                info = os.stat(path)
            except OSError:
                return None
            return (info.st_size, info.st_mtime_ns)

        parts: List[Tuple[Any, ...]] = [
            ("tail", stat(self.path)),
            ("index", stat(self.index_path)),
        ]
        for name in self._list_segments():
            parts.append((name, stat(self._segment_path(name))))
        return tuple(parts)

    def _next_segment_name(self) -> str:
        last = 0
        for name in self._segments:
            match = _SEGMENT_RE.match(name)
            if match:
                last = max(last, int(match.group(1)))
        return f"seg-{last + 1:06d}.jsonl"

    # -- loading -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        # The segment signature is taken before anything is read, so a
        # segment that changes during the load fails the next refresh.
        self._segment_stat = self._segment_signature()
        self._segments = [name for name, _, _ in self._segment_stat]
        if self._segments:
            if self.use_index:
                if not self._try_load_index():
                    self._rebuild_index()
            else:
                self._scan_segments()
        self._load_tail()

    def _segment_signature(self) -> List[Tuple[str, int, int]]:
        signature = []
        for name in self._list_segments():
            try:
                info = os.stat(self._segment_path(name))
            except OSError:
                signature.append((name, -1, -1))
            else:
                signature.append((name, info.st_size, info.st_mtime_ns))
        return signature

    def _reset_tail(self) -> None:
        if self._tail_fd is not None:
            self._tail_closer()
            self._tail_fd = None
        self._tail = {}
        self._fragment = None
        self._tail_stat = None
        self._tail_offset = 0
        self._tail_boundary = b""
        self._tail_bad_lines = 0

    def _load_tail(self) -> None:
        """Read the whole tail into the view (a full load).

        The descriptor stays open until the next full load: it keeps the
        parsed inode allocated, so no later file can reuse its number and
        an equal ``(st_dev, st_ino)`` always means this very file.
        """
        self._reset_tail()
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return
        self._tail_fd = fd
        self._tail_closer = weakref.finalize(self, os.close, fd)
        info = os.fstat(fd)
        self._fold_tail(os.pread(fd, info.st_size, 0), info)

    def _fold_tail(self, data: bytes, info: os.stat_result) -> None:
        """Fold tail bytes starting at ``self._tail_offset`` into the view.

        Complete lines are parsed once and kept as raw bytes; the final
        unterminated fragment (if any) is parsed the way a full load
        parses it but stays past the recorded offset, so the next refresh
        reads it again.
        """
        _C_TAIL_BYTES_PARSED.value += len(data)
        end = data.rfind(b"\n") + 1
        if end:
            for line in data[: end - 1].split(b"\n"):
                stripped = line.strip()
                if not stripped:
                    continue
                record = _parse_line(stripped)
                if record is None:
                    self._tail_bad_lines += 1
                else:
                    self._tail[record["key"]] = stripped
            if end >= _BOUNDARY_BYTES:
                self._tail_boundary = data[end - _BOUNDARY_BYTES : end]
            else:
                self._tail_boundary = (self._tail_boundary + data[:end])[-_BOUNDARY_BYTES:]
        fragment = data[end:].strip()
        record = _parse_line(fragment) if fragment else None
        self._fragment = None if record is None else (record["key"], fragment)
        self._tail_offset += end
        self._tail_stat = (info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns)

    def _append_tail(self) -> bool:
        """Parse only what was appended since the last sync; ``False`` when
        the tail is not the same file grown by appends."""
        try:
            info = os.stat(self.path)
        except FileNotFoundError:
            return self._tail_stat is None
        old = self._tail_stat
        if old is None:
            # A tail where the view had none: all of it is appended bytes.
            self._load_tail()
            return True
        if old == (info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns):
            return True
        if old[:2] != (info.st_dev, info.st_ino) or info.st_size <= old[2]:
            return False
        info = os.fstat(self._tail_fd)
        start = self._tail_offset - len(self._tail_boundary)
        data = os.pread(self._tail_fd, info.st_size - start, start)
        keep = len(self._tail_boundary)
        if len(data) != info.st_size - start or data[:keep] != self._tail_boundary:
            return False
        self._fold_tail(data[keep:], info)
        return True

    @_synchronized
    def refresh(self) -> None:
        """Bring the view up to date with the disk, as cheaply as is safe.

        Nothing is read while the tail's ``(st_dev, st_ino, st_size,
        st_mtime_ns)`` and the sealed segments' ``(name, size, mtime_ns)``
        list are unchanged.  A tail that kept its inode and grew past
        unchanged boundary bytes has only its appended suffix parsed.
        Anything else drops the view and loads it in full
        (``store.view_reloads``).  The first call performs the initial load.
        """
        if not self._loaded:
            self._ensure_loaded()
            return
        if self._segment_signature() == self._segment_stat and self._append_tail():
            return
        _C_VIEW_RELOADS.value += 1
        self.reload()
        self._ensure_loaded()

    def _resync(self) -> None:
        """Re-read the tail and segment signature after this view's own
        rewrite, under the exclusive lock: its in-memory state already
        matches the new files."""
        self._segment_stat = self._segment_signature()
        self._load_tail()

    def _tail_view(self) -> Dict[str, bytes]:
        """Newest raw tail line per key, the parseable fragment included."""
        if self._fragment is None:
            return self._tail
        key, raw = self._fragment
        return {**self._tail, key: raw}

    def _tail_damaged(self) -> bool:
        """Whether the tail holds unparseable lines or an unterminated end."""
        return bool(self._tail_bad_lines) or (
            self._tail_stat is not None and self._tail_stat[2] > self._tail_offset
        )

    @_synchronized
    def reload(self) -> None:
        """Drop every in-memory view and re-read the disk on next access."""
        self._reset_tail()
        self._segment_stat = []
        self._sealed_cache = {}
        self._locators = {}
        self._segments = []
        self._loaded = False

    # -- index -------------------------------------------------------------

    def _segment_stats(self) -> List[List[Any]]:
        stats = []
        for name in self._segments:
            try:
                size = os.path.getsize(self._segment_path(name))
            except OSError:
                size = -1
            stats.append([name, size])
        return stats

    def _try_load_index(self) -> bool:
        """Load the sidecar index; ``False`` when missing, stale, or corrupt.

        Staleness is a disk-truth check: the index must list exactly the
        sealed segments on disk, at their current sizes.  Appends only ever
        touch the tail (which is never indexed), so an index can go stale
        only through rotation, compaction, repair, or manual surgery — all
        of which change the segment list or a segment's size.
        """
        try:
            with open(self.index_path, "rb") as handle:
                data = json.loads(handle.read())
            if data.get("format") != INDEX_FORMAT_VERSION:
                return False
            if data.get("segments") != self._segment_stats():
                return False
            entries = data["entries"]
            locators: Dict[str, Tuple[int, int, int]] = {}
            count = len(self._segments)
            for key, loc in entries.items():
                si, offset, length = loc
                if not 0 <= si < count:
                    return False
                locators[key] = (si, offset, length)
        except (OSError, ValueError, KeyError, TypeError):
            return False
        self._locators = locators
        return True

    def _rebuild_index(self, persist: bool = True) -> None:
        """Rebuild locators by scanning every sealed segment, CRC-verifying.

        Corrupt records are left out of the index (they would fail their
        fetch-time CRC anyway), so a rebuild after segment damage turns the
        damaged cells into cache misses — the self-healing path the
        corrupted-segment/deleted-index recovery tests pin down.  The index
        write is best-effort: on a read-only filesystem the in-memory
        locators still serve this process.
        """
        locators: Dict[str, Tuple[int, int, int]] = {}
        for si, name in enumerate(self._segments):
            for record, offset, length in self._iter_segment(name):
                if record is not None:
                    locators[record["key"]] = (si, offset, length)
        self._locators = locators
        _C_INDEX_REBUILDS.value += 1
        if persist and self.use_index:
            try:
                self._write_index()
            except OSError:
                pass

    def _write_index(self) -> None:
        payload = {
            "format": INDEX_FORMAT_VERSION,
            "segments": self._segment_stats(),
            "entries": {key: list(loc) for key, loc in self._locators.items()},
        }
        data = (canonical_json(payload) + "\n").encode("utf-8")
        tmp_path = f"{self.index_path}.{os.getpid()}.tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.index_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise

    def _iter_segment(
        self, name: str
    ) -> Iterator[Tuple[Optional[Dict[str, Any]], int, int]]:
        """Yield ``(record_or_None, offset, length)`` per non-meta line.

        ``None`` marks a corrupt line (bad JSON, missing key, CRC mismatch).
        The meta line and blank lines are skipped entirely.
        """
        try:
            with open(self._segment_path(name), "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        offset = 0
        for line in raw.split(b"\n"):
            length = len(line) + 1  # the split newline
            stripped = line.strip()
            if stripped and not stripped.startswith(b'{"seg"'):
                yield _unwrap_record(line), offset, min(length, len(raw) - offset)
            offset += length

    def _scan_segments(self) -> None:
        """Full-scan fallback (``use_index=False``): parse every sealed record."""
        self._sealed_cache = {}
        for name in self._segments:
            for record, _, _ in self._iter_segment(name):
                if record is not None:
                    self._sealed_cache[record["key"]] = record

    def _fetch(self, key: str) -> Optional[Dict[str, Any]]:
        """Materialise one sealed record through its locator, CRC-verified.

        The record is not kept: a view's memory is its tail plus locators.
        """
        loc = self._locators.get(key)
        if loc is None:
            return None
        si, offset, length = loc
        if si >= len(self._segments):
            return None
        _C_SEGMENT_FETCHES.value += 1
        try:
            fd = os.open(self._segment_path(self._segments[si]), os.O_RDONLY)
            try:
                raw = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError:
            _C_CRC_FAILURES.value += 1
            return None
        record = _unwrap_record(raw)
        if record is None or record.get("key") != key:
            # Damage degrades to a cache miss: the cell recomputes and its
            # fresh tail record supersedes the corrupt sealed one.
            _C_CRC_FAILURES.value += 1
            return None
        return record

    # -- locking -----------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self, exclusive: bool):
        """Advisory flock on the sidecar lock file (no-op without fcntl).

        Shared for appends (many appenders interleave safely at line
        granularity), exclusive for rewrites and rotations — so compaction
        waits out live appends instead of snapshotting around them.
        """
        if not _HAS_FLOCK:
            yield
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- queries -----------------------------------------------------------

    def _sealed_keys(self) -> Mapping[str, Any]:
        return self._locators if self.use_index else self._sealed_cache

    @_synchronized
    def __len__(self) -> int:
        self._ensure_loaded()
        sealed = self._sealed_keys()
        tail = self._tail_view()
        if not sealed:
            return len(tail)
        if not tail:
            return len(sealed)
        return len(set(sealed) | set(tail))

    @_synchronized
    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        if key in self._tail or (self._fragment is not None and self._fragment[0] == key):
            return True
        if key in self._sealed_keys():
            if self.use_index:
                _C_INDEX_HITS.value += 1
            return True
        return False

    @_synchronized
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        self._ensure_loaded()
        _C_LOOKUPS.value += 1
        if self._fragment is not None and self._fragment[0] == key:
            return json.loads(self._fragment[1])
        raw = self._tail.get(key)
        if raw is not None:
            return json.loads(raw)
        if not self.use_index:
            return self._sealed_cache.get(key)
        if key in self._locators:
            _C_INDEX_HITS.value += 1
            return self._fetch(key)
        return None

    @_synchronized
    def keys(self) -> Tuple[str, ...]:
        self._ensure_loaded()
        sealed = self._sealed_keys()
        tail = self._tail_view()
        if not sealed:
            return tuple(tail)
        merged = dict.fromkeys(sealed)
        merged.update(dict.fromkeys(tail))
        return tuple(merged)

    @_synchronized
    def records(self) -> List[Dict[str, Any]]:
        """All current records (newest per key), in insertion order.

        A full scan by design — reports want every record body.  Sealed
        segments are read in order, then the tail overrides (tail records
        are always newer than sealed ones).
        """
        self._ensure_loaded()
        merged: Dict[str, Dict[str, Any]] = {}
        for name in self._segments:
            for record, _, _ in self._iter_segment(name):
                if record is not None:
                    merged[record["key"]] = record
        for key, raw in self._tail_view().items():
            merged[key] = json.loads(raw)
        return list(merged.values())

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records())

    # -- writes ------------------------------------------------------------

    @_synchronized
    def put(self, record: Mapping[str, Any]) -> None:
        """Append one record; the newest record per key wins on lookup.

        The append is a single ``write(2)`` on an ``O_APPEND`` descriptor:
        either the whole line lands on disk or (on a crash) none of it, and
        concurrent appenders from different processes cannot interleave.  If
        a previous append was torn mid-line, a leading newline is folded into
        the same write so the fragment cannot swallow this record too.  In
        the degenerate short-write case (disk full, file-size limit) the
        remainder is completed by follow-up writes — our own line stays whole
        or the call raises, but interleave-safety against *other* appenders
        is forfeited for that one record.

        When the tail reaches ``rotate_bytes`` the append also rotates: the
        tail is sealed into a checksummed segment and emptied (see
        :meth:`rotate`).
        """
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise StoreError("store records must carry a non-empty string 'key'")
        self._ensure_loaded()
        payload = dict(record)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        torn = any(
            rule.kind == "torn-write" for rule in _faults.storage_fault("store.append")
        )
        with self._locked(exclusive=False):
            line = (canonical_json(payload) + "\n").encode("utf-8")
            if not self._ends_with_newline():
                line = b"\n" + line
            if torn:
                # Injected crash-mid-append: most of the line lands, the end
                # (including the newline) never does.
                line = line[: max(1, len(line) * 2 // 3)]
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # Normally one write(2); loop to finish a short write
                # (ENOSPC, RLIMIT_FSIZE) so a silently-truncated count cannot
                # leave a torn line behind while the index believes the
                # record landed.
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view) :]
                info = os.fstat(fd)
            finally:
                os.close(fd)
        if torn:
            # The record never fully landed: leaving the key out of the
            # in-memory view keeps this process honest too — the cell reads
            # as missing and is recomputed, exactly like after a real crash.
            return
        # Only reached when the whole line is durably appended: an exception
        # above leaves the key out of the index, so the cell is re-executed
        # rather than served from a record that never fully landed.  The
        # refresh reads it back with anything other writers appended, in
        # disk order.
        self.refresh()
        _C_APPENDS.value += 1
        if self.rotate_bytes is not None and info.st_size >= self.rotate_bytes:
            self.rotate()

    def put_many(self, records: Sequence[Mapping[str, Any]]) -> None:
        for record in records:
            self.put(record)

    def _ends_with_newline(self) -> bool:
        """Whether the file is empty or its last byte is a newline."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return True
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except FileNotFoundError:
            return True

    def _atomic_rewrite(self, lines: Sequence[bytes]) -> None:
        """Replace the store file with ``lines`` via temp-file + rename.

        The temp file lives in the store's own directory (same filesystem, so
        the rename is atomic) and is fsynced before ``os.replace``; a crash at
        any point leaves either the old complete file or the new one.  The
        temp name is per-process so two rewriters never share a temp file;
        note that a rewrite snapshots the file, so records appended by
        *another* process between the read and the rename are dropped —
        rewrites (compact/recover) belong to a single coordinating process,
        while appends are safe from many.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp_path = f"{self.path}.{os.getpid()}.tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.writelines(lines)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if directory:
            try:
                dir_fd = os.open(directory, os.O_RDONLY)
            except OSError:
                return  # platform without directory fds; rename already done
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    # -- rotation and sealing ----------------------------------------------

    def _write_segment(
        self,
        name: str,
        records: Sequence[Mapping[str, Any]],
        fire_faults: bool = True,
    ) -> Dict[str, Tuple[int, int]]:
        """Write one sealed segment atomically; returns key -> (offset, length).

        The file is fsynced before the rename, so by the time the caller
        truncates the tail the segment is durable — a crash between seal and
        truncate leaves duplicates (tail wins), never a lost record.
        """
        owner = f"{socket.gethostname()}:{os.getpid()}"
        meta = {
            "seg": {
                "format": SEGMENT_FORMAT_VERSION,
                "name": name,
                "records": len(records),
                "owner": owner,
                "sealed_at": round(time.time(), 3),
            }
        }
        buf = bytearray((canonical_json(meta) + "\n").encode("utf-8"))
        meta_len = len(buf)
        entries: Dict[str, Tuple[int, int]] = {}
        for record in records:
            line = _wrap_record(record)
            entries[record["key"]] = (len(buf), len(line))
            buf += line
        seal_kinds = (
            {rule.kind for rule in _faults.storage_fault("store.seal")}
            if fire_faults
            else set()
        )
        if "corrupt-segment" in seal_kinds and len(buf) > meta_len:
            # Bit rot, deterministically: flip one byte in the middle of the
            # record region.  The hit record fails its CRC and degrades to a
            # cache miss; every other record still verifies.
            position = meta_len + (len(buf) - meta_len) // 2
            buf[position] ^= 0xFF
        os.makedirs(self.segments_dir, exist_ok=True)
        final_path = self._segment_path(name)
        tmp_path = f"{final_path}.{os.getpid()}.tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buf)
                handle.flush()
                if "partial-fsync" in seal_kinds:
                    # The fsync never happened and the page cache lost the
                    # end of the file: the last record line is torn.
                    handle.truncate(max(meta_len, len(buf) - 16))
                else:
                    os.fsync(handle.fileno())
            os.replace(tmp_path, final_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
        try:
            dir_fd = os.open(self.segments_dir, os.O_RDONLY)
        except OSError:
            pass
        else:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        _C_SEGMENTS_SEALED.value += 1
        return entries

    @_synchronized
    def rotate(self, force: bool = False) -> Optional[str]:
        """Seal the current tail into a checksummed segment; empty the tail.

        Returns the new segment's name, or ``None`` when there was nothing
        to seal (or another process rotated first — the size is re-checked
        under the exclusive lock).  ``force=True`` seals regardless of size
        (the migration path).  Ordering is seal-then-truncate: the segment
        is durable on disk before the tail shrinks, so a crash in between
        leaves duplicates the lookup order (tail over segments) resolves.
        """
        self._ensure_loaded()
        if not os.path.exists(self.path):
            return None
        with self._locked(exclusive=True):
            with open(self.path, "rb") as handle:
                raw = handle.read()
            threshold = self.rotate_bytes
            if not force and (threshold is None or len(raw) < threshold):
                return None  # another process rotated while we waited
            sealed: List[Dict[str, Any]] = []
            for line in raw.split(b"\n"):
                record = _parse_line(line)
                if record is not None:
                    sealed.append(record)
            if not sealed:
                return None
            # Other coordinators seal into the same directory: bring the
            # view up to date under the lock, so the index written below
            # covers every segment it declares.
            self.refresh()
            name = self._next_segment_name()
            rotate_kinds = {rule.kind for rule in _faults.storage_fault("store.rotate")}
            entries = self._write_segment(name, sealed)
            self._atomic_rewrite([])
            si = len(self._segments)
            self._segments.append(name)
            if self.use_index:
                for key, (offset, length) in entries.items():
                    self._locators[key] = (si, offset, length)
                if "stale-index" not in rotate_kinds:
                    with contextlib.suppress(OSError):
                        self._write_index()
            else:
                for record in sealed:
                    self._sealed_cache[record["key"]] = record
            self._resync()
        _C_ROTATIONS.value += 1
        return name

    @_synchronized
    def migrate(self) -> Dict[str, Any]:
        """Upgrade a legacy single-file store in place; idempotent.

        Seals the whole tail into a segment (regardless of size) and writes
        the sidecar index, so subsequent opens take the O(1) probe path.
        Records read back bit-identically — the layout changes, the record
        bytes do not (``canonical_json`` round-trip).  Returns :meth:`info`.
        """
        self._ensure_loaded()
        if self._tail_view():
            self.rotate(force=True)
        elif self._segments and self.use_index and not self._try_load_index():
            self._rebuild_index()
        return self.info()

    # -- maintenance ---------------------------------------------------------

    @_synchronized
    def recover(self) -> int:
        """Drop torn/corrupt tail lines, atomically; idempotent and *shallow*.

        Scans the raw tail JSONL, keeps every parseable keyed record line
        (torn tails from a ``kill -9`` mid-append and any other corrupt
        lines are dropped), and rewrites the tail via temp-file + rename
        only when something actually needs dropping.  Returns the number of
        lines dropped.  This is the entry point resumable sweeps call before
        trusting the store as the source of truth for completed cells.

        Sealed segments are *not* re-read (resume cost must not scale with
        store size): a stale or missing index is rebuilt, and per-record
        damage inside segments surfaces lazily as CRC-failed fetches — i.e.
        cache misses that recompute and supersede.  The deep scan is
        :meth:`verify`.  Runs under the exclusive advisory lock and brings
        the view up to date inside it (:meth:`refresh`), so concurrent
        appenders neither tear the scan nor lose records; the tail is read
        again and rewritten only when the view counted unparseable lines or
        an unterminated end.
        """
        dropped = 0
        if not os.path.exists(self.path):
            self.refresh()
        else:
            with self._locked(exclusive=True):
                self.refresh()
                if self._tail_damaged():
                    with open(self.path, "rb") as handle:
                        raw = handle.read()
                    kept: List[bytes] = []
                    for line in raw.split(b"\n"):
                        if not line.strip():
                            continue
                        if _parse_line(line) is None:
                            dropped += 1
                        else:
                            kept.append(line + b"\n")
                    self._atomic_rewrite(kept)
                    self._resync()
        if self._segments and self.use_index and not self._try_load_index():
            self._rebuild_index()
        _C_RECOVER_DROPPED.value += dropped
        return dropped

    @_synchronized
    def compact(self) -> int:
        """Rewrite the store keeping one (newest) record per key, atomically.

        Returns the number of lines dropped (superseded duplicates plus any
        torn/corrupt lines).  Compacting an already-compact store drops 0
        lines and rewrites nothing.  When the surviving records fit under
        ``rotate_bytes`` the store collapses back to a single legacy tail
        file (segments and index removed); larger stores re-seal into fresh
        segments plus an empty tail.

        Runs under the exclusive advisory lock and rebuilds its view from
        the *disk*, not the in-memory state — another process may have
        appended records this process never loaded, and those must survive
        the rewrite.
        """
        self._ensure_loaded()
        if not os.path.exists(self.path) and not self._segments:
            return 0
        with self._locked(exclusive=True):
            self.refresh()
            merged: Dict[str, Dict[str, Any]] = {}
            total_lines = 0
            for name in self._segments:
                for record, _, _ in self._iter_segment(name):
                    total_lines += 1
                    if record is not None:
                        merged[record["key"]] = record
            try:
                with open(self.path, "rb") as handle:
                    raw = handle.read()
            except FileNotFoundError:
                raw = b""
            for line in raw.split(b"\n"):
                if not line.strip():
                    continue
                total_lines += 1
                record = _parse_line(line)
                if record is not None:
                    merged[record["key"]] = record
            clean = raw.endswith(b"\n") or not raw
            if total_lines == len(merged) and clean:
                return 0
            lines = [
                (canonical_json(record) + "\n").encode("utf-8")
                for record in merged.values()
            ]
            old_segments = list(self._segments)
            payload_bytes = sum(len(line) for line in lines)
            if (
                old_segments
                and self.rotate_bytes is not None
                and payload_bytes > self.rotate_bytes
            ):
                # Too big for one tail: re-seal into fresh segments (numbered
                # after the old ones so a crash mid-compaction leaves newer
                # duplicates that win the scan order), then an empty tail.
                records_list = list(merged.values())
                chunks: List[List[Dict[str, Any]]] = []
                chunk: List[Dict[str, Any]] = []
                chunk_bytes = 0
                for record, line in zip(records_list, lines):
                    if chunk and chunk_bytes + len(line) > self.rotate_bytes:
                        chunks.append(chunk)
                        chunk, chunk_bytes = [], 0
                    chunk.append(record)
                    chunk_bytes += len(line)
                if chunk:
                    chunks.append(chunk)
                new_segments: List[str] = []
                self._locators = {}
                self._sealed_cache = {}
                for chunk in chunks:
                    name = self._next_segment_name()
                    entries = self._write_segment(name, chunk, fire_faults=False)
                    si = len(new_segments)
                    self._segments = [*new_segments, name]
                    new_segments.append(name)
                    for key, (offset, length) in entries.items():
                        self._locators[key] = (si, offset, length)
                    if not self.use_index:
                        for record in chunk:
                            self._sealed_cache[record["key"]] = record
                self._atomic_rewrite([])
                for name in old_segments:
                    with contextlib.suppress(OSError):
                        os.unlink(self._segment_path(name))
                self._segments = new_segments
                if self.use_index:
                    with contextlib.suppress(OSError):
                        self._write_index()
            else:
                # Collapse to the legacy single-file layout: tail holds
                # everything, sidecars disappear.
                self._atomic_rewrite(lines)
                for name in old_segments:
                    with contextlib.suppress(OSError):
                        os.unlink(self._segment_path(name))
                with contextlib.suppress(OSError):
                    os.unlink(self.index_path)
                with contextlib.suppress(OSError):
                    os.rmdir(self.segments_dir)
                self._segments = []
                self._locators = {}
                self._sealed_cache = {}
            self._resync()
        dropped = total_lines - len(merged)
        _C_COMPACT_DROPPED.value += dropped
        return dropped

    @_synchronized
    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Deep integrity check: CRC every sealed record, scan the tail.

        Returns a report dict; ``report["ok"]`` means no corrupt sealed
        records, no torn tail lines, and a fresh (or absent-by-design)
        index.  With ``repair=True`` corrupt sealed records are dropped
        (segment rewritten atomically), the tail is recovered, and the index
        rebuilt — the dropped cells become cache misses and recompute on the
        next resume.
        """
        self._ensure_loaded()
        report: Dict[str, Any] = {
            "path": self.path,
            "segments": [],
            "segment_records": 0,
            "corrupt_records": 0,
            "tail_records": 0,
            "tail_torn_lines": 0,
            "index": "none",
            "repaired": False,
        }
        with self._locked(exclusive=repair):
            self.refresh()
            damaged: Dict[str, List[Dict[str, Any]]] = {}
            for name in self._segments:
                good: List[Dict[str, Any]] = []
                corrupt = 0
                for record, _, _ in self._iter_segment(name):
                    if record is None:
                        corrupt += 1
                    else:
                        good.append(record)
                try:
                    size = os.path.getsize(self._segment_path(name))
                except OSError:
                    size = -1
                report["segments"].append(
                    {"name": name, "records": len(good), "corrupt": corrupt, "size": size}
                )
                report["segment_records"] += len(good)
                report["corrupt_records"] += corrupt
                if corrupt:
                    damaged[name] = good
            try:
                with open(self.path, "rb") as handle:
                    raw = handle.read()
            except FileNotFoundError:
                raw = b""
            for line in raw.split(b"\n"):
                if not line.strip():
                    continue
                if _parse_line(line) is None:
                    report["tail_torn_lines"] += 1
                else:
                    report["tail_records"] += 1
            if self._segments:
                if not self.use_index:
                    report["index"] = "disabled"
                elif not os.path.exists(self.index_path):
                    report["index"] = "missing"
                elif self._try_load_index():
                    report["index"] = "fresh"
                else:
                    report["index"] = "stale"
            if repair:
                for name, good in damaged.items():
                    self._write_segment(name, good, fire_faults=False)
                report["repaired"] = bool(damaged) or report["tail_torn_lines"] > 0
        if repair:
            # Outside the exclusive lock: recover() and the index rebuild
            # take their own locks.
            if report["tail_torn_lines"]:
                self.recover()
            self._segment_stat = self._segment_signature()
            self._segments = [name for name, _, _ in self._segment_stat]
            if self._segments:
                if self.use_index:
                    self._rebuild_index()
                    report["index"] = "fresh"
                else:
                    self._scan_segments()
            report["corrupt_dropped"] = report["corrupt_records"]
            report["corrupt_records"] = 0
            report["tail_torn_lines"] = 0
        report["ok"] = (
            report["corrupt_records"] == 0
            and report["tail_torn_lines"] == 0
            and report["index"] in ("none", "fresh", "disabled")
        )
        return report

    @_synchronized
    def info(self) -> Dict[str, Any]:
        """Layout summary: segment count/records, tail records, index state."""
        self._ensure_loaded()
        index_state = "none"
        if self._segments:
            if not self.use_index:
                index_state = "disabled"
            elif not os.path.exists(self.index_path):
                index_state = "missing"
            else:
                index_state = "fresh" if self._try_load_index() else "stale"
        return {
            "path": self.path,
            "format": STORE_FORMAT_VERSION,
            "segment_format": SEGMENT_FORMAT_VERSION,
            "rotate_bytes": self.rotate_bytes,
            "segments": list(self._segments),
            "sealed_records": len(self._sealed_keys()),
            "tail_records": len(self._tail_view()),
            "keys": len(self),
            "index": index_state,
        }
