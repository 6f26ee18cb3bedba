"""Long-lived store views: ``ResultStore.refresh`` against a fresh load.

``repro serve`` keeps one :class:`ResultStore` view for its whole life and
refreshes it before every read.  The refresh parses only the appended
suffix when the tail kept its inode, grew, and still carries the bytes the
view parsed last; anything else reloads the view in full.  The stateful
property below drives every kind of change the store layer makes (own and
foreign appends, torn writes, rotation, compaction, recovery, repair,
index loss) plus damage outside its write discipline, and after each step
requires the refreshed views to answer exactly like a fresh
``ResultStore(path)``.
"""

import json
import os
import shutil
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.experiments import faults
from repro.experiments.store import ResultStore
from repro.obs import metrics

#: Small enough that a handful of appends triggers rotation.
ROTATE_BYTES = 1200

KEYS = st.integers(min_value=0, max_value=5)
VALUES = st.integers(min_value=0, max_value=9999)
WHO = st.sampled_from(["own", "foreign"])


def _record(key, value):
    # Fixed-width fields, and the varying ones sort first: every line has
    # the same length and the same last bytes, so the boundary window alone
    # cannot tell one line from another and the other checks must hold.
    return {"a": f"{value:04d}", "key": f"k{key:02d}", "pad": "x" * 80, "status": "ok"}


def _counter(name):
    return metrics.registry().snapshot()["counters"].get(name, 0)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


def _fill(store, count, start=0):
    for i in range(start, start + count):
        store.put(_record(i, i))


def assert_matches_fresh(view, path):
    fresh = ResultStore(path, rotate_bytes=ROTATE_BYTES)
    keys = fresh.keys()
    assert sorted(view.keys()) == sorted(keys)
    assert len(view) == len(fresh)
    for key in keys:
        assert view.get(key) == fresh.get(key), key
    assert view.records() == fresh.records()


class StoreViewMachine(RuleBasedStateMachine):
    """Two long-lived views of one store, checked against fresh loads.

    ``own`` writes and is refreshed after every step, like the serve
    view between requests.  ``lagging`` only reads and is refreshed when
    :meth:`check_lagging` runs, so several changes (a rewrite followed by
    appends, damage followed by appends) can land between two of its
    refreshes.  ``foreign`` is a second writer standing in for another
    process sharing the store.
    """

    def __init__(self):
        super().__init__()
        faults.reset()
        self.dir = tempfile.mkdtemp(prefix="store-views-")
        self.path = os.path.join(self.dir, "results.jsonl")
        self.own = ResultStore(self.path, rotate_bytes=ROTATE_BYTES)
        self.foreign = ResultStore(self.path, rotate_bytes=ROTATE_BYTES)
        self.lagging = ResultStore(self.path, rotate_bytes=ROTATE_BYTES)
        self.lagging.refresh()

    def teardown(self):
        faults.reset()
        shutil.rmtree(self.dir, ignore_errors=True)

    def store(self, who):
        return self.own if who == "own" else self.foreign

    # -- the layer's own operations -----------------------------------------

    @rule(who=WHO, key=KEYS, value=VALUES, torn=st.sampled_from([False, False, True]))
    def put(self, who, key, value, torn):
        if torn:
            faults.mark_storage()
            faults.install_plan(faults.parse_plan("torn-write@store.append:1"))
        try:
            self.store(who).put(_record(key, value))
        finally:
            faults.reset()

    @rule(who=WHO, op=st.sampled_from(["rotate", "compact", "recover", "verify-repair"]))
    def rewrite(self, who, op):
        store = self.store(who)
        if op == "rotate":
            store.rotate(force=True)
        elif op == "compact":
            store.compact()
        elif op == "recover":
            store.recover()
        else:
            store.verify(repair=True)

    # -- index loss and damage outside the write discipline -------------------

    @rule(
        kind=st.sampled_from(["delete-index", "delete-tail", "same-size", "lose-end"]),
        amount=st.integers(min_value=1, max_value=10_000),
    )
    def damage(self, kind, amount):
        """Damage the refresh rule promises to see.

        A deleted tail is always seen: the view holds the old inode open.
        A lost end of the last line (a write-back that never reached the
        disk) changes the bytes just before a reader's offset, so it is seen
        even after later appends grow the file again.  A same-size rewrite
        shows only as a new mtime, so only a reader whose last refresh saw
        the same size sees it, and only if nothing lands before its next
        refresh: the lagging reader is brought up to date before the
        rewrite and looks right after it.
        """
        if kind == "delete-index":
            if os.path.exists(self.own.index_path):
                os.unlink(self.own.index_path)
            return
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        if kind == "delete-tail":
            os.unlink(self.path)
        elif kind == "lose-end":
            start = data.rstrip(b"\n").rfind(b"\n") + 1
            if len(data) - start > 1:
                os.truncate(self.path, start + 1 + amount % (len(data) - start - 1))
        elif data:
            self.lagging.refresh()
            info = os.stat(self.path)
            with open(self.path, "r+b") as handle:
                handle.seek(amount % len(data))
                handle.write(b"#")
            # A later write: a same-size rewrite within one clock tick of
            # the last sync would leave the stat signature unchanged.
            os.utime(self.path, ns=(info.st_atime_ns, info.st_mtime_ns + 1_000_000_000))
            self.check_lagging()

    # -- checks ---------------------------------------------------------------

    @rule()
    def check_lagging(self):
        self.lagging.refresh()
        assert_matches_fresh(self.lagging, self.path)

    @invariant()
    def refreshed_view_matches_a_fresh_load(self):
        self.own.refresh()
        assert_matches_fresh(self.own, self.path)


StoreViewMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreViewEquivalence = StoreViewMachine.TestCase

#: Step sequences the random search reaches only now and then, pinned so
#: that dropping any one check of the refresh rule fails on every run.
PINNED_SEQUENCES = {
    # A rewrite (new inode) back to the old size, then an append: only the
    # inode check sees that the lines before the old offset changed.
    "rewrite-to-equal-size-then-append": [
        ("put", {"who": "own", "key": 0, "value": 1, "torn": False}),
        ("put", {"who": "own", "key": 1, "value": 1, "torn": False}),
        ("check_lagging", {}),
        ("put", {"who": "foreign", "key": 0, "value": 2, "torn": False}),
        ("rewrite", {"who": "foreign", "op": "compact"}),
        ("put", {"who": "foreign", "key": 2, "value": 3, "torn": False}),
        ("check_lagging", {}),
    ],
    # A lost end of the last line, then an append past the old size: only
    # the boundary bytes show that the last parsed line was torn.
    "lost-end-then-append": [
        ("put", {"who": "own", "key": 0, "value": 1, "torn": False}),
        ("put", {"who": "own", "key": 1, "value": 1, "torn": False}),
        ("check_lagging", {}),
        ("damage", {"kind": "lose-end", "amount": 5}),
        ("put", {"who": "foreign", "key": 2, "value": 2, "torn": False}),
        ("check_lagging", {}),
    ],
    # A deleted tail refilled past its old size by a new file: the view's
    # open descriptor keeps the new file from reusing the old inode.
    "delete-then-refill": [
        ("put", {"who": "own", "key": 0, "value": 1, "torn": False}),
        ("check_lagging", {}),
        ("damage", {"kind": "delete-tail", "amount": 1}),
        ("put", {"who": "own", "key": 1, "value": 2, "torn": False}),
        ("put", {"who": "own", "key": 2, "value": 2, "torn": False}),
        ("check_lagging", {}),
    ],
    # A torn append, a foreign append over it, then recovery.
    "torn-append-then-recover": [
        ("put", {"who": "own", "key": 0, "value": 1, "torn": False}),
        ("put", {"who": "foreign", "key": 1, "value": 1, "torn": True}),
        ("check_lagging", {}),
        ("put", {"who": "foreign", "key": 2, "value": 1, "torn": False}),
        ("check_lagging", {}),
        ("rewrite", {"who": "own", "op": "recover"}),
        ("put", {"who": "foreign", "key": 3, "value": 1, "torn": False}),
        ("check_lagging", {}),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_SEQUENCES))
def test_pinned_sequence_matches_fresh_loads(name):
    machine = StoreViewMachine()
    try:
        machine.refreshed_view_matches_a_fresh_load()
        for step, arguments in PINNED_SEQUENCES[name]:
            getattr(machine, step)(**arguments)
            machine.refreshed_view_matches_a_fresh_load()
    finally:
        machine.teardown()


# ---------------------------------------------------------------------------
# The refresh rule, step by step.
# ---------------------------------------------------------------------------


class TestRefreshRule:
    def test_unchanged_store_reads_nothing(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        _fill(ResultStore(path), 5)
        view = ResultStore(path)
        view.refresh()
        parsed = _counter("store.tail_bytes_parsed")
        reloads = _counter("store.view_reloads")
        for _ in range(3):
            view.refresh()
        assert _counter("store.tail_bytes_parsed") == parsed
        assert _counter("store.view_reloads") == reloads

    def test_foreign_appends_parse_only_the_appended_bytes(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        writer = ResultStore(path)
        _fill(writer, 5)
        view = ResultStore(path)
        view.refresh()
        size = os.path.getsize(path)
        _fill(writer, 3, start=5)
        parsed = _counter("store.tail_bytes_parsed")
        reloads = _counter("store.view_reloads")
        view.refresh()
        assert _counter("store.tail_bytes_parsed") - parsed == os.path.getsize(path) - size
        assert _counter("store.view_reloads") == reloads
        assert view.get("k07") == _record(7, 7)

    def test_own_appends_are_read_back_once(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        view = ResultStore(path)
        view.refresh()  # no tail yet
        parsed = _counter("store.tail_bytes_parsed")
        reloads = _counter("store.view_reloads")
        _fill(view, 4)
        assert _counter("store.tail_bytes_parsed") - parsed == os.path.getsize(path)
        view.refresh()
        assert _counter("store.tail_bytes_parsed") - parsed == os.path.getsize(path)
        assert _counter("store.view_reloads") == reloads
        assert view.get("k03") == _record(3, 3)

    @pytest.mark.parametrize(
        "rewrite",
        ["compact", "recover-torn", "rotate", "delete", "shrink"],
    )
    def test_rewrites_reload_the_view(self, tmp_path, rewrite):
        path = str(tmp_path / "results.jsonl")
        writer = ResultStore(path)
        _fill(writer, 4)
        writer.put(_record(0, 99))
        view = ResultStore(path)
        view.refresh()
        reloads = _counter("store.view_reloads")
        if rewrite == "compact":
            writer.compact()
        elif rewrite == "recover-torn":
            with open(path, "ab") as handle:
                handle.write(b'{"key": "torn')
            writer.recover()
        elif rewrite == "rotate":
            writer.rotate(force=True)
        elif rewrite == "delete":
            os.unlink(path)
        else:
            os.truncate(path, os.path.getsize(path) - 10)
        view.refresh()
        assert _counter("store.view_reloads") == reloads + 1
        assert_matches_fresh(view, path)

    def test_unterminated_fragment_is_read_again(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        _fill(ResultStore(path), 2)
        line = json.dumps(_record(5, 5), sort_keys=True, separators=(",", ":"))
        with open(path, "ab") as handle:
            handle.write(line.encode("utf-8"))  # a whole record, no newline
        view = ResultStore(path)
        assert view.get("k05") == _record(5, 5)  # a full load parses it too
        ResultStore(path).put(_record(6, 6))  # folds a newline over it
        view.refresh()
        assert view.get("k05") == _record(5, 5)
        assert view.get("k06") == _record(6, 6)
        assert_matches_fresh(view, path)

    def test_sealed_records_are_fetched_not_kept(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(path)
        _fill(store, 4)
        store.rotate(force=True)
        view = ResultStore(path)
        fetches = _counter("store.segment_fetches")
        for _ in range(3):
            assert view.get("k02") == _record(2, 2)
        assert _counter("store.segment_fetches") - fetches == 3

    def test_threads_share_one_view(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        view = ResultStore(path, rotate_bytes=4000)
        errors = []

        def write(offset):
            try:
                _fill(view, 40, start=offset)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def read():
            try:
                for _ in range(200):
                    view.refresh()
                    for key in view.keys():
                        assert view.get(key) is not None
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i * 100,)) for i in range(2)]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(view) == 80
        assert_matches_fresh(view, path)


class TestViewMemory:
    def test_warm_view_retains_less_than_twice_the_tail(self, tmp_path):
        """Tail lines are kept as raw bytes: parsed records are 10x larger."""
        path = str(tmp_path / "results.jsonl")
        writer = ResultStore(path, rotate_bytes=None)
        for i in range(1100):
            writer.put(
                {
                    "key": f"{i:064x}",
                    "status": "ok",
                    "analyses": {"summary": {"events": list(range(i % 50, i % 50 + 80))}},
                    "params": {"rows": 5, "cols": 5, "seed": i},
                    "pad": "x" * 500,
                }
            )
        del writer
        tail_bytes = os.path.getsize(path)
        assert tail_bytes > 900_000

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            view = ResultStore(path, rotate_bytes=None)
            view.refresh()
            for key in view.keys():
                assert view.get(key) is not None
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert len(view) == 1100
        assert retained < 2 * tail_bytes, (retained, tail_bytes)
