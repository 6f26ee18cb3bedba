"""Unit tests for the pluggable sweep execution backends."""

import pytest

from repro.experiments import (
    ChunkedShardExecutor,
    SerialExecutor,
    SweepError,
    expand_grid,
    make_cell,
    plan_shards,
    resolve_executor,
    run_shard_monitored,
    run_sweep,
    shard_signature,
)


def _small_grid():
    return expand_grid(
        ["line-flood", "tree-flood"],
        adversaries=["earliest", "random"],
        seeds=[0, 1],
        param_grid={"horizon": [5]},
    )


def _strip(record):
    return {k: v for k, v in record.items() if k != "duration_s"}


class TestShardSignature:
    def test_groups_by_structural_params_only(self):
        same_family = [
            make_cell("line-flood", adversary="earliest", seed=0),
            make_cell("line-flood", adversary="random", seed=7),
        ]
        assert shard_signature(same_family[0]) == shard_signature(same_family[1])

    def test_structural_param_splits_families(self):
        small = make_cell("line-flood", overrides={"num_processes": 3})
        large = make_cell("line-flood", overrides={"num_processes": 6})
        assert shard_signature(small) != shard_signature(large)

    def test_scenario_name_always_splits(self):
        line = make_cell("line-flood")
        ring = make_cell("ring-flood")
        assert shard_signature(line) != shard_signature(ring)

    def test_horizon_override_splits(self):
        base = make_cell("line-flood")
        overridden = make_cell("line-flood", horizon=4)
        assert shard_signature(base) != shard_signature(overridden)


class TestPlanShards:
    def test_explicit_shard_size_chunks_each_family(self):
        pending = list(enumerate(_small_grid()))
        shards = plan_shards(pending, workers=2, shard_size=3)
        assert all(len(shard) <= 3 for shard in shards)
        # Every pending cell appears exactly once, index preserved.
        flat = sorted(index for shard in shards for index, _ in shard)
        assert flat == list(range(len(pending)))
        # No shard mixes families.
        for shard in shards:
            signatures = {shard_signature(cell) for _, cell in shard}
            assert len(signatures) == 1

    def test_derived_shard_size_yields_enough_shards(self):
        pending = list(enumerate(_small_grid()))
        shards = plan_shards(pending, workers=2)
        assert len(shards) >= 2  # both workers get something

    def test_empty_pending(self):
        assert plan_shards([], workers=4) == []

    def test_rejects_bad_shard_size(self):
        with pytest.raises(SweepError):
            plan_shards([], workers=1, shard_size=0)


class TestRunShard:
    def test_matches_per_cell_execution(self):
        cells = _small_grid()[:4]
        from repro.experiments import run_cell

        sharded = [_strip(r) for r in run_shard_monitored(cells)["records"]]
        percell = [_strip(run_cell(cell)) for cell in cells]
        assert sharded == percell

    def test_isolates_cell_errors(self):
        good = make_cell("line-flood", overrides={"horizon": 4})
        # A negative horizon passes parameter validation but makes the
        # simulator raise; the rest of the shard must still complete.
        bad = make_cell("line-flood", overrides={"horizon": -1})
        records = run_shard_monitored([bad, good])["records"]
        assert records[0]["status"] == "error"
        assert "horizon" in records[0]["error"]
        assert records[1]["status"] == "ok"


class TestResolveExecutor:
    def test_auto_single_worker_is_serial(self):
        assert isinstance(resolve_executor("auto", workers=1), SerialExecutor)

    def test_auto_multi_worker_is_process(self):
        executor = resolve_executor("auto", workers=3)
        assert isinstance(executor, ChunkedShardExecutor) and executor.name == "process"
        assert executor.workers == 3

    def test_process_single_worker_degrades_to_serial(self):
        assert isinstance(resolve_executor("process", workers=1), SerialExecutor)

    def test_sharded_stays_sharded_single_worker(self):
        executor = resolve_executor("sharded", workers=1, shard_size=5)
        assert isinstance(executor, ChunkedShardExecutor)
        assert executor.shard_size == 5

    def test_ready_executor_passes_through(self):
        ready = SerialExecutor()
        assert resolve_executor(ready, workers=8) is ready

    def test_rejects_unknown_backend(self):
        with pytest.raises(SweepError):
            resolve_executor("threads", workers=2)

    def test_rejects_bad_workers(self):
        with pytest.raises(SweepError):
            resolve_executor("auto", workers=0)


class TestBackendEquivalence:
    def test_all_backends_agree(self, tmp_path):
        cells = _small_grid()
        reference = run_sweep(cells, workers=1, backend="serial")
        assert reference.errors == 0
        expected = [_strip(r) for r in reference.records]
        for backend, workers in [("process", 2), ("sharded", 2), ("sharded", 1)]:
            outcome = run_sweep(cells, workers=workers, backend=backend)
            assert outcome.backend == backend
            assert [_strip(r) for r in outcome.records] == expected, (backend, workers)

    def test_figure_scenario_with_stateful_protocol(self):
        """Shard reuse must not leak protocol session state across cells."""
        cells = expand_grid(["figure2b"], adversaries=["earliest", "latest"], seeds=[0])
        serial = run_sweep(cells, workers=1, backend="serial")
        sharded = run_sweep(cells, workers=1, backend="sharded", shard_size=8)
        assert serial.errors == 0 and sharded.errors == 0
        assert [_strip(r) for r in sharded.records] == [
            _strip(r) for r in serial.records
        ]

    def test_run_sweep_rejects_bad_workers(self):
        with pytest.raises(SweepError):
            run_sweep([], workers=0)

    def test_run_sweep_rejects_force_plus_resume(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(str(tmp_path / "s.jsonl"))
        with pytest.raises(SweepError):
            run_sweep([], store=store, force=True, resume=True)

    def test_run_sweep_resume_requires_store(self):
        with pytest.raises(SweepError):
            run_sweep([], resume=True)


class TestPoolSupervision:
    """Hardened local backends: broken pools, deadlines, degradation.

    Fault plans travel to pool workers via the environment (inherited at
    fork and installed by the pool initializer); this test process itself is
    never marked as a worker, so nothing fires inline.
    """

    def _cells(self, count=4):
        return _small_grid()[:count]

    def test_broken_pool_restarts_and_completes(self, monkeypatch):
        """Each worker dies on its 2nd cell; the sweep still matches serial."""
        from repro.experiments.faults import FAULTS_ENV

        cells = self._cells()
        expected = [_strip(r) for r in run_sweep(cells, backend="serial").records]
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.cell:2")
        executor = resolve_executor("process", workers=2)
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected
        assert executor.fabric["pool_restarts"] >= 1

    def test_workers_dying_instantly_degrade_to_serial(self, monkeypatch):
        """Every pool worker dies on its 1st cell: unrecoverable pools, so
        the leftover cells finish on the in-process serial path."""
        from repro.experiments.faults import FAULTS_ENV

        cells = self._cells()
        expected = [_strip(r) for r in run_sweep(cells, backend="serial").records]
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.cell:1")
        executor = ChunkedShardExecutor(2, shard_size=1, max_restarts=2)
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected
        assert executor.fabric["inline_fallback_cells"] == len(cells)

    def test_hung_cell_is_quarantined_not_waited_out(self, monkeypatch):
        """A cell hanging every worker trips its deadline twice, then becomes
        an error record — the sweep must not hang."""
        import time as _time

        from repro.experiments.faults import FAULTS_ENV

        cells = self._cells(2)
        monkeypatch.setenv(FAULTS_ENV, "hang@worker.cell:*:30")
        executor = ChunkedShardExecutor(2, shard_size=1, shard_timeout=0.4, max_attempts=2)
        seen = {}
        started = _time.perf_counter()
        executor.execute(
            list(enumerate(cells)), lambda i, c, r: seen.setdefault(i, r)
        )
        elapsed = _time.perf_counter() - started
        assert elapsed < 20  # far below the 30s hang: deadlines did their job
        assert sorted(seen) == [0, 1]  # handle called exactly once per cell
        assert all(r["status"] == "error" for r in seen.values())
        assert all("WorkerTimeout" in r["error"] for r in seen.values())
        assert executor.fabric["cells_quarantined"] == 2

    def test_sharded_pool_kill_recovers(self, monkeypatch):
        from repro.experiments.faults import FAULTS_ENV

        cells = self._cells()
        expected = [_strip(r) for r in run_sweep(cells, backend="serial").records]
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.shard:1")
        executor = ChunkedShardExecutor(2, shard_size=1, max_restarts=2)
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected

    def test_failed_shard_retries_inline_per_cell(self, monkeypatch):
        """A shard-level failure costs an inline per-cell retry, not the
        whole shard's records (drop faults sever shards, and the parent —
        never marked as a worker — re-runs the cells cleanly)."""
        from repro.experiments.faults import FAULTS_ENV

        cells = self._cells()
        expected = [_strip(r) for r in run_sweep(cells, backend="serial").records]
        monkeypatch.setenv(FAULTS_ENV, "drop@worker.shard:*")
        executor = ChunkedShardExecutor(2, shard_size=2)
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected
        assert executor.fabric["shard_inline_retries"] >= 1
        assert "DropConnection" in executor.fabric["last_shard_error"]

    def test_serial_backend_ignores_fault_plans(self, monkeypatch):
        """The parent is never a fault-scoped worker: chaos plans in the
        environment cannot touch serial/in-process execution."""
        from repro.experiments.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "kill@worker.cell:1")
        outcome = run_sweep(self._cells(2), backend="serial")
        assert outcome.errors == 0
