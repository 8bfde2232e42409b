"""Tests for the columnar result store, the lease farm and the query path.

Covers the full result-path refactor: segment format round-trips,
compaction canonicalisation, the ``REPRO_STORE`` backend dispatch in
:class:`ResultCache`, the JSON-cache importer, the lease protocol (no
double simulation, crash recovery), zero-copy :class:`ResultSet`
construction and the never-simulates query CLI.
"""

import json
import threading
import time

import pytest

from repro.chip.chip import SimulationResults
from repro.config.noc import Topology
from repro.experiments.engine import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    SweepExecutor,
    resolve_store_backend,
)
from repro.experiments.harness import RunSettings
from repro.scenarios import METRIC_NAMES, ResultSet, SweepSpec, run_sweep
from repro.store import ColumnarStore, StoreError
from repro.store import farm, migrate, query, specs
from repro.store.cache import ColumnarResultCache
from repro.store.farm import LeaseQueue, run_worker

from tests._fixtures import TINY_SETTINGS
from tests.test_engine import tiny_point
from tests.test_scenarios import ONE_WORKLOAD_SPEC


def fake_result(seed: int = 0) -> SimulationResults:
    """A deterministic synthetic result (store tests never need real sims)."""
    return SimulationResults(
        workload="Web Search",
        topology="mesh",
        num_cores=16,
        active_cores=16,
        cycles=600 + seed,
        total_instructions=9000 + 7 * seed,
        per_core_instructions={0: 500 + seed, 1: 400},
        network_mean_latency=12.5 + seed,
        llc_accesses=1000 + seed,
        llc_hit_rate=0.5,
        snoop_rate=0.1,
        l1i_mpki=20.0,
        memory_reads=300,
        network_activity={"link_traversals": 10.0 + seed},
    )


def tiny_spec(**axes) -> SweepSpec:
    defaults = {
        "workload": ("Web Search", "Data Serving"),
        "topology": ("mesh", "noc_out"),
    }
    defaults.update(axes)
    return SweepSpec(axes=defaults, settings=TINY_SETTINGS, fixed={"num_cores": 16})


class TestColumnarStore:
    def test_append_get_round_trip(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        rows = [(f"{i:064x}", fake_result(i)) for i in range(3)]
        path = store.append_results(rows)
        assert path is not None and path.exists()
        for digest, result in rows:
            assert digest in store
            assert store.get(digest) == result
        assert store.get("f" * 64) is None
        assert len(store) == 3

    def test_append_empty_is_a_no_op(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        assert store.append_results([]) is None
        assert store.segment_paths() == []

    def test_refresh_sees_sibling_appends(self, tmp_path):
        """A second store instance over the same directory sees new rows."""
        writer = ColumnarStore(tmp_path / "store")
        reader = ColumnarStore(tmp_path / "store")
        assert reader.get("0" * 64) is None
        writer.append_results([("0" * 64, fake_result())])
        # The reader refreshes lazily on the miss and finds the new segment.
        assert reader.get("0" * 64) == fake_result()

    def test_load_table_preserves_request_order(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        rows = [(f"{i:064x}", fake_result(i)) for i in range(4)]
        store.append_results(rows[:2])
        store.append_results(rows[2:])
        want = [rows[3][0], rows[0][0], rows[2][0]]
        table = store.load_table(want)
        assert list(table.hashes) == want
        assert table.result(0) == fake_result(3)
        assert table.result(1) == fake_result(0)
        assert len(table) == 3

    def test_load_table_missing_rows_raise_key_error(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result())])
        with pytest.raises(KeyError, match="1 of 2"):
            store.load_table(["0" * 64, "f" * 64])

    def test_first_write_wins_on_duplicate_hashes(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result(1))])
        store.append_results([("0" * 64, fake_result(2))])
        assert store.get("0" * 64) == fake_result(1)
        stats = store.compact()
        assert stats.duplicates_dropped == 1
        assert store.get("0" * 64) == fake_result(1)

    def test_compact_folds_to_one_canonical_segment(self, tmp_path):
        """Same rows, different arrival orders -> byte-identical segment."""
        rows = [(f"{i:064x}", fake_result(i)) for i in range(5)]

        def fill(root, order):
            store = ColumnarStore(root)
            for index in order:
                store.append_results([rows[index]])
            store.compact()
            (segment,) = store.segment_paths()
            return segment.read_bytes()

        bytes_a = fill(tmp_path / "a", [0, 1, 2, 3, 4])
        bytes_b = fill(tmp_path / "b", [4, 2, 0, 3, 1])
        assert bytes_a == bytes_b

    def test_compact_is_idempotent(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([(f"{i:064x}", fake_result(i)) for i in range(3)])
        store.compact()
        (segment,) = store.segment_paths()
        before = segment.read_bytes()
        stats = store.compact()
        assert stats.duplicates_dropped == 0
        (segment,) = store.segment_paths()
        assert segment.read_bytes() == before

    def test_malformed_segment_raises_store_error(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result())])
        (segment,) = store.segment_paths()
        segment.write_text("{ not json")
        with pytest.raises(StoreError, match="unreadable segment"):
            ColumnarStore(tmp_path / "store").refresh()

    def test_future_manifest_schema_refuses_loudly(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result())])
        manifest = json.loads(store.manifest_path.read_text())
        manifest["schema"] = 99
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest schema"):
            ColumnarStore(tmp_path / "store").refresh()


class TestBackendDispatch:
    def test_default_is_json_backend(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert type(cache) is ResultCache

    def test_backend_argument_selects_columnar(self, tmp_path):
        cache = ResultCache(tmp_path, backend="columnar")
        assert isinstance(cache, ColumnarResultCache)
        assert cache.root == tmp_path

    def test_env_var_selects_columnar(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "columnar")
        assert isinstance(ResultCache(tmp_path), ColumnarResultCache)
        # An explicit argument still beats the environment.
        assert type(ResultCache(tmp_path, backend="json")) is ResultCache

    def test_unknown_backend_is_an_error(self, monkeypatch):
        with pytest.raises(ValueError, match="bogus"):
            resolve_store_backend("bogus")
        monkeypatch.setenv("REPRO_STORE", "bogus")
        with pytest.raises(ValueError, match="REPRO_STORE"):
            ResultCache()

    def test_columnar_cache_has_no_per_point_path(self, tmp_path):
        cache = ResultCache(tmp_path, backend="columnar")
        with pytest.raises(NotImplementedError):
            cache.path_for(tiny_point())

    def test_executor_round_trip_on_columnar_backend(self, tmp_path):
        """Simulate through the columnar cache; rerun serves purely from it."""
        cache = ResultCache(tmp_path / "store", backend="columnar")
        points = [
            tiny_point(topology=Topology.MESH),
            tiny_point(topology=Topology.NOC_OUT),
        ]
        executor = SweepExecutor(jobs=1, cache=cache)
        first = executor.run(points)
        assert executor.last_stats.simulations_run == 2

        fresh = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "store", backend="columnar")
        )
        second = fresh.run(points)
        assert fresh.last_stats.simulations_run == 0
        assert fresh.last_stats.cache_hits == 2
        assert second == first


class TestMigrate:
    def test_import_json_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [
            tiny_point(topology=Topology.MESH),
            tiny_point(topology=Topology.NOC_OUT),
        ]
        executor = SweepExecutor(jobs=1, cache=cache)
        results = executor.run(points)

        store = ColumnarStore(tmp_path / "store")
        stats = migrate.migrate_cache(cache.root, store)
        assert stats.imported == 2
        assert stats.skipped_invalid == 0
        assert len(store.segment_paths()) == 1  # compacted
        for point, result in zip(points, results):
            assert store.get(point.content_hash()) == result

    def test_import_skips_invalid_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = tiny_point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        (tmp_path / "cache" / ("a" * 64 + ".json")).write_text("{ truncated")
        (tmp_path / "cache" / ("b" * 64 + ".json")).write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION + 1, "result": {}})
        )
        (tmp_path / "cache" / "README.txt").write_text("not a result")

        store = ColumnarStore(tmp_path / "store")
        stats = migrate.migrate_cache(cache.root, store)
        assert stats.imported == 1
        assert stats.skipped_invalid == 2
        assert stats.ignored_files == 1
        assert len(store) == 1

    def test_reimport_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run([tiny_point()])
        store = ColumnarStore(tmp_path / "store")
        migrate.migrate_cache(cache.root, store)
        stats = migrate.migrate_cache(cache.root, store)
        assert stats.imported == 0
        assert stats.already_stored == 1

    def test_migrated_store_reproduces_report_byte_identically(self, tmp_path):
        """JSON-backend report -> migrate -> columnar report: same bytes, 0 sims."""
        from repro.reporting.cli import CountingExecutor, generate

        kwargs = dict(
            figures=["fig1"],
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
            core_counts=(2, 4),
        )
        json_cache = ResultCache(tmp_path / "cache")
        baseline = generate(
            out_dir=str(tmp_path / "report-json"),
            executor=CountingExecutor(jobs=1, cache=json_cache),
            **kwargs,
        )
        assert baseline["stats"].simulations_run > 0

        store = ColumnarStore(tmp_path / "store")
        migrate.migrate_cache(json_cache.root, store)

        replay = generate(
            out_dir=str(tmp_path / "report-columnar"),
            executor=CountingExecutor(
                jobs=1, cache=ResultCache(tmp_path / "store", backend="columnar")
            ),
            **kwargs,
        )
        assert replay["stats"].simulations_run == 0
        assert replay["stats"].cache_misses == 0
        assert replay["text"] == baseline["text"]

    def test_sharded_json_caches_combine_into_one_store(self, tmp_path):
        """Shard -> one JSON cache per shard -> migrate both -> compact.

        The combined store must serve the unsharded sweep without a single
        simulation: every point lands in exactly one shard, and importing
        loses none of them.
        """
        spec = ONE_WORKLOAD_SPEC
        for index in range(2):
            executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / f"s{index}"))
            run_sweep(spec.shard(index, 2), executor=executor)

        store = ColumnarStore(tmp_path / "store")
        imported = sum(
            migrate.migrate_cache(tmp_path / f"s{index}", store, compact=False).imported
            for index in range(2)
        )
        assert imported == len(spec.expand())
        store.compact()
        assert len(store.segment_paths()) == 1

        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "store", backend="columnar")
        )
        run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == 0


class TestLeaseQueue:
    def test_claim_is_exclusive(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        assert queue.try_claim("0" * 64, "w0")
        assert not queue.try_claim("0" * 64, "w1")
        assert queue.held() == ["0" * 64]

    def test_release_allows_reclaim(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        assert queue.try_claim("0" * 64, "w0")
        queue.release("0" * 64)
        assert queue.held() == []
        assert queue.try_claim("0" * 64, "w1")

    def test_expired_lease_is_stolen(self, tmp_path):
        crashed = LeaseQueue(tmp_path, ttl=0.05)
        assert crashed.try_claim("0" * 64, "crashed")
        time.sleep(0.1)
        # The "crashed" worker never released; a live worker takes over.
        assert LeaseQueue(tmp_path, ttl=0.05).try_claim("0" * 64, "w1")

    def test_live_lease_is_not_stolen(self, tmp_path):
        queue = LeaseQueue(tmp_path, ttl=3600)
        assert queue.try_claim("0" * 64, "w0")
        assert not LeaseQueue(tmp_path, ttl=3600).try_claim("0" * 64, "w1")

    def test_torn_lease_file_expires_by_mtime(self, tmp_path):
        import os

        queue = LeaseQueue(tmp_path, ttl=0.05)
        queue.root.mkdir(parents=True, exist_ok=True)
        path = queue.path_for("0" * 64)
        path.write_text("{ torn write")  # crashed mid-json.dump
        past = time.time() - 10
        os.utime(path, (past, past))
        assert queue.try_claim("0" * 64, "w1")


class TestFarm:
    def test_concurrent_workers_never_double_simulate(self, tmp_path):
        """Two racing workers: disjoint simulated sets whose union is the spec."""
        spec = tiny_spec()
        all_hashes = {sp.content_hash() for sp in spec.expand()}

        def execute(point):
            time.sleep(0.01)  # widen the race window
            return fake_result()

        stats = {}

        def work(worker_id):
            store = ColumnarStore(tmp_path / "store")  # private instance, shared dir
            stats[worker_id] = run_worker(
                spec, store, worker_id=worker_id, flush=1, execute=execute
            )

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("w0", "w1")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        simulated_a = set(stats["w0"].simulated_hashes)
        simulated_b = set(stats["w1"].simulated_hashes)
        assert simulated_a.isdisjoint(simulated_b)
        assert simulated_a | simulated_b == all_hashes
        assert set(ColumnarStore(tmp_path / "store").hashes()) == all_hashes
        assert LeaseQueue(tmp_path / "store").held() == []

    def test_crashed_worker_lease_is_reclaimed(self, tmp_path):
        """Leases from a dead worker expire; a live worker finishes the spec."""
        spec = tiny_spec()
        sweep_points = spec.expand()
        crashed = LeaseQueue(tmp_path / "store", ttl=0.05)
        for sweep_point in sweep_points[:2]:  # crashed mid-flight, never released
            assert crashed.try_claim(sweep_point.content_hash(), "crashed")
        time.sleep(0.1)

        store = ColumnarStore(tmp_path / "store")
        stats = run_worker(
            spec, store, worker_id="w1", ttl=0.05,
            execute=lambda point: fake_result(),
        )
        assert stats.simulated == len(sweep_points)
        assert len(store) == len(sweep_points)

    def test_worker_skips_already_stored_points(self, tmp_path):
        spec = tiny_spec()
        store = ColumnarStore(tmp_path / "store")
        run_worker(spec, store, worker_id="w0", execute=lambda point: fake_result())
        stats = run_worker(
            spec, store, worker_id="w1", execute=lambda point: fake_result()
        )
        assert stats.simulated == 0
        assert stats.already_stored == spec.size()

    def test_farm_fill_compacts_to_serial_bytes(self, tmp_path):
        """Compacted farm store == compacted serial store, byte for byte."""

        def execute(point):
            return fake_result(point.config.num_cores)

        spec = tiny_spec()
        farm_store = ColumnarStore(tmp_path / "farm")
        for worker_id in ("w0", "w1"):  # interleaved flushes (flush=1)
            run_worker(spec, farm_store, worker_id=worker_id, flush=1, execute=execute)
        farm_store.compact()

        serial_store = ColumnarStore(tmp_path / "serial")
        run_worker(spec, serial_store, worker_id="serial", execute=execute)
        serial_store.compact()

        (farm_segment,) = farm_store.segment_paths()
        (serial_segment,) = serial_store.segment_paths()
        assert farm_segment.read_bytes() == serial_segment.read_bytes()

    def test_cli_spawns_workers_and_compacts(self, tmp_path):
        """End-to-end through main(): real simulations at tiny settings."""
        spec = tiny_spec(workload=("Web Search",), topology=("mesh",))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        summary_path = tmp_path / "stats.json"
        status = farm.main(
            [
                "--store", str(tmp_path / "store"),
                "--spec", str(spec_path),
                "--worker-id", "w0",
                "--compact",
                "--summary", str(summary_path),
            ]
        )
        assert status == 0
        summary = json.loads(summary_path.read_text())
        assert summary["simulated"] == 1
        store = ColumnarStore(tmp_path / "store")
        assert len(store) == 1
        assert len(store.segment_paths()) == 1


class TestResultSetFromStore:
    def fill(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "store", backend="columnar")
        executor = SweepExecutor(jobs=1, cache=cache)
        eager = run_sweep(spec, executor=executor)
        return spec, cache.store_backend, eager

    def test_zero_copy_equals_eager_records(self, tmp_path):
        spec, store, eager = self.fill(tmp_path)
        sweep_points = spec.expand()
        table = store.load_table([sp.content_hash() for sp in sweep_points])
        lazy = ResultSet.from_store_table(sweep_points, table, spec=spec)
        assert len(lazy) == len(eager)
        for lazy_record, eager_record in zip(lazy, eager):
            assert lazy_record.coords == eager_record.coords
            assert lazy_record.point_hash == eager_record.point_hash
            for name in METRIC_NAMES:
                assert lazy_record.metrics[name] == eager_record.metrics[name]

    def test_pivot_matches_eager_path(self, tmp_path):
        spec, store, eager = self.fill(tmp_path)
        sweep_points = spec.expand()
        table = store.load_table([sp.content_hash() for sp in sweep_points])
        lazy = ResultSet.from_store_table(sweep_points, table, spec=spec)
        assert lazy.pivot("workload", "topology") == eager.pivot(
            "workload", "topology"
        )

    def test_metrics_reject_unknown_names(self, tmp_path):
        spec, store, _ = self.fill(tmp_path)
        sweep_points = spec.expand()
        table = store.load_table([sp.content_hash() for sp in sweep_points])
        record = ResultSet.from_store_table(sweep_points, table)[0]
        with pytest.raises(KeyError):
            record.metrics["not_a_metric"]
        assert set(record.metrics) == set(METRIC_NAMES)

    def test_alignment_mismatch_is_an_error(self, tmp_path):
        spec, store, _ = self.fill(tmp_path)
        sweep_points = spec.expand()
        table = store.load_table([sp.content_hash() for sp in sweep_points])
        with pytest.raises(ValueError):
            ResultSet.from_store_table(sweep_points[:-1], table)
        reversed_table = store.load_table(
            [sp.content_hash() for sp in reversed(sweep_points)]
        )
        with pytest.raises(ValueError):
            ResultSet.from_store_table(sweep_points, reversed_table)

    def test_iter_values_streams_selected_metric(self, tmp_path):
        spec, store, eager = self.fill(tmp_path)
        sweep_points = spec.expand()
        table = store.load_table([sp.content_hash() for sp in sweep_points])
        lazy = ResultSet.from_store_table(sweep_points, table, spec=spec)
        streamed = list(lazy.iter_values("throughput_ipc", topology="mesh"))
        assert len(streamed) == 2
        for coords, value in streamed:
            assert coords["topology"] == "mesh"
            assert value == eager.value(
                "throughput_ipc",
                workload=coords["workload"],
                topology="mesh",
            )


class TestQueryCLI:
    SCALE = "0.02"

    def fill_fig1(self, tmp_path):
        """Farm-fill the fig1 sweep with synthetic results (no real sims)."""
        spec = specs.figure_spec("fig1", RunSettings().scaled(float(self.SCALE)))
        store = ColumnarStore(tmp_path / "store")
        run_worker(
            spec,
            store,
            worker_id="w0",
            execute=lambda point: fake_result(point.config.num_cores),
        )
        return store

    def test_stats_reports_rows_and_segments(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        assert query.main(["--store", str(store.root), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == len(store)
        assert payload["segments"] == len(store.segment_paths())

    def test_figure_served_from_warm_store(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        status = query.main(
            ["--store", str(store.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "0 simulations" in out
        assert "Figure 1" in out

    def test_pivot_served_from_warm_store(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        status = query.main(
            [
                "--store", str(store.root), "--scale", self.SCALE,
                "pivot", "fig1",
                "--index", "num_cores", "--columns", "topology",
                "--metric", "per_core_ipc",
                "--where", "workload=Data Serving",
            ]
        )
        assert status == 0
        table = json.loads(capsys.readouterr().out)
        assert "mesh" in next(iter(table.values()))

    def test_cold_store_is_exit_code_3_not_a_simulation(self, tmp_path, capsys):
        store = ColumnarStore(tmp_path / "empty")
        status = query.main(
            ["--store", str(store.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 3
        assert "cold store" in capsys.readouterr().err
        assert len(store) == 0  # nothing was simulated to paper over the miss

    def test_unknown_names_are_exit_code_2(self, tmp_path, capsys):
        store = ColumnarStore(tmp_path / "empty")
        assert query.main(["--store", str(store.root), "figure", "nope"]) == 2
        status = query.main(
            [
                "--store", str(store.root), "pivot", "nope",
                "--index", "a", "--columns", "b",
            ]
        )
        assert status == 2


class TestSpecRegistry:
    def test_every_reportable_figure_is_registered(self):
        from repro.reporting.figures import report_names

        missing = [
            name
            for name in report_names()
            if name != "fig8" and name not in specs.spec_names()
        ]
        assert missing == []

    def test_power_reuses_fig7_sweep(self):
        settings = TINY_SETTINGS
        power = {sp.content_hash() for sp in specs.figure_spec("power", settings).expand()}
        fig7 = {sp.content_hash() for sp in specs.figure_spec("fig7", settings).expand()}
        assert power == fig7

    def test_report_points_deduplicates(self):
        points = specs.report_points(TINY_SETTINGS)
        hashes = [sp.content_hash() for sp in points]
        assert len(hashes) == len(set(hashes))
        assert len(hashes) > 0

    def test_unknown_spec_name_lists_options(self):
        with pytest.raises(KeyError, match="fig1"):
            specs.figure_spec("nope")
