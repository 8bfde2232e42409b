"""Tests for the lease farm and the query path on the JSON cache directory.

Covers the lease protocol (no double simulation, crash recovery), farm
fills that match a serial fill byte for byte, shard caches combined by
copying files, the ``backend`` keyword left on :class:`ResultCache`, and
the never-simulates query CLI.
"""

import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.chip.chip import SimulationResults
from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.harness import RunSettings
from repro.scenarios import METRIC_NAMES, SweepSpec, run_sweep
from repro.store import farm, query, specs
from repro.store.farm import LeaseQueue, run_worker

from tests._fixtures import TINY_SETTINGS
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


def entries(root) -> dict:
    """``{file name: bytes}`` of every cache entry under ``root``."""
    return {path.name: path.read_bytes() for path in sorted(root.glob("*.json"))}


class TestBackendDispatch:
    """``backend`` survives only as ``"json"``, the one store there is."""

    def test_default_is_json_backend(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert type(cache) is ResultCache
        assert type(ResultCache(tmp_path, backend="json")) is ResultCache

    def test_unknown_backend_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="columnar"):
            ResultCache(tmp_path, backend="columnar")
        with pytest.raises(ValueError, match="None"):
            ResultCache(tmp_path, backend=None)


class TestShardedCaches:
    def test_sharded_json_caches_combine_into_one_store(self, tmp_path):
        """Shard -> one JSON cache per shard -> copy both into one directory.

        The combined directory must serve the unsharded sweep without a
        single simulation: every point lands in exactly one shard, and the
        file names (content hashes) never collide.
        """
        spec = ONE_WORKLOAD_SPEC
        merged = tmp_path / "merged"
        merged.mkdir()
        for index in range(2):
            shard_dir = tmp_path / f"s{index}"
            executor = SweepExecutor(jobs=1, cache=ResultCache(shard_dir))
            run_sweep(spec.shard(index, 2), executor=executor)
            for path in shard_dir.glob("*.json"):
                shutil.copy2(path, merged / path.name)
        assert len(entries(merged)) == len(spec.expand())

        executor = SweepExecutor(jobs=1, cache=ResultCache(merged))
        run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == 0
        assert executor.last_stats.cache_hits == len(spec.expand())


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

    def test_unparsable_ttl_env_names_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_LEASE_TTL", "abc")
        with pytest.raises(ValueError, match="REPRO_FARM_LEASE_TTL.*'abc'"):
            farm.default_lease_ttl()
        with pytest.raises(ValueError, match="REPRO_FARM_LEASE_TTL"):
            LeaseQueue(tmp_path)
        monkeypatch.setenv("REPRO_FARM_LEASE_TTL", "-1")
        with pytest.raises(ValueError, match="REPRO_FARM_LEASE_TTL"):
            farm.default_lease_ttl()


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
            cache = ResultCache(tmp_path / "store")  # private instance, shared dir
            stats[worker_id] = run_worker(
                spec, cache, worker_id=worker_id, execute=execute
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
        assert set(entries(tmp_path / "store")) == {f"{h}.json" for h in all_hashes}
        assert LeaseQueue(tmp_path / "store").held() == []

    def test_crashed_worker_lease_is_reclaimed(self, tmp_path):
        """Leases from a dead worker expire; a live worker finishes the spec."""
        spec = tiny_spec()
        sweep_points = spec.expand()
        crashed = LeaseQueue(tmp_path / "store", ttl=0.05)
        for sweep_point in sweep_points[:2]:  # crashed mid-flight, never released
            assert crashed.try_claim(sweep_point.content_hash(), "crashed")
        time.sleep(0.1)

        cache = ResultCache(tmp_path / "store")
        stats = run_worker(
            spec, cache, worker_id="w1", ttl=0.05,
            execute=lambda point: fake_result(),
        )
        assert stats.simulated == len(sweep_points)
        assert len(entries(cache.root)) == len(sweep_points)
        assert LeaseQueue(cache.root).held() == []

    def test_worker_skips_already_stored_points(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "store")
        run_worker(spec, cache, worker_id="w0", execute=lambda point: fake_result())
        stats = run_worker(
            spec, cache, worker_id="w1", execute=lambda point: fake_result()
        )
        assert stats.simulated == 0
        assert stats.already_stored == spec.size()

    def test_farm_fill_matches_serial_bytes(self, tmp_path):
        """Two racing farm workers leave the same files as a serial run_sweep."""
        spec = tiny_spec(workload=("Web Search",))

        def work(worker_id):
            run_worker(spec, ResultCache(tmp_path / "farm"), worker_id=worker_id)

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("w0", "w1")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        run_sweep(spec, executor=SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "serial")))
        serial = entries(tmp_path / "serial")
        assert len(serial) == spec.size()
        assert entries(tmp_path / "farm") == serial

    def test_worker_profiles_into_its_cache(self, tmp_path, monkeypatch):
        """REPRO_PROFILE output lands in the farm's cache, not REPRO_CACHE_DIR."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        spec = tiny_spec(workload=("Web Search",), topology=("mesh",))
        cache = ResultCache(tmp_path / "store")
        run_worker(spec, cache, worker_id="w0")
        digest = spec.expand()[0].content_hash()
        assert (cache.root / f"{digest}.pstats").exists()
        assert (cache.root / f"{digest}.profile.txt").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_cli_spawns_workers(self, tmp_path, monkeypatch):
        """End-to-end through main(): real simulations at tiny settings."""
        import os

        src = str(Path(__file__).resolve().parent.parent / "src")
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        spec = tiny_spec(workload=("Web Search",), topology=("mesh",))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        summary_path = tmp_path / "stats.json"
        status = farm.main(
            [
                "--store", str(tmp_path / "store"),
                "--spec", str(spec_path),
                "--worker-id", "w0",
                "--summary", str(summary_path),
            ]
        )
        assert status == 0
        summary = json.loads(summary_path.read_text())
        assert summary["simulated"] == 1
        assert len(entries(tmp_path / "store")) == 1

        status = farm.main(
            [
                "--store", str(tmp_path / "store"),
                "--spec", str(spec_path),
                "--workers", "2",
            ]
        )
        assert status == 0
        assert len(entries(tmp_path / "store")) == 1
        assert LeaseQueue(tmp_path / "store").held() == []


class TestResultSetFromStore:
    """A sweep served warm (never simulating) equals the simulated sweep."""

    def fill(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "store")
        eager = run_sweep(spec, executor=SweepExecutor(jobs=1, cache=cache))
        served = run_sweep(spec, executor=query.WarmStoreExecutor(cache))
        return served, eager

    def test_served_records_equal_eager_records(self, tmp_path):
        served, eager = self.fill(tmp_path)
        assert len(served) == len(eager)
        for served_record, eager_record in zip(served, eager):
            assert served_record.coords == eager_record.coords
            assert served_record.point_hash == eager_record.point_hash
            assert served_record.metrics == eager_record.metrics
            assert served_record.full_result() == eager_record.full_result()

    def test_pivot_matches_eager_path(self, tmp_path):
        served, eager = self.fill(tmp_path)
        assert served.pivot("workload", "topology") == eager.pivot(
            "workload", "topology"
        )

    def test_metrics_reject_unknown_names(self, tmp_path):
        served, _ = self.fill(tmp_path)
        record = served[0]
        with pytest.raises(KeyError):
            record.metric("not_a_metric")
        assert set(record.metrics) == set(METRIC_NAMES)

    def test_iter_values_streams_selected_metric(self, tmp_path):
        served, eager = self.fill(tmp_path)
        streamed = list(served.iter_values("throughput_ipc", topology="mesh"))
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

    def fill_fig1(self, tmp_path) -> ResultCache:
        """Farm-fill the fig1 sweep with synthetic results (no real sims)."""
        spec = specs.figure_spec("fig1", RunSettings().scaled(float(self.SCALE)))
        cache = ResultCache(tmp_path / "store")
        run_worker(
            spec,
            cache,
            worker_id="w0",
            execute=lambda point: fake_result(point.config.num_cores),
        )
        return cache

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        cache = self.fill_fig1(tmp_path)
        assert query.main(["--store", str(cache.root), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        files = list(cache.root.glob("*.json"))
        assert payload["entries"] == len(files) > 0
        assert payload["bytes"] == sum(path.stat().st_size for path in files)

    def test_figure_served_from_warm_store(self, tmp_path, capsys):
        cache = self.fill_fig1(tmp_path)
        status = query.main(
            ["--store", str(cache.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "0 simulations" in out
        assert "Figure 1" in out

    def test_pivot_served_from_warm_store(self, tmp_path, capsys):
        cache = self.fill_fig1(tmp_path)
        status = query.main(
            [
                "--store", str(cache.root), "--scale", self.SCALE,
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
        root = tmp_path / "empty"
        for command in (
            ["figure", "fig1"],
            ["pivot", "fig1", "--index", "num_cores", "--columns", "topology"],
        ):
            status = query.main(
                ["--store", str(root), "--scale", self.SCALE, *command]
            )
            assert status == 3
            assert "cold store" in capsys.readouterr().err
        assert not root.exists()  # nothing was simulated to paper over the miss

    def test_unknown_names_are_exit_code_2(self, tmp_path, capsys):
        root = str(tmp_path / "empty")
        assert query.main(["--store", root, "figure", "nope"]) == 2
        status = query.main(
            [
                "--store", root, "pivot", "nope",
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
