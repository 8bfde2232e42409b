"""Tests for the parallel, cache-aware experiment engine."""

import json
import os
import pickle
import subprocess
import warnings
import shutil
import sys
from pathlib import Path

import pytest

from repro.chip.chip import SimulationResults
from repro.config import presets
from repro.config.noc import Topology
from repro.experiments import engine
from repro.experiments.engine import (
    CACHE_SCHEMA_VERSION,
    MODEL_VERSION,
    ExperimentPoint,
    ResultCache,
    SweepExecutor,
    resolve_jobs,
    run_experiments,
)
from repro.experiments.harness import RunSettings, point_for
from repro.scenarios import SweepSpec, run_sweep

from tests._fixtures import TINY_SETTINGS

REPO_ROOT = Path(__file__).resolve().parents[1]


def tiny_point(
    topology=Topology.MESH,
    workload_name="Web Search",
    num_cores=16,
    settings=TINY_SETTINGS,
    **kwargs,
) -> ExperimentPoint:
    return point_for(
        topology,
        presets.workload(workload_name),
        num_cores=num_cores,
        settings=settings,
        **kwargs,
    )


class TestExperimentPoint:
    def test_requires_workload(self):
        config = presets.baseline_system(Topology.MESH, num_cores=16)
        with pytest.raises(ValueError):
            ExperimentPoint(config=config, settings=TINY_SETTINGS)

    def test_hash_is_stable_for_equal_points(self):
        assert tiny_point().content_hash() == tiny_point().content_hash()

    def test_hash_payload_covers_model_version(self):
        """Simulator behaviour changes must invalidate cached results.

        The config/settings hash cannot see simulator source edits, so the
        canonical payload carries ``MODEL_VERSION``; bumping it (the policy
        is: in the same commit as any output-changing model edit) turns
        every stale cache entry into a miss.
        """
        payload = tiny_point().canonical_dict()
        assert payload["model"] == MODEL_VERSION
        assert payload["schema"] == CACHE_SCHEMA_VERSION

    def test_hash_changes_with_model_version(self, monkeypatch):
        before = tiny_point().content_hash()
        monkeypatch.setattr("repro.experiments.engine.MODEL_VERSION", MODEL_VERSION + 1)
        assert tiny_point().content_hash() != before

    def test_hash_changes_with_settings(self):
        longer = RunSettings(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=700
        )
        assert tiny_point().content_hash() != tiny_point(settings=longer).content_hash()

    def test_hash_changes_with_config(self):
        assert (
            tiny_point().content_hash()
            != tiny_point(topology=Topology.NOC_OUT).content_hash()
        )
        assert (
            tiny_point().content_hash()
            != tiny_point(noc_overrides={"mesh_link_latency": 2}).content_hash()
        )

    def test_hash_is_stable_across_processes(self):
        """SHA-256 over canonical JSON must not depend on the interpreter run."""
        code = (
            "from repro.config import presets\n"
            "from repro.config.noc import Topology\n"
            "from repro.experiments.harness import RunSettings, point_for\n"
            "settings = RunSettings(warmup_references=300, "
            "detailed_warmup_cycles=200, measure_cycles=600)\n"
            "point = point_for(Topology.MESH, presets.workload('Web Search'), "
            "num_cores=16, settings=settings)\n"
            "print(point.content_hash())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()
        assert output == tiny_point().content_hash()

    def test_point_is_picklable(self):
        point = tiny_point()
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.content_hash() == point.content_hash()

    def test_describe_mentions_workload_and_topology(self):
        assert "Web Search" in tiny_point().describe()
        assert "mesh" in tiny_point().describe()


class TestSimulationResultsSerialization:
    def test_json_round_trip(self):
        result = run_experiments([tiny_point()])[0]
        restored = SimulationResults.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        # JSON stringifies the int keys; from_dict must restore them.
        assert all(isinstance(core, int) for core in restored.per_core_instructions)

    def test_from_dict_ignores_unknown_keys(self):
        result = run_experiments([tiny_point()])[0]
        data = result.to_dict()
        data["some_future_field"] = 123
        assert SimulationResults.from_dict(data) == result


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        assert cache.load(point) is None

        executor = SweepExecutor(jobs=1, cache=cache)
        (result,) = executor.run([point])
        assert executor.last_stats.cache_misses == 1
        assert executor.last_stats.simulations_run == 1

        (again,) = executor.run([point])
        assert again == result
        assert executor.last_stats.cache_hits == 1
        assert executor.last_stats.simulations_run == 0

    def test_cache_invalidated_by_settings_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([tiny_point()])
        longer = RunSettings(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=700
        )
        executor.run([tiny_point(settings=longer)])
        assert executor.last_stats.cache_hits == 0
        assert executor.last_stats.simulations_run == 1

    def test_cache_invalidated_by_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([tiny_point()])
        executor.run([tiny_point(link_width_bits=64)])
        assert executor.last_stats.cache_hits == 0
        assert executor.last_stats.simulations_run == 1

    def test_corrupted_entry_is_discarded_and_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        executor = SweepExecutor(jobs=1, cache=cache)
        (result,) = executor.run([point])

        path = cache.path_for(point)
        path.write_text("{ this is not json")
        assert cache.load(point) is None
        assert not path.exists()  # corrupt entry deleted, not left to re-fail

        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

    @pytest.mark.parametrize(
        "payload",
        ["null", "[1, 2, 3]", '{"schema": 1, "result": [1, 2]}', '{"schema": 1}'],
    )
    def test_wrong_shaped_json_is_a_miss(self, tmp_path, payload):
        """Valid JSON of the wrong shape must read as a miss, not crash."""
        cache = ResultCache(tmp_path)
        point = tiny_point()
        path = cache.path_for(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
        assert cache.load(point) is None
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        path = cache.path_for(point)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load(point) is None

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert SweepExecutor(jobs=1).cache is None

    def test_truncated_entry_is_quarantined_with_one_warning(
        self, tmp_path, monkeypatch
    ):
        """A torn write reads as a miss, is kept as *.corrupt, warns once."""
        from repro.experiments import engine

        monkeypatch.setattr(engine, "_corruption_warned", False)
        cache = ResultCache(tmp_path)
        point = tiny_point()
        executor = SweepExecutor(jobs=1, cache=cache)
        (result,) = executor.run([point])

        path = cache.path_for(point)
        intact = path.read_text()
        path.write_text(intact[: len(intact) // 2])  # writer died mid-flush
        with pytest.warns(engine.CacheCorruptionWarning):
            assert cache.load(point) is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()  # damaged bytes survive for diagnosis

        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

        # Further corruption is quarantined silently: one warning per process.
        path.write_text("{ torn again")
        with warnings.catch_warnings():
            warnings.simplefilter("error", engine.CacheCorruptionWarning)
            assert cache.load(point) is None
        assert not path.exists()

    def test_quarantined_entries_never_answer_lookups_again(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import engine

        monkeypatch.setattr(engine, "_corruption_warned", True)
        cache = ResultCache(tmp_path)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        cache.path_for(point).write_text("not json at all")
        assert cache.load(point) is None
        assert cache.load(point) is None  # the .corrupt file is not re-read


class TestCacheEvictionRaces:
    """``REPRO_CACHE_MAX_MB`` eviction with concurrent writers in the mix."""

    def _fill(self, root, count):
        root.mkdir(parents=True, exist_ok=True)
        for index in range(count):
            (root / (f"{index:064x}" + ".json")).write_text("x" * 200)

    def test_eviction_tolerates_entry_vanishing_before_stat(
        self, tmp_path, monkeypatch
    ):
        """A sibling evicts an entry between the glob and our stat: skip it."""
        self._fill(tmp_path, 4)
        cache = ResultCache(tmp_path, max_bytes=1)
        point = tiny_point()

        real_stat = Path.stat
        raced = []

        def racing_stat(self, **kwargs):
            if self.name.startswith("0" * 10) and not raced:
                raced.append(self.name)
                os.remove(self)  # the sibling wins the race...
            return real_stat(self, **kwargs)  # ...so we see FileNotFoundError

        monkeypatch.setattr(Path, "stat", racing_stat)
        SweepExecutor(jobs=1, cache=cache).run([point])
        assert raced  # the race actually happened
        assert cache.path_for(point).exists()  # newest entry is protected
        assert list(tmp_path.glob("*.json")) == [cache.path_for(point)]

    def test_eviction_tolerates_entry_vanishing_before_unlink(
        self, tmp_path, monkeypatch
    ):
        """A sibling deletes an entry we chose to evict: its bytes still count
        as freed, so eviction stops at the cap instead of over-evicting."""
        self._fill(tmp_path, 4)
        cache = ResultCache(tmp_path, max_bytes=1)
        point = tiny_point()

        real_unlink = Path.unlink
        raced = []

        def racing_unlink(self, *args, **kwargs):
            if not raced and self.suffix == ".json":
                raced.append(self.name)
                real_unlink(self)
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        SweepExecutor(jobs=1, cache=cache).run([point])
        assert raced
        assert cache.path_for(point).exists()
        assert list(tmp_path.glob("*.json")) == [cache.path_for(point)]

    def test_eviction_survives_cache_directory_removal(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_bytes=1)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        shutil.rmtree(tmp_path / "cache")
        cache._enforce_size_cap()  # a bare rescan of a vanished dir: no crash


class TestSweepExecutor:
    def test_jobs_resolution(self, monkeypatch):
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            resolve_jobs()
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_duplicate_points_simulated_once(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first, second = executor.run([tiny_point(), tiny_point()])
        assert first == second
        assert executor.last_stats.simulations_run == 1

    def test_results_keep_point_order(self, tmp_path):
        points = [
            tiny_point(topology=Topology.MESH),
            tiny_point(topology=Topology.NOC_OUT),
            tiny_point(topology=Topology.IDEAL),
        ]
        results = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run(points)
        assert [r.topology for r in results] == ["mesh", "noc_out", "ideal"]

    def test_parallel_matches_serial(self, tmp_path):
        """Same seed, REPRO_JOBS=1 vs 4 workers: bit-identical results."""
        points = [
            tiny_point(topology=topology, workload_name=name)
            for name in ("Web Search", "Data Serving")
            for topology in (Topology.MESH, Topology.NOC_OUT)
        ]
        serial = SweepExecutor(jobs=1, use_cache=False).run(points)
        parallel = SweepExecutor(jobs=4, use_cache=False).run(points)
        assert serial == parallel

    def test_sweep_rejects_jobs_with_explicit_executor(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        spec = SweepSpec(
            axes={"workload": ("Web Search",), "topology": ("mesh",)},
            settings=TINY_SETTINGS,
            fixed={"num_cores": 16},
        )
        with pytest.raises(ValueError):
            run_sweep(spec, jobs=2, executor=executor)

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        """2 workloads x 3 topologies, rerun must run zero new simulations."""
        cache = ResultCache(tmp_path)
        spec = SweepSpec(
            axes={
                "workload": ("Web Search", "Data Serving"),
                "topology": ("mesh", "flattened_butterfly", "noc_out"),
            },
            settings=TINY_SETTINGS,
            fixed={"num_cores": 16},
        )
        points = spec.size()

        executor = SweepExecutor(jobs=4, cache=cache)
        first = run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == points

        executor = SweepExecutor(jobs=4, cache=cache)
        second = run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == 0
        assert executor.last_stats.cache_hits == points
        assert [r.result for r in second] == [r.result for r in first]


class TestPointProfiling:
    """REPRO_PROFILE=1: per-point cProfile output next to the cache entry."""

    def test_profile_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not engine.profiling_enabled()
        for off in ("0", "off", "false", "no", ""):
            monkeypatch.setenv("REPRO_PROFILE", off)
            assert not engine.profiling_enabled()

    def test_profiled_point_writes_pstats_and_table(self, tmp_path, monkeypatch):
        import pstats

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        point = tiny_point()
        result = engine.execute_point(point)
        assert result.total_instructions > 0

        stem = point.content_hash()
        raw = tmp_path / f"{stem}.pstats"
        table = tmp_path / f"{stem}.profile.txt"
        assert raw.exists() and table.exists()
        # The raw dump must load back as a pstats database with real samples.
        stats = pstats.Stats(str(raw))
        assert stats.total_calls > 0
        # The rendered table names the point and shows the top functions by
        # cumulative time (the chip run itself must be among them).
        text = table.read_text()
        assert stem in text
        assert "cumulative" in text
        assert "run_experiment" in text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_profiles_land_in_the_executor_cache(
        self, tmp_path, monkeypatch, jobs
    ):
        """Profiles follow the executor's cache, not REPRO_CACHE_DIR."""
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        cache = ResultCache(tmp_path / "cache")
        points = [tiny_point(topology=Topology.MESH), tiny_point(topology=Topology.NOC_OUT)]
        SweepExecutor(jobs=jobs, cache=cache).run(points)
        for point in points:
            stem = point.content_hash()
            for suffix in (".json", ".pstats", ".profile.txt"):
                assert (cache.root / f"{stem}{suffix}").exists()
        assert not elsewhere.exists()

    def test_profiles_do_not_confuse_the_cache(self, tmp_path, monkeypatch):
        """Profile droppings next to entries must not count as entries."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        cache = ResultCache(tmp_path)
        point = tiny_point()
        result = engine.execute_point(point)
        assert cache.load(point) is None  # profiling never populates the cache
        cache.store(point, result)
        loaded = cache.load(point)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
