"""Parallel, cache-aware experiment engine.

The paper's headline results (Figures 1, 4, 7-9) are cross products of
workloads x topologies x core counts.  Every such point is an isolated,
deterministic discrete-event simulation, so the sweep is embarrassingly
parallel.  This module turns a sweep into explicit data:

* :class:`ExperimentPoint` — one (configuration, run settings) pair with a
  stable content hash that identifies the simulation it describes;
* :class:`ResultCache` — an on-disk JSON cache keyed by that hash, so
  re-running a figure script after touching only plotting code is free;
  it is the only result store (the lease farm and the query CLI of
  :mod:`repro.store` run on the same directory);
* :class:`SweepExecutor` — fans points out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (worker count from the
  ``REPRO_JOBS`` environment variable, default ``os.cpu_count()``), with a
  serial fallback for ``REPRO_JOBS=1`` that is bit-identical to the
  pre-engine behaviour.

Environment variables
---------------------
(The canonical ``REPRO_*`` reference table lives in
``docs/experiments.md``; this list covers the engine's own knobs.)

``REPRO_JOBS``
    Worker processes for a sweep.  ``1`` forces the serial path.
``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro``).
``REPRO_CACHE``
    Set to ``0``/``off``/``false``/``no`` to disable the result cache.
``REPRO_CACHE_MAX_MB``
    Size cap for the cache directory in megabytes (default: unlimited).
    When a store pushes the directory past the cap, least-recently-used
    result files are evicted; loading an entry refreshes its recency.
``REPRO_EXPERIMENT_SCALE``
    Consumed by :meth:`RunSettings.from_env` (see
    :mod:`repro.experiments.harness`); scaled settings hash differently, so
    cached results at different scales never collide.
``REPRO_PROFILE``
    Set to ``1`` to run every simulated point under :mod:`cProfile`.  Each
    point writes ``<hash>.pstats`` (raw, for ``snakeviz``/``pstats``) and
    ``<hash>.profile.txt`` (top-20 functions by cumulative time) into the
    executor's cache directory, next to the point's cache entry (or into
    ``REPRO_CACHE_DIR`` when the cache is disabled) — cache *hits* are
    never profiled, so delete the entry (or disable the cache) to profile
    an already-cached point.  See "Profiling a sweep" in
    ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chip.chip import Chip, SimulationResults
from repro.config.system import SystemConfig

#: Worker-count environment variable (default: ``os.cpu_count()``).
JOBS_ENV_VAR = "REPRO_JOBS"
#: Cache-directory environment variable (default: ``~/.cache/repro``).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: Cache kill-switch environment variable.
CACHE_ENV_VAR = "REPRO_CACHE"
#: Cache size-cap environment variable (megabytes; unset = unlimited).
CACHE_MAX_MB_ENV_VAR = "REPRO_CACHE_MAX_MB"
#: Per-point cProfile switch; profiles land next to the cache entries.
PROFILE_ENV_VAR = "REPRO_PROFILE"
#: How many rows of the cumulative-time table ``*.profile.txt`` keeps.
PROFILE_TOP_N = 20

#: Bump whenever the hash payload or the cache file layout changes; old
#: entries then read as misses instead of deserialisation errors.
CACHE_SCHEMA_VERSION = 2

#: Version of the *simulator model itself*, hashed into every cache key.
#:
#: The key derived from :meth:`ExperimentPoint.canonical_dict` covers the
#: full configuration and run settings but cannot see simulator source
#: changes, so without this constant a behavioural change to the kernel,
#: routers, caches or cores would silently serve stale results out of
#: ``REPRO_CACHE_DIR``.  Policy: **bump MODEL_VERSION in the same commit as
#: any change that alters simulation outputs** (timing, protocol, workload
#: generation, RNG draws...); purely cosmetic refactors keep it.  Bumping
#: invalidates every cached result, which is exactly the point.
#:
#: History:
#:   1 — seed model (poll-driven routers, stale-wake double ticks).
#:   2 — event-driven router/NI wake-ups; Component.wake stale-tick fix.
MODEL_VERSION = 2


# --------------------------------------------------------------------- #
# Canonical serialisation
# --------------------------------------------------------------------- #
def _canonical(value):
    """Reduce configs to JSON-stable primitives (enums by value, no tuples).

    Dataclass fields whose metadata carries ``canonical_omit_none`` are
    skipped while they hold ``None``: fields added after results were
    already cached (e.g. ``SystemConfig.workload_map``) use the flag so
    their default keeps every pre-existing cache key byte-identical,
    while any non-None value still hashes in.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not (
                field.metadata.get("canonical_omit_none")
                and getattr(value, field.name) is None
            )
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of a sweep: a complete chip config plus its run windows."""

    config: SystemConfig
    settings: "RunSettings"  # noqa: F821 — imported lazily to avoid a cycle

    def __post_init__(self) -> None:
        if self.config.workload is None:
            raise ValueError("ExperimentPoint requires a config with a workload")

    def canonical_dict(self) -> Dict[str, object]:
        """JSON-stable description of the point (what the hash covers)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "model": MODEL_VERSION,
            "config": _canonical(self.config),
            "settings": _canonical(self.settings),
        }

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical description.

        Unlike ``hash()``, this is identical across processes and Python
        invocations, so it can key an on-disk cache shared between runs.
        """
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (for logs and error messages)."""
        from repro.config.noc import topology_key

        workload = self.config.workload.name if self.config.workload else "?"
        return (
            f"{workload} / {topology_key(self.config.noc.topology)} / "
            f"{self.config.num_cores} cores"
        )


def profiling_enabled() -> bool:
    return os.environ.get(PROFILE_ENV_VAR, "").strip().lower() not in (
        "",
        "0",
        "off",
        "false",
        "no",
    )


def execute_point(
    point: ExperimentPoint, profile_dir: Optional[os.PathLike] = None
) -> SimulationResults:
    """Run one point's simulation (also the process-pool worker function).

    Under ``REPRO_PROFILE=1`` the run executes inside a :mod:`cProfile`
    profiler and drops ``<hash>.pstats`` plus a rendered top-N table
    (``<hash>.profile.txt``) into ``profile_dir`` — the caller's cache
    directory, so the profile sits next to the point's cache entry
    (default: :func:`default_cache_root`).  Profiling happens here — in
    the worker, around exactly one simulation — so a parallel sweep yields
    one clean profile per point instead of one blended profile per process.
    """
    if not profiling_enabled():
        return _simulate(point)

    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(_simulate, point)

    root = Path(profile_dir) if profile_dir is not None else default_cache_root()
    root.mkdir(parents=True, exist_ok=True)
    stem = point.content_hash()
    profiler.dump_stats(root / f"{stem}.pstats")
    table = io.StringIO()
    stats = pstats.Stats(profiler, stream=table).sort_stats("cumulative")
    table.write(f"# {point.describe()}\n# point hash: {stem}\n")
    stats.print_stats(PROFILE_TOP_N)
    (root / f"{stem}.profile.txt").write_text(table.getvalue())
    return result


def _simulate(point: ExperimentPoint) -> SimulationResults:
    return Chip(point.config).run_experiment(
        warmup_references=point.settings.warmup_references,
        detailed_warmup_cycles=point.settings.detailed_warmup_cycles,
        measure_cycles=point.settings.measure_cycles,
    )


# --------------------------------------------------------------------- #
# On-disk result cache
# --------------------------------------------------------------------- #
def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV_VAR, "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def default_cache_max_bytes() -> Optional[int]:
    """Size cap from ``REPRO_CACHE_MAX_MB`` in bytes (``None`` = unlimited)."""
    env = os.environ.get(CACHE_MAX_MB_ENV_VAR)
    if not env:
        return None
    try:
        max_mb = float(env)
    except ValueError as exc:
        raise ValueError(f"{CACHE_MAX_MB_ENV_VAR} must be a number, got {env!r}") from exc
    if max_mb <= 0:
        raise ValueError(f"{CACHE_MAX_MB_ENV_VAR} must be positive, got {env!r}")
    return int(max_mb * 1024 * 1024)


class CacheCorruptionWarning(UserWarning):
    """A cache entry was unreadable and has been quarantined."""


#: ``load`` warns at most once per process about quarantined entries (a
#: sweep over a damaged cache would otherwise emit hundreds of identical
#: warnings); the quarantine itself still happens for every bad entry.
_corruption_warned = False


class ResultCache:
    """Result store keyed by :meth:`ExperimentPoint.content_hash`.

    A directory of ``<hash>.json`` files, one per point, each written
    atomically (temp file + ``os.replace``), so any number of processes —
    parallel sweeps, farm workers (:mod:`repro.store.farm`) — can share
    it, and shard directories combine by copying their files together.

    Corrupted or schema-incompatible entries are quarantined (renamed to
    ``*.corrupt``) and treated as misses, so a crashed writer or a format
    change can never wedge a sweep — and the damaged bytes survive for
    diagnosis instead of being destroyed.

    The directory can be size-capped (``max_bytes`` argument or the
    ``REPRO_CACHE_MAX_MB`` environment variable): when a store pushes the
    total past the cap, the least-recently-used result files are evicted.
    A cache hit refreshes the entry's mtime, so recency tracking survives
    filesystems without reliable atimes.  Eviction tolerates concurrent
    writers: entries that vanish mid-scan (a sibling process evicted or
    rewrote them) are simply skipped.

    ``backend`` accepts only ``"json"`` (anything else is a ``ValueError``
    naming it).  It exists only until the next benchmark change: the
    benchmark harness (``perfbench/workloads.py``) still passes
    ``backend="json"`` and must keep running unchanged until then.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
        backend: str = "json",
    ) -> None:
        if backend != "json":
            raise ValueError(
                f"unknown result-store backend {backend!r}; the JSON cache "
                "directory is the only store"
            )
        self.root = Path(root) if root is not None else default_cache_root()
        self.max_bytes = max_bytes if max_bytes is not None else default_cache_max_bytes()
        # Running estimate of the directory size, so a capped sweep does not
        # re-stat the whole directory on every store (None = not yet scanned).
        self._approx_total_bytes: Optional[int] = None

    def path_for(self, point: ExperimentPoint) -> Path:
        return self.root / f"{point.content_hash()}.json"

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside (``*.corrupt``) and warn once.

        ``os.replace`` keeps this atomic; losing the race against a sibling
        process that evicted (or already quarantined) the entry is fine —
        either way the bad file no longer answers lookups.
        """
        global _corruption_warned
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        if not _corruption_warned:
            _corruption_warned = True
            warnings.warn(
                f"quarantined corrupt result-cache entry {path.name} "
                f"(kept as {path.name}.corrupt; further corrupt entries "
                "will be quarantined silently)",
                CacheCorruptionWarning,
                stacklevel=3,
            )

    def load(self, point: ExperimentPoint) -> Optional[SimulationResults]:
        """Return the cached result for ``point``, or ``None`` on a miss.

        A corrupt or truncated entry (crashed writer, disk trouble, schema
        drift) is quarantined and read as a miss, so the point is simply
        re-simulated instead of aborting a sweep halfway through.
        """
        path = self.path_for(point)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("cache schema mismatch")
            result = SimulationResults.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError, OSError):
            self._quarantine(path)
            return None
        try:
            os.utime(path)  # mark as recently used for the LRU size cap
        except OSError:
            pass
        return result

    def store(self, point: ExperimentPoint, result: SimulationResults) -> Path:
        """Atomically persist ``result`` under the point's hash."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(point)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "point": point.canonical_dict(),
            "result": result.to_dict(),
        }
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._enforce_size_cap(protect=path)
        return path

    def _enforce_size_cap(self, protect: Optional[Path] = None) -> None:
        """Evict least-recently-used entries until the cap is respected.

        ``protect`` (the entry just written) is never evicted, so a cap
        smaller than one result degrades to "keep only the newest" rather
        than a store that immediately forgets what it wrote.

        The directory is only re-scanned when the running size estimate
        crosses the cap (concurrent writers can make the estimate stale,
        but every enforcement starts from a fresh scan), so a sweep's cost
        stays O(points) rather than O(points x cached entries).

        Several processes may share the directory (sharded sweeps, farm
        workers), so every filesystem step tolerates entries vanishing
        underneath it: a stat or unlink that loses the race against a
        sibling's eviction/rewrite skips that entry instead of raising.
        """
        if self.max_bytes is None:
            return
        if self._approx_total_bytes is not None and protect is not None:
            try:
                self._approx_total_bytes += protect.stat().st_size
            except OSError:
                self._approx_total_bytes = None
            if (
                self._approx_total_bytes is not None
                and self._approx_total_bytes <= self.max_bytes
            ):
                return

        entries = []
        total = 0
        try:
            paths = list(self.root.glob("*.json"))
        except OSError:  # the directory itself vanished mid-listing
            self._approx_total_bytes = None
            return
        for path in paths:
            try:
                stat = path.stat()
            except OSError:  # evicted or rewritten by a sibling process
                continue
            total += stat.st_size
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
        entries.sort()  # oldest mtime first; name breaks ties deterministically
        for _, _, size, path in entries:
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a sibling evicted it first; its bytes are gone too
            except OSError:
                continue  # still on disk (permissions...): keep it in the total
            total -= size
        self._approx_total_bytes = total


# --------------------------------------------------------------------- #
# Sweep execution
# --------------------------------------------------------------------- #
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from exc
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"job count must be >= 1, got {jobs}")
    return jobs


@dataclass
class SweepStats:
    """What one :meth:`SweepExecutor.run` call actually did."""

    cache_hits: int = 0
    cache_misses: int = 0
    simulations_run: int = 0


class SweepExecutor:
    """Runs a batch of :class:`ExperimentPoint`\\ s, caching and fanning out.

    ``jobs=1`` (or ``REPRO_JOBS=1``) executes points serially in-process,
    bit-identical to the pre-engine loops; higher counts dispatch uncached
    points to a process pool.  Per-point results are independent of the
    worker count because every simulation seeds its own
    :class:`~repro.sim.kernel.Simulator`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: Optional[bool] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if use_cache is None:
            use_cache = cache is not None or cache_enabled()
        self.cache: Optional[ResultCache] = (
            (cache if cache is not None else ResultCache()) if use_cache else None
        )
        self.last_stats = SweepStats()

    def run(self, points: Iterable[ExperimentPoint]) -> List[SimulationResults]:
        """Execute ``points`` and return their results in the same order."""
        points = list(points)
        results: List[Optional[SimulationResults]] = [None] * len(points)
        for index, result in self.run_iter(points):
            results[index] = result
        return results  # type: ignore[return-value]

    def run_iter(
        self, points: Iterable[ExperimentPoint]
    ) -> Iterator[Tuple[int, SimulationResults]]:
        """Yield ``(index, result)`` pairs as points complete.

        Cache hits are yielded first (instantly); the uncached remainder
        streams in as worker processes finish, each result stored to the
        cache the moment it lands.  Indices refer to positions in the input
        sequence; duplicate points share one simulation and yield once per
        index.  This is the engine-level primitive behind
        :func:`repro.scenarios.run.iter_results`.
        """
        points = list(points)
        stats = SweepStats()
        self.last_stats = stats

        # Identical points (same content hash) are simulated only once.
        groups: Dict[str, List[int]] = {}
        for index, point in enumerate(points):
            groups.setdefault(point.content_hash(), []).append(index)

        pending: List[ExperimentPoint] = []
        pending_indices: List[List[int]] = []
        for digest, indices in groups.items():
            point = points[indices[0]]
            cached = self.cache.load(point) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += len(indices)
                for index in indices:
                    yield index, cached
            else:
                stats.cache_misses += len(indices)
                pending.append(point)
                pending_indices.append(indices)

        if not pending:
            return
        profile_dir = self.cache.root if self.cache is not None else None
        # simulations_run counts *completed* simulations, so an abandoned
        # run_iter consumer leaves accurate stats behind.
        if self.jobs == 1 or len(pending) == 1:
            for point, indices in zip(pending, pending_indices):
                result = execute_point(point, profile_dir)
                stats.simulations_run += 1
                if self.cache is not None:
                    self.cache.store(point, result)
                for index in indices:
                    yield index, result
        else:
            workers = min(self.jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {
                pool.submit(execute_point, point, profile_dir): position
                for position, point in enumerate(pending)
            }
            yielded = set()
            consumed_fully = False
            try:
                for future in as_completed(futures):
                    position = futures[future]
                    result = future.result()
                    stats.simulations_run += 1
                    if self.cache is not None:
                        self.cache.store(pending[position], result)
                    yielded.add(position)
                    for index in pending_indices[position]:
                        yield index, result
                consumed_fully = True
            finally:
                # If the consumer abandoned the generator, harvest (and
                # cache) whatever already finished, cancel the queued rest,
                # and return without waiting on in-flight simulations.
                if not consumed_fully:
                    for future, position in futures.items():
                        if (
                            position not in yielded
                            and future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            stats.simulations_run += 1
                            if self.cache is not None:
                                self.cache.store(pending[position], future.result())
                pool.shutdown(wait=consumed_fully, cancel_futures=True)


def run_experiments(
    points: Sequence[ExperimentPoint],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[SimulationResults]:
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    return SweepExecutor(jobs=jobs, cache=cache).run(points)
