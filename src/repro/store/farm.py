"""Lease-based sweep farm: N workers fill one result cache concurrently.

Every worker sees the *whole* spec, claims individual uncached points
through an on-disk **lease queue**, and stores each finished result in
the shared JSON cache directory (:class:`ResultCache`) the moment it
lands.  Add workers at any time; kill them at any time — an expired lease
from a crashed worker is re-claimed by whoever scans it next.

Lease lifecycle (all under ``<cache dir>/leases/``):

1. **claim** — ``O_CREAT | O_EXCL`` of ``<hash>.lease`` (atomic on POSIX
   and NFS); the file records the worker id and expiry deadline.
2. **hold** — the claimant simulates the point.  Leases are only released
   *after* the result is visible in the cache, so no other worker can
   observe "no lease, no result" for a point that is actually done.
3. **release** — unlink once the result's ``<hash>.json`` is stored
   (``ResultCache.store`` writes it atomically: temp file + ``os.replace``).
4. **expiry** — a lease whose deadline passed is stolen by atomically
   renaming it to a unique tombstone (``os.rename`` succeeds for exactly
   one stealer) and re-claimed from step 1.

Double simulation is impossible while leases are honoured; the only race
remaining (a worker stalls past its TTL and its lease is stolen while it
still runs) wastes one simulation but stays correct, because results are
deterministic: both writers store the same bytes under the same name.

Usage::

    # two terminals / machines sharing one cache directory
    python -m repro.store.farm --figure fig1 --store results-cache
    python -m repro.store.farm --figure fig1 --store results-cache

    # or: one command that forks N local workers
    python -m repro.store.farm --figure fig1 --store results-cache --workers 4

Environment: ``REPRO_FARM_LEASE_TTL`` (seconds, default 300) — see the
canonical table in ``docs/experiments.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.experiments.engine import ResultCache, execute_point
from repro.scenarios.spec import SweepSpec

#: Lease time-to-live environment variable (seconds).
LEASE_TTL_ENV_VAR = "REPRO_FARM_LEASE_TTL"

DEFAULT_LEASE_TTL = 300.0

_LEASE_DIR = "leases"


def default_lease_ttl() -> float:
    env = os.environ.get(LEASE_TTL_ENV_VAR)
    if not env:
        return DEFAULT_LEASE_TTL
    try:
        ttl = float(env)
    except ValueError as exc:
        raise ValueError(f"{LEASE_TTL_ENV_VAR} must be a number, got {env!r}") from exc
    if ttl <= 0:
        raise ValueError(f"{LEASE_TTL_ENV_VAR} must be positive, got {env!r}")
    return ttl


class LeaseQueue:
    """Crash-safe point leases as files under ``<root>/leases/``.

    One lease file per in-flight point, named by the point's content hash.
    All transitions are single atomic filesystem operations, so any number
    of workers (processes or machines on a shared filesystem) can race
    safely.
    """

    def __init__(self, root: os.PathLike, ttl: Optional[float] = None) -> None:
        self.root = Path(root) / _LEASE_DIR
        self.ttl = ttl if ttl is not None else default_lease_ttl()

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.lease"

    def try_claim(self, digest: str, worker_id: str) -> bool:
        """Atomically claim ``digest``; ``False`` if someone else holds it.

        A lease whose deadline has passed is stolen first: exactly one
        stealer wins the tombstone rename, then re-claims through the same
        exclusive create every fresh claim uses.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        for attempt in range(2):  # fresh claim, then once more after a steal
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if attempt or not self._steal_if_expired(path):
                    return False
                continue
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    {
                        "worker": worker_id,
                        "acquired": time.time(),
                        "deadline": time.time() + self.ttl,
                    },
                    handle,
                )
            return True
        return False

    def _steal_if_expired(self, path: Path) -> bool:
        """Tombstone an expired lease; ``True`` if this process won the steal."""
        try:
            payload = json.loads(path.read_text())
            deadline = float(payload["deadline"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable/torn lease (crashed mid-write): treat as expired,
            # but only if it is old enough that the writer is clearly gone.
            try:
                deadline = path.stat().st_mtime + self.ttl
            except OSError:
                return False  # vanished: owner released it; caller re-claims
        if time.time() < deadline:
            return False
        tombstone = path.with_name(f"{path.name}.stale-{uuid.uuid4().hex}")
        try:
            os.rename(path, tombstone)  # atomic: exactly one stealer succeeds
        except OSError:
            return False
        try:
            tombstone.unlink()
        except OSError:
            pass
        return True

    def release(self, digest: str) -> None:
        try:
            self.path_for(digest).unlink()
        except OSError:
            pass

    def held(self) -> List[str]:
        """Digests with a live (non-tombstoned) lease file."""
        try:
            return sorted(p.stem for p in self.root.glob("*.lease"))
        except OSError:
            return []


@dataclass
class WorkerStats:
    """What one :func:`run_worker` call did."""

    worker_id: str
    points_total: int = 0
    already_stored: int = 0
    lease_lost: int = 0
    simulated: int = 0
    simulated_hashes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        return (
            f"worker {self.worker_id}: {self.simulated}/{self.points_total} "
            f"simulated ({self.already_stored} already stored, "
            f"{self.lease_lost} leased elsewhere)"
        )


def run_worker(
    spec: SweepSpec,
    cache: ResultCache,
    worker_id: Optional[str] = None,
    ttl: Optional[float] = None,
    execute: Optional[Callable] = None,
) -> WorkerStats:
    """Claim, simulate and store ``spec``'s uncached points until drained.

    ``execute`` overrides the simulator call (tests inject fakes); the
    default is :func:`repro.experiments.engine.execute_point`, profiling
    into the cache directory under ``REPRO_PROFILE``.  Each lease is
    released only after its result is stored (crashing first just lets
    the lease expire and the point be redone).
    """
    execute = execute or functools.partial(execute_point, profile_dir=cache.root)
    worker_id = worker_id or f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    queue = LeaseQueue(cache.root, ttl=ttl)
    stats = WorkerStats(worker_id=worker_id)

    sweep_points = spec.expand()
    stats.points_total = len(sweep_points)
    for sweep_point in sweep_points:
        point = sweep_point.point
        if cache.load(point) is not None:
            stats.already_stored += 1
            continue
        digest = sweep_point.content_hash()
        if not queue.try_claim(digest, worker_id):
            stats.lease_lost += 1
            continue
        if cache.load(point) is not None:
            # Finished by a worker whose release beat our claim to the disk.
            queue.release(digest)
            stats.already_stored += 1
            continue
        result = execute(point)
        cache.store(point, result)
        queue.release(digest)
        stats.simulated += 1
        stats.simulated_hashes.append(digest)
    return stats


# --------------------------------------------------------------------- #
def _resolve_spec(args: argparse.Namespace) -> SweepSpec:
    if args.spec and args.figure:
        raise ValueError("pass either --spec or --figure, not both")
    if args.spec:
        return SweepSpec.from_json(Path(args.spec).read_text())
    if args.figure:
        from repro.store.specs import figure_spec

        return figure_spec(args.figure)
    raise ValueError("one of --spec or --figure is required")


def _spawn_workers(argv_base: List[str], count: int) -> int:
    """Fork ``count`` single-worker child processes and await them all."""
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.store.farm", *argv_base,
             "--worker-id", f"w{index}"],
        )
        for index in range(count)
    ]
    status = 0
    for child in children:
        status = max(status, child.wait())
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.farm",
        description="Fill a result cache directory by leasing uncached sweep points.",
    )
    parser.add_argument(
        "--store", required=True, help="result cache directory (shared by all workers)"
    )
    parser.add_argument("--spec", help="sweep spec JSON file (SweepSpec.to_json)")
    parser.add_argument(
        "--figure",
        help="registered sweep name instead of --spec (see repro.store.specs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fork N local worker processes (default: run one worker inline)",
    )
    parser.add_argument("--worker-id", default=None, help="label for this worker")
    parser.add_argument(
        "--ttl",
        type=float,
        default=None,
        help=f"lease time-to-live in seconds (default: {LEASE_TTL_ENV_VAR} or "
        f"{DEFAULT_LEASE_TTL:g})",
    )
    parser.add_argument(
        "--summary",
        default=None,
        help="write this worker's stats as JSON to the given path",
    )
    args = parser.parse_args(argv)

    try:
        spec = _resolve_spec(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workers is not None:
        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        base = ["--store", args.store]
        base += ["--spec", args.spec] if args.spec else ["--figure", args.figure]
        if args.ttl is not None:
            base += ["--ttl", str(args.ttl)]
        return _spawn_workers(base, args.workers)

    stats = run_worker(
        spec, ResultCache(args.store), worker_id=args.worker_id, ttl=args.ttl
    )
    print(stats.summary())
    if args.summary:
        Path(args.summary).write_text(json.dumps(stats.to_dict(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
