#!/usr/bin/env python3
"""CI check: a lease-based farm fill serves the figure query path warm.

Instead of fixed hash-range shards combined by hand, two concurrent farm
worker *processes* race over the whole Figure-1 spec through the on-disk
lease queue:

1. launch two ``python -m repro.store.farm`` workers against one shared
   store and wait for both to drain the spec;
2. require the lease protocol did its job: the workers' simulated sets
   are disjoint and their union covers every point exactly once;
3. compact the store and require a single canonical segment holding the
   full sweep;
4. serve the figure and a pivot through ``python -m repro.store.query``
   and require success — the query CLI cannot simulate by construction,
   so a warm answer proves zero re-simulations;
5. regenerate the figure's report section through the reporting layer
   against the same store (``--store``) and require zero simulations.

Honours ``REPRO_EXPERIMENT_SCALE`` / ``REPRO_JOBS``; CI runs it at scale
0.1.  Violations raise (explicitly, not via ``assert``, so ``python -O``
cannot strip the checks) and exit non-zero.

Usage::

    PYTHONPATH=src REPRO_EXPERIMENT_SCALE=0.1 python scripts/check_store_farm.py
    # keep the filled store (e.g. for a CI artifact):
    ... python scripts/check_store_farm.py --store-dir farm-store
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.fig1_scaling import figure1_spec  # noqa: E402
from repro.reporting.cli import CountingExecutor, generate  # noqa: E402
from repro.experiments.engine import ResultCache  # noqa: E402
from repro.store.columnar import ColumnarStore  # noqa: E402

WORKERS = 2
FIGURE = "fig1"


class CheckFailure(Exception):
    """A farm/store invariant was violated."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def run_farm_workers(store_dir: Path, summaries_dir: Path) -> list:
    """Launch the worker processes concurrently and return their stats."""
    procs = []
    for index in range(WORKERS):
        summary = summaries_dir / f"worker{index}.json"
        procs.append(
            (
                summary,
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.store.farm",
                        "--figure", FIGURE,
                        "--store", str(store_dir),
                        "--worker-id", f"w{index}",
                        "--flush", "2",
                        "--summary", str(summary),
                    ],
                ),
            )
        )
    stats = []
    for summary, proc in procs:
        check(proc.wait() == 0, f"farm worker exited with {proc.returncode}")
        stats.append(json.loads(summary.read_text()))
    return stats


def run_query(store_dir: Path, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.store.query", "--store", str(store_dir), *args],
        capture_output=True,
        text=True,
    )
    check(
        result.returncode == 0,
        f"query {' '.join(args)} exited with {result.returncode}: {result.stderr}",
    )
    return result.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store-dir",
        default=None,
        help="fill this store directory (kept afterwards) instead of a temp dir",
    )
    args = parser.parse_args()

    spec = figure1_spec()
    all_hashes = {sp.content_hash() for sp in spec.expand()}
    print(f"Figure 1 spec: {len(all_hashes)} points, {WORKERS} farm workers")

    with tempfile.TemporaryDirectory(prefix="repro-farm-check-") as tmp:
        tmp = Path(tmp)
        store_dir = Path(args.store_dir) if args.store_dir else tmp / "store"

        worker_stats = run_farm_workers(store_dir, tmp)
        simulated = []
        for stats in worker_stats:
            print(
                f"  worker {stats['worker_id']}: {stats['simulated']} simulated, "
                f"{stats['already_stored']} already stored, "
                f"{stats['lease_lost']} leased elsewhere"
            )
            simulated.append(set(stats["simulated_hashes"]))

        union = set().union(*simulated)
        overlap = set.intersection(*simulated)
        check(not overlap, f"{len(overlap)} point(s) were simulated by both workers")
        check(
            union == all_hashes,
            f"workers covered {len(union)} of {len(all_hashes)} points",
        )

        store = ColumnarStore(store_dir)
        compact_stats = store.compact()
        print(f"  compacted: {compact_stats.summary()}")
        check(
            len(store.segment_paths()) == 1,
            f"compaction left {len(store.segment_paths())} segments, expected 1",
        )
        check(
            set(store.hashes()) == all_hashes,
            "compacted store does not hold exactly the sweep's points",
        )

        figure_text = run_query(store_dir, "figure", FIGURE)
        check(
            "0 simulations" in figure_text,
            "query CLI did not confirm a purely warm serve",
        )
        pivot_text = run_query(
            store_dir,
            "pivot", FIGURE,
            "--index", "num_cores",
            "--columns", "topology",
            "--metric", "per_core_ipc",
        )
        check(bool(json.loads(pivot_text)), "pivot over the warm store is empty")
        print("  query CLI served figure + pivot from the warm store")

        outcome = generate(
            figures=[FIGURE],
            out_dir=str(tmp / "report"),
            executor=CountingExecutor(
                jobs=1, cache=ResultCache(store_dir, backend="columnar")
            ),
        )
        stats = outcome["stats"]
        print(
            f"  report regeneration: {stats.cache_hits} hits, "
            f"{stats.simulations_run} simulated"
        )
        check(
            stats.simulations_run == 0 and stats.cache_misses == 0,
            "report regeneration against the farm-filled store re-simulated "
            f"{stats.simulations_run} point(s) ({stats.cache_misses} misses)",
        )

    print("OK: 2-worker farm fill + compact serves the figure with zero re-simulations")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except CheckFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        raise SystemExit(1)
