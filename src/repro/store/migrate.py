"""One-shot importer: legacy JSON cache directory -> columnar store.

Reads every ``<sha256>.json`` entry of a :class:`ResultCache` directory,
validates it, and appends the results to a :class:`ColumnarStore` as
columnar segments (batched), compacting at the end.  Content hashes are
the row keys on both sides, so a migrated store serves exactly the points
the JSON directory did — ``python -m repro.reporting`` against the
migrated store (``REPRO_STORE=columnar REPRO_CACHE_DIR=<store>`` or
``--store``) performs zero simulations and regenerates the report
byte-identically.

This is also the merge step of the two-machine recipe: import each shard
cache into one store (collisions dedupe on compact).

Usage::

    python -m repro.store.migrate ~/.cache/repro results-store
    python -m repro.store.migrate shard-a-cache results-store   # repeatable
    python -m repro.store.migrate shard-b-cache results-store
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.store.columnar import ColumnarStore

#: Cache entries are ``<64 hex chars>.json``; anything else is not a result.
_HASH_HEX_LENGTH = 64

#: Rows appended per segment during import (the final compact folds them).
DEFAULT_BATCH = 256


@dataclass
class MigrateStats:
    """What one :func:`migrate_cache` call did."""

    imported: int = 0
    already_stored: int = 0
    skipped_invalid: int = 0
    ignored_files: int = 0

    def summary(self) -> str:
        return (
            f"imported {self.imported}, {self.already_stored} already in "
            f"store, skipped {self.skipped_invalid} invalid entr(y/ies), "
            f"ignored {self.ignored_files} non-result file(s)"
        )


def _is_result_file(path: Path) -> bool:
    stem = path.stem
    return (
        path.suffix == ".json"
        and len(stem) == _HASH_HEX_LENGTH
        and all(ch in "0123456789abcdef" for ch in stem)
    )


def migrate_cache(
    source,
    store: ColumnarStore,
    batch: int = DEFAULT_BATCH,
    compact: bool = True,
) -> MigrateStats:
    """Import every valid result of JSON cache dir ``source`` into ``store``.

    Entries already present (same content hash) are skipped — simulations
    are deterministic, so both copies are identical.  Invalid entries
    (wrong schema, unparseable, missing result) are counted and skipped,
    never imported half-read.
    """
    from repro.experiments.engine import CACHE_SCHEMA_VERSION

    source = Path(source)
    if not source.is_dir():
        raise FileNotFoundError(f"source cache directory {source} does not exist")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")

    stats = MigrateStats()
    rows = []
    for path in sorted(source.iterdir()):
        if not path.is_file() or not _is_result_file(path):
            stats.ignored_files += 1
            continue
        digest = path.stem
        if digest in store:
            stats.already_stored += 1
            continue
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("cache schema mismatch")
            result = payload["result"]
            if not isinstance(result, dict):
                raise ValueError("result is not an object")
        except (OSError, ValueError, KeyError):
            stats.skipped_invalid += 1
            continue
        rows.append((digest, result))
        stats.imported += 1
        if len(rows) >= batch:
            store.append(rows)
            rows = []
    store.append(rows)
    if compact:
        store.compact()
    return stats


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.migrate",
        description="Import a JSON result-cache directory into a columnar store.",
    )
    parser.add_argument("source", help="JSON cache directory (e.g. ~/.cache/repro)")
    parser.add_argument("store", help="columnar store directory (created if missing)")
    parser.add_argument(
        "--batch",
        type=int,
        default=DEFAULT_BATCH,
        help=f"rows per imported segment (default {DEFAULT_BATCH})",
    )
    parser.add_argument(
        "--no-compact",
        action="store_true",
        help="skip the final compaction (leave the import batches as-is)",
    )
    args = parser.parse_args(argv)
    store = ColumnarStore(args.store)
    try:
        stats = migrate_cache(
            args.source, store, batch=args.batch, compact=not args.no_compact
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.source} -> {args.store}: {stats.summary()}")
    print(f"store now holds {len(store)} row(s) in {len(store.segment_paths())} segment(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
