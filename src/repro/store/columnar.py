"""Append-only columnar segment store for simulation results.

Layout of a store directory::

    store/
      manifest.json            {"schema": 1, "cache_schema": 2, ...}
      segments/
        seg-<17 hex>-<pid hex>-<seq>.json    one immutable columnar table
      leases/                  farm lease files (see repro.store.farm)

A **segment** is one JSON document holding N rows in column-major order:

.. code-block:: json

    {
      "schema": 1,
      "count": 3,
      "hashes": ["<sha256>", "..."],
      "columns": {"cycles": [600, 600, 610], "workload": ["Web Search", ...]}
    }

``hashes[i]`` is :meth:`ExperimentPoint.content_hash` for row ``i`` and the
columns are exactly the fields of
:meth:`~repro.chip.chip.SimulationResults.to_dict` — so a row reconstructs
the same ``SimulationResults`` the legacy JSON cache would have produced
(both go through one JSON round-trip, which is exact for floats).

Properties the rest of the result path relies on:

* **Append-only + atomic.**  A segment is written to a temp file and
  ``os.replace``\\ d into place, so readers never observe a torn segment
  and concurrent farm workers never contend: every append creates a new
  uniquely-named file.  Nothing but :meth:`ColumnarStore.compact` ever
  rewrites or removes a segment.
* **First write wins.**  Duplicate hashes across segments are legal (two
  farm workers can race past an expired lease); simulations are
  deterministic, so every copy is identical and readers take the first.
* **Compaction is canonical.**  :meth:`ColumnarStore.compact` folds every
  segment into one, deduplicated and sorted by hash — byte-stable for a
  given set of rows, so compacting a farm-filled store and a serial run of
  the same sweep produce identical segment files.  This is how shard
  caches are combined: import each shard with
  ``python -m repro.store.migrate`` (or let farm workers append directly)
  and compact once.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.chip.chip import SimulationResults

#: Bump when the segment or manifest layout changes; old stores then fail
#: loudly (a store is long-lived shared state — silently misreading one is
#: worse than refusing).
SEGMENT_SCHEMA_VERSION = 1

_SEGMENT_DIR = "segments"
_SEGMENT_GLOB = "seg-*.json"
_MANIFEST = "manifest.json"


class StoreError(Exception):
    """A store invariant was violated (bad schema, unreadable segment...)."""


def _atomic_write_json(directory: Path, final: Path, payload) -> None:
    """Write ``payload`` as JSON at ``final`` via a same-directory temp file."""
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class StoreTable:
    """A column-major view over a set of store rows.

    ``columns[name][i]`` belongs to ``hashes[i]``.  The table holds plain
    references into the parsed segment data — building one copies no row
    values — and materialises a :class:`SimulationResults` per row only on
    first access (:meth:`result`), cached thereafter.
    """

    hashes: Tuple[str, ...]
    columns: Dict[str, list]
    _results: List[Optional[SimulationResults]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._results is None:
            object.__setattr__(self, "_results", [None] * len(self.hashes))

    def __len__(self) -> int:
        return len(self.hashes)

    def row(self, index: int) -> Dict[str, object]:
        """Row ``index`` as a plain field dict (``None`` cells dropped)."""
        return {
            name: column[index]
            for name, column in self.columns.items()
            if column[index] is not None
        }

    def result(self, index: int) -> SimulationResults:
        """The reconstructed :class:`SimulationResults` for row ``index``."""
        cached = self._results[index]
        if cached is None:
            cached = SimulationResults.from_dict(self.row(index))
            self._results[index] = cached
        return cached

    def iter_results(self) -> Iterator[Tuple[str, SimulationResults]]:
        """Stream ``(hash, result)`` pairs row by row."""
        for index, digest in enumerate(self.hashes):
            yield digest, self.result(index)


@dataclass
class CompactStats:
    """What one :meth:`ColumnarStore.compact` call did."""

    segments_in: int = 0
    segments_out: int = 0
    rows_in: int = 0
    rows_out: int = 0

    @property
    def duplicates_dropped(self) -> int:
        return self.rows_in - self.rows_out

    def summary(self) -> str:
        return (
            f"{self.segments_in} segment(s) / {self.rows_in} row(s) -> "
            f"{self.segments_out} segment(s) / {self.rows_out} row(s) "
            f"({self.duplicates_dropped} duplicate(s) dropped)"
        )


class _Segment:
    """One parsed, immutable segment file."""

    __slots__ = ("name", "hashes", "columns")

    def __init__(self, name: str, payload: Mapping) -> None:
        if payload.get("schema") != SEGMENT_SCHEMA_VERSION:
            raise StoreError(
                f"segment {name} has schema {payload.get('schema')!r}, "
                f"expected {SEGMENT_SCHEMA_VERSION}"
            )
        hashes = payload.get("hashes")
        columns = payload.get("columns")
        count = payload.get("count")
        if not isinstance(hashes, list) or not isinstance(columns, dict):
            raise StoreError(f"segment {name} is malformed (hashes/columns)")
        if count != len(hashes) or any(
            len(col) != count for col in columns.values()
        ):
            raise StoreError(f"segment {name} has inconsistent column lengths")
        self.name = name
        self.hashes: List[str] = hashes
        self.columns: Dict[str, list] = columns


def _rows_to_columns(rows: Sequence[Mapping]) -> Dict[str, list]:
    """Transpose row dicts into column-major lists (missing cells = None)."""
    names = sorted(set(itertools.chain.from_iterable(rows)))
    return {
        name: [row.get(name) for row in rows]
        for name in names
    }


class ColumnarStore:
    """An append-only columnar store of results keyed by content hash.

    Concurrency model: appends create new segment files (no shared state),
    and the in-memory index refreshes from the directory lazily — a lookup
    that misses re-scans for segments appended by sibling processes before
    reporting the miss, so a query server over a farm-filled store is
    always at most one directory listing behind the workers.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self._segments: Dict[str, _Segment] = {}
        self._index: Dict[str, Tuple[_Segment, int]] = {}
        self._manifest_checked = False
        self._append_seq = 0

    # -- layout --------------------------------------------------------- #
    @property
    def segment_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def segment_paths(self) -> List[Path]:
        """Current segment files, oldest first (lexical = chronological)."""
        try:
            return sorted(self.segment_dir.glob(_SEGMENT_GLOB))
        except OSError:
            return []

    def _check_manifest(self) -> None:
        if self._manifest_checked:
            return
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            self._manifest_checked = True
            return
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store manifest {self.manifest_path}: {exc}")
        if manifest.get("schema") != SEGMENT_SCHEMA_VERSION:
            raise StoreError(
                f"store {self.root} has manifest schema "
                f"{manifest.get('schema')!r}, expected {SEGMENT_SCHEMA_VERSION}"
            )
        self._manifest_checked = True

    def _write_manifest(self) -> None:
        from repro.experiments.engine import CACHE_SCHEMA_VERSION

        _atomic_write_json(
            self.root,
            self.manifest_path,
            {"schema": SEGMENT_SCHEMA_VERSION, "cache_schema": CACHE_SCHEMA_VERSION},
        )
        self._manifest_checked = True

    # -- index ---------------------------------------------------------- #
    def refresh(self) -> int:
        """Pick up segments appended since the last scan; return new count."""
        self._check_manifest()
        new = 0
        for path in self.segment_paths():
            if path.name in self._segments:
                continue
            try:
                payload = json.loads(path.read_text())
            except FileNotFoundError:
                continue  # compacted away by a sibling between glob and read
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable segment {path}: {exc}")
            segment = _Segment(path.name, payload)
            self._segments[path.name] = segment
            for row, digest in enumerate(segment.hashes):
                # First write wins: deterministic sims make duplicates
                # byte-identical, so keeping the earliest is arbitrary but
                # stable.
                self._index.setdefault(digest, (segment, row))
            new += 1
        return new

    def _lookup(self, digest: str) -> Optional[Tuple[_Segment, int]]:
        hit = self._index.get(digest)
        if hit is None:
            self.refresh()
            hit = self._index.get(digest)
        return hit

    def __contains__(self, digest: str) -> bool:
        return self._lookup(digest) is not None

    def __len__(self) -> int:
        self.refresh()
        return len(self._index)

    def hashes(self) -> List[str]:
        """All row keys currently in the store (sorted)."""
        self.refresh()
        return sorted(self._index)

    # -- reads ---------------------------------------------------------- #
    def get(self, digest: str) -> Optional[SimulationResults]:
        """The result stored under ``digest``, or ``None``."""
        hit = self._lookup(digest)
        if hit is None:
            return None
        segment, row = hit
        return SimulationResults.from_dict(
            {
                name: column[row]
                for name, column in segment.columns.items()
                if column[row] is not None
            }
        )

    def load_table(self, digests: Sequence[str]) -> StoreTable:
        """A columnar :class:`StoreTable` over ``digests``, in that order.

        Raises :class:`KeyError` naming the missing hashes if any digest is
        absent (after a refresh), so callers can distinguish "cold store"
        from an empty answer.
        """
        self.refresh()
        missing = [digest for digest in digests if digest not in self._index]
        if missing:
            raise KeyError(
                f"{len(missing)} of {len(digests)} row(s) missing from store "
                f"{self.root} (first: {missing[0]})"
            )
        hits = [self._index[digest] for digest in digests]
        names = sorted({name for segment, _ in hits for name in segment.columns})
        columns: Dict[str, list] = {
            name: [segment.columns.get(name, _NONE_COLUMN)[row] for segment, row in hits]
            for name in names
        }
        return StoreTable(hashes=tuple(digests), columns=columns)

    # -- writes --------------------------------------------------------- #
    def _new_segment_path(self) -> Path:
        # time_ns (17 hex digits covers year-2500 nanoseconds) keeps lexical
        # order chronological; pid + per-instance seq make concurrent
        # writers collision-free.
        self._append_seq += 1
        stamp = f"{time.time_ns():017x}"
        return self.segment_dir / (
            f"seg-{stamp}-{os.getpid():x}-{self._append_seq}.json"
        )

    def append(self, rows: Iterable[Tuple[str, Mapping]]) -> Optional[Path]:
        """Atomically append one segment holding ``(hash, result_dict)`` rows.

        ``result_dict`` is :meth:`SimulationResults.to_dict` output (or its
        JSON round-trip — both store identically).  Returns the segment
        path, or ``None`` when ``rows`` is empty.
        """
        rows = list(rows)
        if not rows:
            return None
        if not self._manifest_checked or not self.manifest_path.exists():
            self._check_manifest()
            self._write_manifest()
        hashes = [digest for digest, _ in rows]
        payload = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "count": len(rows),
            "hashes": hashes,
            "columns": _rows_to_columns([dict(row) for _, row in rows]),
        }
        path = self._new_segment_path()
        _atomic_write_json(self.segment_dir, path, payload)
        return path

    def append_results(
        self, rows: Iterable[Tuple[str, SimulationResults]]
    ) -> Optional[Path]:
        """:meth:`append` for in-memory :class:`SimulationResults` rows."""
        return self.append((digest, result.to_dict()) for digest, result in rows)

    # -- compaction ----------------------------------------------------- #
    def compact(self) -> CompactStats:
        """Fold every segment into one deduplicated, hash-sorted segment.

        Byte-stable: the output depends only on the set of rows, not on
        segment arrival order (first-write-wins dedup + sort by hash +
        canonical JSON).  Removes the input segments on success; a crash
        between the write and the removals leaves duplicates that the next
        compact folds away.
        """
        self.refresh()
        stats = CompactStats(
            segments_in=len(self._segments),
            rows_in=sum(len(s.hashes) for s in self._segments.values()),
        )
        if not self._index:
            return stats
        ordered = sorted(self._index)
        rows = []
        for digest in ordered:
            segment, row = self._index[digest]
            rows.append(
                (
                    digest,
                    {
                        name: column[row]
                        for name, column in segment.columns.items()
                        if column[row] is not None
                    },
                )
            )
        old_names = list(self._segments)
        new_path = self.append(rows)
        for name in old_names:
            if name == new_path.name:
                continue
            try:
                (self.segment_dir / name).unlink()
            except OSError:
                pass
        # Rebuild the in-memory view from disk truth.
        self._segments.clear()
        self._index.clear()
        self.refresh()
        stats.segments_out = len(self._segments)
        stats.rows_out = len(self._index)
        return stats


#: Shared all-None "column" used when a segment lacks a field another
#: segment has; indexing it at any row yields None.  (Defined at module
#: level so load_table never allocates per-call filler lists.)
class _NoneColumn:
    def __getitem__(self, index):
        return None


_NONE_COLUMN = _NoneColumn()
