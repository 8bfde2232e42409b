"""Structured sweep results: tidy records instead of bespoke nested dicts.

Every executed :class:`~repro.scenarios.spec.SweepPoint` becomes one
:class:`ResultRecord` — its coordinate values plus a flat dictionary of
scalar metrics — and a sweep returns a :class:`ResultSet`, which knows how
to ``filter`` by coordinates, look up a single ``value``, ``pivot`` into
the small nested tables the figures print, and round-trip through JSON.
The figure modules are therefore just a spec plus a few pivots; no more
per-figure ``{workload: {label: {cores: value}}}`` shapes invented from
scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Scalar metrics copied off :class:`~repro.chip.chip.SimulationResults`
#: into every record (attribute names; properties included).
METRIC_NAMES = (
    "throughput_ipc",
    "per_core_ipc",
    "cycles",
    "total_instructions",
    "messages_delivered",
    "network_mean_latency",
    "network_mean_hops",
    "llc_accesses",
    "llc_hit_rate",
    "snoop_rate",
    "l1i_mpki",
    "memory_reads",
)

_RESULTS_SCHEMA = 1


@dataclass(frozen=True)
class RecordDelta:
    """One coordinate point of :meth:`ResultSet.delta`: a value vs. another.

    ``rel_delta`` is ``(other - value) / value`` — ``None`` when the
    reference ``value`` is zero.
    """

    coords: Dict[str, object]
    value: float
    other: float

    @property
    def abs_delta(self) -> float:
        return self.other - self.value

    @property
    def rel_delta(self) -> Optional[float]:
        if self.value == 0:
            return None
        return (self.other - self.value) / self.value


@dataclass(frozen=True)
class ResultRecord:
    """One executed point: its coordinates, scalar metrics, and provenance.

    ``result`` retains the full :class:`SimulationResults` when the sweep
    was run with ``keep_results=True`` (the default) — the power analysis
    needs the per-component ``network_activity`` counters, which are not
    scalar metrics.  JSON serialisation drops it unless asked to keep it.
    """

    coords: Dict[str, object]
    metrics: Dict[str, float]
    point_hash: str
    result: Optional["SimulationResults"] = field(  # noqa: F821 — lazy import
        default=None, compare=False, repr=False
    )

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            ) from None

    def matches(self, selection: Mapping) -> bool:
        return all(self.coords.get(key) == value for key, value in selection.items())

    def full_result(self) -> Optional["SimulationResults"]:  # noqa: F821
        """The complete :class:`SimulationResults` behind this record.

        ``None`` when the sweep ran with ``keep_results=False``.
        Non-scalar fields — ``per_tenant_latency``, ``network_activity`` —
        are only reachable this way.
        """
        return self.result

    def to_dict(self, include_result: bool = False) -> Dict[str, object]:
        from repro.scenarios.spec import _json_value

        data = {
            "coords": {key: _json_value(value) for key, value in self.coords.items()},
            "metrics": dict(self.metrics),
            "point_hash": self.point_hash,
        }
        if include_result and self.result is not None:
            data["result"] = self.result.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResultRecord":
        from repro.scenarios.spec import _freeze_value

        result = None
        if data.get("result") is not None:
            from repro.chip.chip import SimulationResults

            result = SimulationResults.from_dict(data["result"])
        return cls(
            # _freeze_value revives workload maps (the __kind__ tag) and
            # turns JSON lists back into the hashable tuples the merge /
            # delta coordinate keys need.
            coords={key: _freeze_value(value) for key, value in data["coords"].items()},
            metrics=dict(data["metrics"]),
            point_hash=str(data["point_hash"]),
            result=result,
        )


def record_for(sweep_point, result, keep_result: bool = True) -> ResultRecord:
    """Build the :class:`ResultRecord` for one executed sweep point."""
    return ResultRecord(
        coords=dict(sweep_point.coords),
        metrics={name: getattr(result, name) for name in METRIC_NAMES},
        point_hash=sweep_point.content_hash(),
        result=result if keep_result else None,
    )


class ResultSet(Sequence[ResultRecord]):
    """An ordered collection of :class:`ResultRecord`\\ s with query helpers.

    Supports the sequence protocol (``len`` / indexing / iteration; slices
    return a new :class:`ResultSet`) plus:

    * ``filter(**coords)`` / ``value(metric, **coords)`` /
      ``axis_values(name)`` / ``pivot(index, columns, metric)`` /
      ``iter_values(metric, **coords)`` (streaming) — queries over the
      records' coordinates;
    * ``merge(other)`` / ``summary(metric, **coords)`` / ``delta(other,
      metric)`` — combination and comparison across result sets (the
      reporting layer and before/after experiments build on these);
    * ``to_json()`` / ``from_json()`` — lossless round-trip (the full
      per-record :class:`SimulationResults` is included only on request).

    Example::

        results = run_sweep(spec)
        results.value("throughput_ipc", workload="Web Search", topology="mesh")
        results.pivot("workload", "topology", metric="throughput_ipc")
        results.summary("network_mean_latency", topology="noc_out")
    """

    def __init__(self, records: Sequence[ResultRecord], spec=None) -> None:
        self.records: List[ResultRecord] = list(records)
        self.spec = spec

    # -- sequence protocol ---------------------------------------------- #
    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.records[index], spec=self.spec)
        return self.records[index]

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"ResultSet({len(self.records)} records)"

    # -- queries -------------------------------------------------------- #
    def filter(self, **selection) -> "ResultSet":
        """Records whose coordinates match every ``name=value`` given."""
        return ResultSet(
            [record for record in self.records if record.matches(selection)],
            spec=self.spec,
        )

    def value(self, metric: str, **selection) -> float:
        """The single ``metric`` value selected by the coordinates given."""
        matches = [record for record in self.records if record.matches(selection)]
        if len(matches) != 1:
            raise LookupError(
                f"selection {selection!r} matched {len(matches)} records, expected 1"
            )
        return matches[0].metric(metric)

    def iter_values(
        self, metric: str, **selection
    ) -> Iterator[Tuple[Dict[str, object], float]]:
        """Stream ``(coords, value)`` pairs for ``metric``, lazily.

        The streaming complement of :meth:`value`/:meth:`pivot`: records
        are visited in order and metric values resolved one at a time, so
        a consumer can stop at the first matching record.
        """
        for record in self.records:
            if record.matches(selection):
                yield record.coords, record.metric(metric)

    def axis_values(self, name: str) -> List[object]:
        """Distinct values of coordinate ``name``, in first-seen order."""
        seen: Dict[object, None] = {}
        for record in self.records:
            if name in record.coords:
                seen.setdefault(record.coords[name])
        return list(seen)

    def pivot(
        self,
        index: str,
        columns: str,
        metric: str = "throughput_ipc",
        transform: Optional[Callable[[float], float]] = None,
    ) -> Dict[object, Dict[object, float]]:
        """Nested ``{index value: {column value: metric}}`` table.

        This is the shape the legacy per-figure dicts used; ``transform``
        (e.g. a normalisation) is applied to each cell if given.
        """
        table: Dict[object, Dict[object, float]] = {}
        for record in self.records:
            row = record.coords.get(index)
            column = record.coords.get(columns)
            value = record.metric(metric)
            table.setdefault(row, {})[column] = (
                transform(value) if transform is not None else value
            )
        return table

    # -- combination and summaries -------------------------------------- #
    def merge(self, other: "ResultSet") -> "ResultSet":
        """Concatenate two result sets, dropping duplicate points.

        A record is a duplicate when an earlier record carries the same
        ``(point_hash, coords)`` pair — the situation after merging two
        shard runs of the same spec, where the overlap is byte-identical
        by construction.  The spec is kept only when both sets agree on it
        (a merged cross-spec set has no single describing spec).
        """
        seen = set()
        records: List[ResultRecord] = []
        for record in list(self.records) + list(other.records):
            key = (record.point_hash, tuple(sorted(record.coords.items())))
            if key in seen:
                continue
            seen.add(key)
            records.append(record)
        spec = self.spec if self.spec == other.spec else None
        return ResultSet(records, spec=spec)

    def summary(self, metric: str, **selection) -> Dict[str, float]:
        """Descriptive statistics of ``metric`` over the selected records.

        Returns ``{"count", "mean", "min", "max"}`` (an all-zero dict when
        nothing matches), e.g. ``results.summary("throughput_ipc",
        topology="mesh")``.
        """
        values = [
            record.metric(metric)
            for record in self.records
            if record.matches(selection)
        ]
        if not values:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
        }

    def delta(self, other: "ResultSet", metric: str = "throughput_ipc") -> List[RecordDelta]:
        """Per-point deltas of ``metric`` against ``other``, matched by coords.

        The workhorse for before/after comparisons (two model versions, two
        settings): every coordinate point present in both sets yields a
        :class:`RecordDelta` with this set's value as the reference.
        Points missing from either side are skipped; duplicated coordinates
        in ``other`` resolve to the first occurrence.
        """
        def key(record: ResultRecord):
            return tuple(sorted(record.coords.items()))

        other_by_coords: Dict[tuple, ResultRecord] = {}
        for record in other.records:
            other_by_coords.setdefault(key(record), record)
        deltas = []
        for record in self.records:
            counterpart = other_by_coords.get(key(record))
            if counterpart is None:
                continue
            deltas.append(
                RecordDelta(
                    coords=dict(record.coords),
                    value=record.metric(metric),
                    other=counterpart.metric(metric),
                )
            )
        return deltas

    # -- serialisation -------------------------------------------------- #
    def to_dict(self, include_results: bool = False) -> Dict[str, object]:
        return {
            "schema": _RESULTS_SCHEMA,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "records": [record.to_dict(include_results) for record in self.records],
        }

    def to_json(self, include_results: bool = False, indent=None) -> str:
        return json.dumps(self.to_dict(include_results), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResultSet":
        if data.get("schema") != _RESULTS_SCHEMA:
            raise ValueError(f"unsupported ResultSet schema: {data.get('schema')!r}")
        spec = None
        if data.get("spec") is not None:
            from repro.scenarios.spec import SweepSpec

            spec = SweepSpec.from_dict(data["spec"])
        return cls([ResultRecord.from_dict(item) for item in data["records"]], spec=spec)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))
